"""Sources / sinks + checkpoint manifests (SURVEY.md §2.1 S1–S5, §4.3).

Resume contract (BASELINE.json:6,14 "a killed job resumes without
re-crawling"): every epoch commits

    {workdir}/epoch={e}/frontier/part-*.parquet  (parts of at most
                                             FRONTIER_PART_ROWS rows)
    {workdir}/epoch={e}/seen-e{e}-s{i}.npz   (cuckoo shard snapshots: the
                                             non-empty buckets only)
    {workdir}/epoch={e}/politeness.json
    {workdir}/epoch={e}/counters.json
    {workdir}/manifest-e{e}.json             (atomic rename = commit point)

On restart: find the max committed manifest, reload frontier + seen
shards + politeness state, continue from epoch e. An epoch directory
without its manifest is garbage from a crash and is ignored/overwritten.

The corpus / fetch-log / schedule-log / metrics sinks are append-only
per-epoch parquet files under {workdir}/corpus/ etc. — partitioned
output so a resumed run never rewrites a finished epoch's files
(resumable output).
"""

from __future__ import annotations

import json
import os

import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..runtime import default_buckets
from ..schemas import FRONTIER


def _pq(sf_dir: str, name: str, columns=None, split: bool = False):
    """Pruned parquet read of ``{sf_dir}/{name}.parquet``. ``split=True``
    forces the read across ~2x-cpus blocks: a single parquet file
    otherwise arrives as one block, which serializes every downstream
    per-doc compute stage (signatures, shingling, embedding matmuls)
    onto one task — the single-node analogue of a hot input partition."""
    kw = {"override_num_blocks": default_buckets()} if split else {}
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns, **kw
    )


def epoch_dir(workdir: str, epoch: int) -> str:
    return os.path.join(workdir, f"epoch={epoch}")


def manifest_path(workdir: str, epoch: int) -> str:
    return os.path.join(workdir, f"manifest-e{epoch}.json")


# rows per frontier part file: one read of the frontier holds at most
# this many rows (~100-200 B each in Arrow) on the driver
FRONTIER_PART_ROWS = 500_000


def write_frontier_table(tables, workdir: str, epoch: int) -> str:
    """S4: atomic frontier write. ``tables`` is an iterable of FRONTIER
    tables, consumed in order and re-cut into ``part-{i:05d}.parquet``
    files of ``FRONTIER_PART_ROWS`` rows (the last one shorter), so the
    writer holds under two parts at once. The parts go to a tmp
    directory that replaces the committed one in one rename; an empty
    frontier leaves the directory without files."""
    import shutil

    rows = FRONTIER_PART_ROWS
    out = os.path.join(epoch_dir(workdir, epoch), "frontier")
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    n_parts = 0

    def write(t: pa.Table) -> None:
        nonlocal n_parts
        pq.write_table(t, os.path.join(tmp, f"part-{n_parts:05d}.parquet"))
        n_parts += 1

    buf: list = []
    n_buf = 0
    for t in tables:
        if t.num_rows == 0:
            continue
        buf.append(t)
        n_buf += t.num_rows
        while n_buf >= rows:
            whole = pa.concat_tables(buf, promote_options="none")
            write(whole.slice(0, rows))
            buf, n_buf = [whole.slice(rows)], n_buf - rows
    if n_buf:
        write(pa.concat_tables(buf, promote_options="none"))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def _frontier_files(workdir: str, epoch: int) -> list[str]:
    path = os.path.join(epoch_dir(workdir, epoch), "frontier")
    if not os.path.isdir(path):
        return []
    return sorted(
        os.path.join(path, f) for f in os.listdir(path) if f.endswith(".parquet")
    )


def frontier_part_count(workdir: str, epoch: int) -> int:
    return len(_frontier_files(workdir, epoch))


def empty_frontier() -> "ray.data.Dataset":
    return ray.data.from_arrow(FRONTIER.empty_table())


def read_frontier_table(workdir: str, epoch: int, part: int | None = None) -> pa.Table:
    """S3: part ``part`` of a committed frontier checkpoint, or with
    ``part=None`` every part as one table."""
    files = _frontier_files(workdir, epoch)
    if part is not None:
        return pq.read_table(files[part])
    if not files:
        return FRONTIER.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files], promote_options="none")


def frontier_row_count(workdir: str, epoch: int) -> int:
    """Row count from parquet footers — no Ray job, no data read."""
    return sum(pq.read_metadata(f).num_rows for f in _frontier_files(workdir, epoch))


def commit_manifest(workdir: str, epoch: int, info: dict) -> None:
    p = manifest_path(workdir, epoch)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump({"epoch": epoch, **info}, f, indent=1, sort_keys=True)
    os.replace(tmp, p)


def latest_committed_epoch(workdir: str) -> int | None:
    best = None
    if not os.path.isdir(workdir):
        return None
    for name in os.listdir(workdir):
        if name.startswith("manifest-e") and name.endswith(".json"):
            try:
                e = int(name[len("manifest-e") : -len(".json")])
            except ValueError:
                continue
            best = e if best is None else max(best, e)
    return best


def append_epoch_table(table: pa.Table, workdir: str, sub: str, epoch: int) -> str | None:
    """Append-only per-epoch sink: {workdir}/{sub}/e{epoch}.parquet."""
    if table.num_rows == 0:
        return None
    d = os.path.join(workdir, sub)
    os.makedirs(d, exist_ok=True)
    p = os.path.join(d, f"e{epoch}.parquet")
    tmp = p + ".tmp"
    pq.write_table(table, tmp)
    os.replace(tmp, p)
    return p


def write_epoch_table(table: pa.Table, workdir: str, sub: str, epoch: int) -> str:
    """Per-epoch sink directory {workdir}/{sub}/e{epoch}/ holding one
    parquet file. The directory is cleared first so a crashed epoch's
    re-run can't double its rows."""
    d = os.path.join(workdir, sub, f"e{epoch}")
    if os.path.isdir(d):
        import shutil

        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-0.parquet"))
    return d


def read_epoch_tables(workdir: str, sub: str) -> pa.Table | None:
    """Read every epoch sink under {workdir}/{sub}: both single-file
    epochs (e{N}.parquet) and directory epochs (e{N}/*.parquet)."""
    d = os.path.join(workdir, sub)
    if not os.path.isdir(d):
        return None
    files = []
    for name in sorted(os.listdir(d)):
        p = os.path.join(d, name)
        if name.endswith(".parquet"):
            files.append(p)
        elif os.path.isdir(p):
            files.extend(
                os.path.join(p, f) for f in sorted(os.listdir(p)) if f.endswith(".parquet")
            )
    if not files:
        return None
    return pa.concat_tables([pq.read_table(f) for f in files])
