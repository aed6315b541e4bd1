"""Sources / sinks + checkpoint manifests (SURVEY.md §2.1 S1–S5, §4.3).

Resume contract (BASELINE.json:6,14 "a killed job resumes without
re-crawling"): every epoch commits

    {workdir}/epoch={e}/frontier/*.parquet   (partitioned by host_shard)
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

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data

from ..functions.hashing import hash64
from ..runtime import default_buckets
from ..schemas import FRONTIER


def read_seeds(path: str) -> "ray.data.Dataset":
    """S2: one URL per line -> 1-col table (heroshi io-worker stdin shape)."""
    ds = ray.data.read_text(path)
    return ds.map_batches(
        lambda b: pa.table({"url": b.column("text")}),
        batch_format="pyarrow",
    )


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


def write_frontier(
    frontier: "ray.data.Dataset", workdir: str, epoch: int, n_host_shards: int = 16
) -> str:
    """S4: partitioned, atomic frontier write. Partition key = host_shard
    (hash64(host) % P) — the same key every politeness/top-k stage uses,
    so a future read is already co-partitioned for them."""

    def add_shard(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0 or "host_shard" in batch.column_names:
            return batch
        sh = (hash64(batch.column("host")) % np.uint64(n_host_shards)).astype(
            np.int64
        )
        return batch.append_column("host_shard", pa.array(sh, pa.int64()))

    out = os.path.join(epoch_dir(workdir, epoch), "frontier")
    tmp = out + ".tmp"
    if os.path.exists(tmp):
        import shutil

        shutil.rmtree(tmp)
    os.makedirs(tmp, exist_ok=True)
    ds = frontier.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True)
    ds.write_parquet(tmp)
    if os.path.exists(out):
        import shutil

        shutil.rmtree(out)
    os.replace(tmp, out)
    return out


def write_frontier_table(
    tbl: pa.Table, workdir: str, epoch: int, n_host_shards: int = 16
) -> str:
    """S4 driver fast path: identical layout/partition column/atomic
    rename as ``write_frontier``, but for a driver-resident Arrow table
    (seed bootstrap; epoch frontiers under the size-adaptive gate) — no
    Dataset execution, one parquet file. A crawl at 100-TB scale takes
    the streaming path; this exists because a distributed write of a
    few-MB table costs a full plan launch (~0.5 s/epoch of pure fixed
    overhead). Equivalence-tested against the streaming writer."""
    import shutil

    if tbl.num_rows and "host_shard" not in tbl.column_names:
        sh = (hash64(tbl.column("host")) % np.uint64(n_host_shards)).astype(
            np.int64
        )
        tbl = tbl.append_column("host_shard", pa.array(sh, pa.int64()))
    out = os.path.join(epoch_dir(workdir, epoch), "frontier")
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp, exist_ok=True)
    if tbl.num_rows:
        # write_parquet emits no files for empty input; match it
        pq.write_table(tbl, os.path.join(tmp, "part-0.parquet"))
    shutil.rmtree(out, ignore_errors=True)
    os.replace(tmp, out)
    return out


def read_frontier(workdir: str, epoch: int) -> "ray.data.Dataset":
    """S3: load a committed frontier checkpoint (empty dataset if the
    epoch wrote no rows — write_parquet emits no files for empty input)."""
    path = os.path.join(epoch_dir(workdir, epoch), "frontier")
    if not os.path.isdir(path) or not any(
        f.endswith(".parquet") for f in os.listdir(path)
    ):
        return empty_frontier()
    return ray.data.read_parquet(path)


def empty_frontier() -> "ray.data.Dataset":
    return ray.data.from_arrow(FRONTIER.empty_table())


def read_frontier_table(workdir: str, epoch: int) -> pa.Table:
    """Driver twin of :func:`read_frontier` for the size-adaptive epoch
    fork: the committed frontier as one driver-resident Arrow table
    (callers gate on :func:`frontier_row_count` first)."""
    path = os.path.join(epoch_dir(workdir, epoch), "frontier")
    files = (
        sorted(
            os.path.join(path, f)
            for f in os.listdir(path)
            if f.endswith(".parquet")
        )
        if os.path.isdir(path)
        else []
    )
    if not files:
        return FRONTIER.empty_table()
    return pa.concat_tables(
        [pq.read_table(f) for f in files], promote_options="none"
    )


def frontier_row_count(workdir: str, epoch: int) -> int:
    """Row count from parquet footers — no Ray job, no data read."""
    path = os.path.join(epoch_dir(workdir, epoch), "frontier")
    if not os.path.isdir(path):
        return 0
    total = 0
    for f in os.listdir(path):
        if f.endswith(".parquet"):
            total += pq.read_metadata(os.path.join(path, f)).num_rows
    return total


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


def write_epoch_dataset(ds: "ray.data.Dataset", workdir: str, sub: str, epoch: int) -> str:
    """Distributed append-only per-epoch sink: {workdir}/{sub}/e{epoch}/
    written by the DATASET (never pulled to the driver). The directory is
    cleared first so a crashed epoch's re-run can't double its rows."""
    d = os.path.join(workdir, sub, f"e{epoch}")
    if os.path.isdir(d):
        import shutil

        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    ds.write_parquet(d)
    return d


def write_epoch_table(table: pa.Table, workdir: str, sub: str, epoch: int) -> str:
    """Driver twin of :func:`write_epoch_dataset`: the SAME
    {sub}/e{N}/ directory contract (cleared first so a crashed epoch's
    re-run can't double its rows), one parquet file written directly —
    used by the size-adaptive driver forks where the table is already
    driver-resident."""
    d = os.path.join(workdir, sub, f"e{epoch}")
    if os.path.isdir(d):
        import shutil

        shutil.rmtree(d)
    os.makedirs(d, exist_ok=True)
    pq.write_table(table, os.path.join(d, "part-0.parquet"))
    return d


def read_epoch_tables(workdir: str, sub: str) -> pa.Table | None:
    """Read every epoch sink under {workdir}/{sub}: both single-file
    epochs (e{N}.parquet) and distributed-write epochs (e{N}/*.parquet)."""
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
