"""Independent references the benchmark checks every rep against.

Handout: a single-process reference built from the scalar semantic
functions (``functions.urlnorm.canonicalize``, ``functions.robots.allowed``),
a plain set for dedup, a per-host top-budget by (priority desc, unsigned
``hash64(surt)`` asc), then the global order and limit. A pipeline row
may differ from it only where the reference row's key is a cuckoo false
positive against the keys the seen set was given, which is checked with
``state.cuckoo.CuckooFilter`` shards of the pipeline's own geometry.

Crawl: ``tests/oracle_crawler.OracleCrawler`` run on the same fixture and
config: per-host crawl order, seen membership, fetch counters and the
corpus rows must be identical.
"""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# handout output columns compared row by row, in order
HANDOUT_COLS = ("url", "surt", "host", "priority", "depth")


def _path_of(canonical_url: str) -> str:
    i = canonical_url.find("://")
    j = canonical_url.find("/", i + 3)
    return canonical_url[j:] if j != -1 else "/"


class HandoutReference:
    """Candidates of one frontier, canonicalized, robots-gated and deduped
    once; ``handout`` then answers any (excluded keys, budgets) query."""

    def __init__(self, urls: list[str], robots: dict):
        from heroshi_ray.functions.hashing import hash64
        from heroshi_ray.functions.robots import allowed
        from heroshi_ray.functions.urlnorm import canonicalize

        distinct: set[str] = set()
        all_surts: list[str] = []
        rows: list[tuple[str, str, str]] = []
        for u in urls:
            c = canonicalize(u)
            if c is None:
                continue
            canon, surt, host = c
            if surt in distinct:
                continue
            distinct.add(surt)
            all_surts.append(surt)
            rules = robots.get(host)
            if rules is None or allowed(rules, _path_of(canon)):
                rows.append(c)
        self.n_urls = len(urls)
        # every distinct canonical key, robots-denied ones included
        self.all_keys = hash64(all_surts) if all_surts else np.zeros(0, np.uint64)
        del distinct, all_surts
        # Arrow string arrays, not Python strings: the reference stays in
        # the driver during every rep and would inflate its measured RSS
        self.url, self.surt, self.host = (
            pa.array([r[i] for r in rows], pa.string()) for i in range(3)
        )
        del rows
        self.keys = hash64(self.surt) if len(self.surt) else np.zeros(0, np.uint64)
        # any consistent per-host code will do: it only groups rows
        self.host_code = self.host.dictionary_encode().indices.to_numpy()
        # no depth column in the frontier: every candidate has depth 0
        self.depth = np.zeros(len(self.keys), dtype=np.int32)
        self.priority = 1.0 / (1.0 + self.depth.astype(np.float64))

    def handout(self, excluded: np.ndarray, per_host_budget: int, epoch_budget: int) -> np.ndarray:
        """Indices of the reference handout, in handout order."""
        idx = np.flatnonzero(~np.isin(self.keys, excluded))
        k, p, h = self.keys[idx], self.priority[idx], self.host_code[idx]
        o = np.lexsort((k, -p, h))
        hs = h[o]
        start = np.ones(len(o), dtype=bool)
        start[1:] = hs[1:] != hs[:-1]
        pos = np.arange(len(o))
        rank = pos - np.maximum.accumulate(np.where(start, pos, 0))
        sel = idx[o[rank < per_host_budget]]
        order = np.lexsort((self.keys[sel], -self.priority[sel]))[:epoch_budget]
        return sel[order]

    def table(self, sel: np.ndarray) -> pa.Table:
        return pa.table(
            {
                "url": self.url.take(sel),
                "surt": self.surt.take(sel),
                "host": self.host.take(sel),
                "priority": pa.array(self.priority[sel], pa.float64()),
                "depth": pa.array(self.depth[sel], pa.int32()),
            }
        )

    def check(
        self,
        out: pa.Table,
        prefill: np.ndarray,
        per_host_budget: int,
        epoch_budget: int,
        n_shards: int,
        shard_capacity: int,
    ) -> str | None:
        """None when ``out`` equals the reference handout up to cuckoo
        false positives; otherwise the reason it does not."""
        from heroshi_ray.functions.hashing import hash64

        out = out.select(list(HANDOUT_COLS))
        out_keys = set(hash64(out.column("surt")).tolist()) if out.num_rows else set()
        dropped: set[int] = set()
        # each round drops the reference rows missing from the output and
        # recomputes; a drop lets the next candidate of its host move up
        for _ in range(8):
            excluded = np.concatenate(
                [prefill, np.fromiter(dropped, np.uint64, len(dropped))]
            )
            sel = self.handout(excluded, per_host_budget, epoch_budget)
            missing = {int(k) for k in self.keys[sel] if int(k) not in out_keys}
            if not missing:
                break
            dropped |= missing
        else:
            return f"{len(dropped)} reference rows missing after 8 rounds"
        ref = self.table(sel)
        if not ref.equals(out):
            return _first_diff(ref, out)
        if dropped:
            return self._false_positive_reason(
                dropped, prefill, n_shards, shard_capacity
            )
        return None

    def _false_positive_reason(self, dropped, prefill, n_shards, shard_capacity):
        """The seen set held ``prefill`` plus every admitted key; a
        dropped key is legitimate only if a filter of the same routing and
        geometry holding those keys reports it present."""
        from heroshi_ray.state.cuckoo import CuckooFilter

        drop = np.fromiter(dropped, np.uint64, len(dropped))
        held = np.concatenate([prefill, self.keys[~np.isin(self.keys, drop)]])
        n = np.uint64(n_shards)
        bad = []
        for s in range(n_shards):
            probe = drop[drop % n == s]
            if not len(probe):
                continue
            cf = CuckooFilter(shard_capacity)
            cf.add_if_absent_many(held[held % n == s])
            bad += probe[~cf.contains_many(probe)].tolist()
        if bad:
            return f"{len(bad)} reference rows missing that are no cuckoo false positive"
        return None


def _first_diff(ref: pa.Table, out: pa.Table) -> str:
    if ref.num_rows != out.num_rows:
        return f"handout has {out.num_rows} rows, reference {ref.num_rows}"
    for c in HANDOUT_COLS:
        a, b = ref.column(c).to_pylist(), out.column(c).to_pylist()
        for i, (x, y) in enumerate(zip(a, b)):
            if x != y:
                return f"row {i} column {c}: handout {y!r}, reference {x!r}"
    return "handout differs from reference (types)"


# ---------------------------------------------------------------- crawl

def crawl_golden(paths: dict, cfg) -> dict:
    """The oracle crawler's golden values for ``cfg`` on ``paths``."""
    from tests.oracle_crawler import OracleCrawler

    o = OracleCrawler(
        paths,
        epoch_budget=cfg.epoch_budget,
        epoch_seconds=cfg.epoch_seconds,
        burst=cfg.burst,
        max_epochs=cfg.max_epochs,
        max_retries=cfg.max_retries,
        n_seen_shards=cfg.n_seen_shards,
        seen_capacity=cfg.seen_capacity,
        retry_priority_decay=cfg.retry_priority_decay,
        ua=cfg.ua,
    )
    o.run()
    return {
        "order": o.per_host_order(),
        "seen": o.seen_membership(),
        "fetch_ok": o.fetch_ok,
        "fetch_err": o.fetch_err,
        "denied": len(o.denied),
        "corpus": {k: (v["caption"], v["phash"]) for k, v in o.corpus.items()},
    }


def crawl_result(workdir: str, report) -> dict:
    """The same values read back from a finished crawl's workdir."""
    from heroshi_ray.sources.io import read_epoch_tables, read_frontier_table

    log = read_epoch_tables(workdir, "schedule_log")
    order: dict[str, list[str]] = {}
    if log is not None:
        df = log.to_pandas().sort_values(["sched_epoch", "rank"], kind="mergesort")
        for host, url in zip(df["host"], df["url"]):
            order.setdefault(host, []).append(url)
    seen = set(read_frontier_table(workdir, 0).column("surt").to_pylist())
    adm = read_epoch_tables(workdir, "admitted_log")
    if adm is not None:
        seen |= set(adm.column("surt").to_pylist())
    files = sorted(glob.glob(os.path.join(workdir, "corpus", "e*", "*.parquet")))
    corpus = {}
    if files:
        t = pa.concat_tables(
            [pq.read_table(f, columns=["image_id", "caption", "phash"]) for f in files]
        )
        for i, c, p in zip(*(t.column(n).to_pylist() for n in t.column_names)):
            corpus[i] = (c, p)
    return {
        "order": order,
        "seen": seen,
        "fetch_ok": report.fetch_ok,
        "fetch_err": report.fetch_err,
        "denied": report.robots_denied,
        "corpus": corpus,
    }


def check_crawl(got: dict, golden: dict) -> str | None:
    """None when the crawl matches the oracle; otherwise the first reason."""
    if set(got["order"]) != set(golden["order"]):
        return "crawled host sets differ"
    for host in sorted(golden["order"]):
        if got["order"][host] != golden["order"][host]:
            return f"crawl order diverged for {host}"
    if got["seen"] != golden["seen"]:
        return (
            f"seen membership differs: {len(got['seen'] - golden['seen'])} extra, "
            f"{len(golden['seen'] - got['seen'])} missing"
        )
    for k in ("fetch_ok", "fetch_err", "denied"):
        if got[k] != golden[k]:
            return f"{k}: crawl {got[k]}, oracle {golden[k]}"
    if got["corpus"] != golden["corpus"]:
        return "corpus rows differ"
    return None
