"""Robots gate (J2) + politeness top-k (K1) + global schedule order (K2).

This is the frontier's "hand out a crawl batch" path — heroshi's
manager crawl-queue handout with a ``limit`` ([UPSTREAM-M], reference
unavailable), re-expressed as Ray Data shuffles (BASELINE.json:6
"priority frontier expressed as groupby(host)-aggregate-sort shuffles"):

1. J2: robots semi-join — the parsed robots table is tiny relative to
   the frontier, so it is broadcast once via ``ray.put`` and applied as
   a vectorized mask inside ``map_batches`` (no shuffle).
2. K1: per-host budget cap — ONE shuffle keyed on
   ``host_shard = hash64(host) % P`` (coarse buckets, not per-host
   groups), then a vectorized per-bucket "top budget_h per host".
   Hot hosts can't flood an epoch: their emission is capped by budget,
   which also contains Zipf host skew at the K2 sort.
3. K2: deterministic global order — sort by (priority desc, surt asc)
   + limit(epoch_budget). The ONLY global sort in the hot path; its
   input is already budget-capped (≤ Σ budgets rows).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..functions.hashing import hash64
from ..runtime import arrow_blocks

_SHARD_COL = "__host_shard"


def _path_of(url: str, host: str) -> str:
    # canonical urls are scheme://hostport/path[?query]; locate the path
    # from the authority separator, NOT by searching for the host string
    # (a short host like "t" would match inside "http://")
    i = url.find("://")
    j = url.find("/", i + 3 if i != -1 else 0)
    return url[j:] if j != -1 else "/"

_ALLOWED_COL = "__allowed"


# per-worker-process VectorRobots cache, keyed on the broadcast ref: the
# matcher's pattern/host index is built once per process per robots
# table, not once per batch (robots_via_actors puts a fresh ref per
# epoch, so the cache is kept small)
_VR_CACHE: dict = {}


def vector_robots_for(robots_ref):
    """Per-worker-process VectorRobots for a broadcast robots ref —
    the pattern/host index is built once per process per robots table
    (shared by mark_robots and the flagship GateAndCap; a per-instance
    cache would rebuild it per task because map_batches re-deserializes
    the callable into every task)."""
    key = robots_ref.hex() if hasattr(robots_ref, "hex") else id(robots_ref)
    vr = _VR_CACHE.get(key)
    if vr is None:
        if len(_VR_CACHE) > 8:
            _VR_CACHE.clear()
        vr = _VR_CACHE[key] = VectorRobots(ray.get(robots_ref))
    return vr


def mark_robots(ds: "ray.data.Dataset", robots_ref) -> "ray.data.Dataset":
    """ONE robots pass: append a boolean ``__allowed`` column using the
    broadcast parsed-robots dict {host: Rules}. Hosts absent from the
    dict are allowed (no robots -> allow-all). Evaluation is the
    vectorized longest-match matcher (VectorRobots — one pass per
    distinct rule pattern, bit-identical to ``allowed()``, equivalence-
    tested in tests/test_robots.py), the same kernel the flagship gate
    uses; the per-row Python loop this replaced cost ~1.5-4 s per crawl
    epoch at 120k pending rows."""

    def gate(batch: pa.Table) -> pa.Table:
        vr = vector_robots_for(robots_ref)
        mask = vr.mask(batch.column("url"), batch.column("host"))
        return batch.append_column(_ALLOWED_COL, pa.array(mask))

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def per_host_topk(
    ds: "ray.data.Dataset",
    budgets_ref,
    n_shards: int = 32,
    default_budget: int = 0,
) -> "ray.data.Dataset":
    """K1: within each host keep the ``budget[host]`` highest-priority rows
    (priority desc, surt asc tie-break). One bucket-keyed shuffle; the
    per-bucket body is vectorized pandas (sort + groupby.cumcount)."""

    def add_shard(batch: pa.Table) -> pa.Table:
        sh = (hash64(batch.column("host")) % np.uint64(n_shards)).astype(
            np.int32
        )
        return batch.append_column(_SHARD_COL, pa.array(sh, pa.int32()))

    def topk(group: pd.DataFrame) -> pd.DataFrame:
        budgets = ray.get(budgets_ref)
        g = group.sort_values(
            ["host", "priority", "surt"], ascending=[True, False, True], kind="mergesort"
        )
        rank = g.groupby("host", sort=False).cumcount()
        cap = g["host"].map(budgets).fillna(default_budget).to_numpy()
        return g[rank.to_numpy() < cap]

    return (
        ds.map_batches(add_shard, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(_SHARD_COL)
        .map_groups(topk, batch_format="pandas")
        .drop_columns([_SHARD_COL])
    )


def global_order(ds: "ray.data.Dataset", epoch_budget: int) -> "ray.data.Dataset":
    """K2: deterministic cross-host schedule order."""
    return ds.sort(["priority", "surt"], descending=[True, False]).limit(epoch_budget)


def _budget_cap_indices(host, priority, surt, budgets, default_budget=0) -> np.ndarray:
    """Row indices surviving the per-host budget cap under
    (priority desc, surt asc) within-host order. Pure index computation:
    callers ``take`` on the Arrow table, so schemas never round-trip
    through pandas."""
    df = pd.DataFrame({"host": host, "priority": priority, "surt": surt})
    g = df.sort_values(
        ["host", "priority", "surt"], ascending=[True, False, True], kind="mergesort"
    )
    rank = g.groupby("host", sort=False).cumcount().to_numpy()
    cap = g["host"].map(budgets).fillna(default_budget).to_numpy()
    return np.sort(g.index.to_numpy()[rank < cap])


def budget_topk_order(
    ds: "ray.data.Dataset",
    budgets_ref,
    epoch_budget: int,
    n_shards: int = 32,
    driver_merge_max: int = 4_000_000,
) -> pa.Table | None:
    """K1+K2 without shuffling the frontier (the crawl loop's handout
    path, mirroring the flagship combiner): each batch keeps its LOCAL
    per-host top-``budget[host]`` (correct because the global per-host
    top-b(h) is a subset of the union of per-batch top-b(h) under the
    same (priority desc, surt asc) order), the budget-capped stream —
    bounded by Σ budgets, ~the epoch batch — merges on the driver for
    the exact cap + deterministic global order + limit. This replaces
    TWO all-to-all exchanges of the allowed frontier (groupby(host
    shard) + full sort) with zero; the driver merge is no new exposure
    because run_epoch pulls the scheduled handout to the driver anyway
    (heroshi's manager assembling one crawl-queue batch).

    Above ``driver_merge_max`` capped rows it falls back to the shuffle
    plan (per_host_topk + global_order), which bounds the driver pull by
    ``epoch_budget``. Returns one Arrow table (or None when nothing is
    schedulable)."""

    def local_cap(batch: pa.Table) -> pa.Table:
        if batch.num_rows == 0:
            return batch
        budgets = ray.get(budgets_ref)
        idx = _budget_cap_indices(
            batch.column("host").to_pandas(),
            batch.column("priority").to_pandas(),
            batch.column("surt").to_pandas(),
            budgets,
        )
        return batch.take(pa.array(idx))

    capped = ds.map_batches(
        local_cap, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()
    if capped.count() > driver_merge_max:
        k1 = per_host_topk(capped, budgets_ref, n_shards=n_shards)
        sched = global_order(k1, epoch_budget)
        blocks = arrow_blocks(sched)
        return (
            pa.concat_tables(blocks, promote_options="none") if blocks else None
        )
    blocks = arrow_blocks(capped)
    if not blocks:
        return None
    merged = pa.concat_tables(blocks, promote_options="none")
    return budget_topk_order_table(merged, ray.get(budgets_ref), epoch_budget)


def budget_topk_order_table(
    tbl: pa.Table, budgets: dict, epoch_budget: int
) -> pa.Table | None:
    """K1+K2 driver kernel on an Arrow table — the exact-cap + global
    order + limit finisher of :func:`budget_topk_order` (identical
    semantics: one _budget_cap_indices pass IS the exact per-host cap,
    the per-batch local_cap round only exists to bound what reaches the
    driver). Used directly by the crawl loop's size-adaptive epoch fork
    where the allowed frontier is already driver-resident."""
    if tbl.num_rows == 0:
        return None
    merged = tbl.combine_chunks()
    idx = _budget_cap_indices(
        merged.column("host").to_pandas(),
        merged.column("priority").to_pandas(),
        merged.column("surt").to_pandas(),
        budgets,
    )
    exact = merged.take(pa.array(idx))
    order = pa.compute.sort_indices(
        exact, sort_keys=[("priority", "descending"), ("surt", "ascending")]
    )
    return exact.take(order.slice(0, epoch_budget))


class VectorRobots:
    """Vectorized robots gate, shared by the crawl loop's mark_robots()
    and the flagship GateAndCap (through vector_robots_for).

    A per-row ``allowed()`` loop is wrong for the headline path that
    streams tens of millions of URLs. This matcher evaluates a broadcast
    {host: Rules} dict with one pass per DISTINCT rule pattern, staying
    in Arrow/polars kernels end-to-end (no Python-string or numpy-U
    materialization — the previous per-host-slice form cost ~0.8 s per
    150k-row block and, under 32-way concurrency on a memory-bound box,
    ~3.5x the whole headline):

    - hosts are dictionary-encoded (Arrow C kernel); rows whose host has
      no rules — the common case — are dropped via one small
      dictionary-level membership lookup before any row-level work;
    - the path component is extracted ONCE per batch with a single RE2
      replace over the rule-hit rows only;
    - plain-prefix rules (the overwhelmingly common robots form) are
      deduplicated ACROSS hosts: each distinct (pattern, is_allow) runs
      one Rust ``starts_with`` over the rule-hit rows, gated by a
      per-dictionary-entry host-membership vector (hosts sharing a
      pattern — ubiquitous in real robots corpora — pay once, not once
      per host);
    - wildcard/'$'-anchored rules fall back to the compiled-regex
      matcher on that host's rows only;
    - longest-match-wins / allow-wins-ties is replayed vectorially with
      (best_len, best_allow) arrays — the update is a commutative
      lexicographic max on (len, allow), so pattern evaluation order
      doesn't matter — bit-identical to ``allowed()``
      (equivalence-tested in tests/test_robots.py).
    """

    _PATH_RX = r"^[A-Za-z][A-Za-z0-9+.-]*://[^/]*"

    def __init__(self, robots: dict[str, "Rules"]):
        # keep only hosts that can deny anything
        self.robots = {h: r for h, r in robots.items() if r[0]}
        # distinct plain-prefix patterns -> the hosts carrying them
        pat_hosts: dict[tuple[str, bool], set] = {}
        rx_rules: dict[str, list] = {}
        for h, r in self.robots.items():
            for pattern, is_allow in r[0]:
                if "*" in pattern or pattern.endswith("$"):
                    rx_rules.setdefault(h, []).append((pattern, is_allow))
                else:
                    pat_hosts.setdefault((pattern, is_allow), set()).add(h)
        # stable order: host -> list of pattern-group ids (one dict-vals
        # scan per batch builds every membership vector)
        self.patterns = list(pat_hosts.keys())
        self.host_groups: dict[str, list[int]] = {}
        for gid, key in enumerate(self.patterns):
            for h in pat_hosts[key]:
                self.host_groups.setdefault(h, []).append(gid)
        self.rx_rules = rx_rules

    def mask(self, urls, hosts) -> np.ndarray:
        """urls/hosts: pyarrow Array/ChunkedArray (zero-copy hot path)
        or any sequence (converted). Returns a bool allow-mask."""
        import pyarrow.compute as pc

        if not isinstance(urls, (pa.Array, pa.ChunkedArray)):
            urls = pa.array(list(urls), pa.string())
        if not isinstance(hosts, (pa.Array, pa.ChunkedArray)):
            hosts = pa.array(list(hosts), pa.string())
        if isinstance(hosts, pa.ChunkedArray):
            hosts = hosts.combine_chunks()
        n = len(urls)
        out = np.ones(n, dtype=bool)
        if not self.robots or n == 0:
            return out

        enc = hosts.dictionary_encode()
        dict_vals = enc.dictionary.to_pylist()
        # dictionary-level (tiny) membership: which encoded hosts carry
        # rules at all, and which pattern groups each belongs to
        n_dict, n_grp = len(dict_vals), len(self.patterns)
        grp_m = np.zeros((n_grp, n_dict), dtype=bool) if n_grp else None
        any_rule = np.zeros(n_dict, dtype=bool)
        rx_pos: list[tuple[int, list]] = []
        for di, v in enumerate(dict_vals):
            if v not in self.robots:
                continue
            any_rule[di] = True
            for gid in self.host_groups.get(v, ()):
                grp_m[gid, di] = True
            rr = self.rx_rules.get(v)
            if rr:
                rx_pos.append((di, rr))
        codes = enc.indices.to_numpy(zero_copy_only=False)
        sel = np.flatnonzero(any_rule[codes])
        if len(sel) == 0:
            return out

        import polars as pl

        usel = pc.take(
            urls.combine_chunks() if isinstance(urls, pa.ChunkedArray) else urls,
            pa.array(sel),
        )
        p = pl.from_arrow(usel).str.replace(self._PATH_RX, "")
        empty = (p.str.len_bytes() == 0) | p.is_null()
        if empty.any():
            p = p.zip_with(~empty, pl.Series(["/"] * len(p)))

        sub = codes[sel]
        best_len = np.full(len(sel), -1, dtype=np.int64)
        best_allow = np.ones(len(sel), dtype=bool)

        def upd(m: np.ndarray, plen: int, is_allow: bool) -> None:
            u = m & (
                (plen > best_len)
                | ((plen == best_len) & is_allow & ~best_allow)
            )
            best_len[u] = plen
            best_allow[u] = is_allow

        for gid, (pattern, is_allow) in enumerate(self.patterns):
            hm = grp_m[gid][sub]
            if not hm.any():
                continue
            sw = p.str.starts_with(pattern).fill_null(False).to_numpy()
            upd(sw & hm, len(pattern), is_allow)
        if rx_pos:
            from ..functions.robots import _rule_re

            p_py = p.to_list()  # regex fallback only: rare rule shape
            for di, rr in rx_pos:
                rows = np.flatnonzero(sub == di)
                if len(rows) == 0:
                    continue
                for pattern, is_allow in rr:
                    rx = _rule_re(pattern)
                    m = np.zeros(len(sel), dtype=bool)
                    m[rows] = np.fromiter(
                        (rx.match(p_py[i]) is not None for i in rows),
                        dtype=bool,
                        count=len(rows),
                    )
                    upd(m, len(pattern), is_allow)
        out[sel] = best_allow
        return out
