"""The flagship frontier-schedule pipeline (the BASELINE.json:2 metric
path): canonicalize -> exact dedup -> cuckoo seen-filter -> per-host
politeness cap -> deterministic global order.

Throughput metric = URLs pushed through this path per second
("URLs scheduled+deduped/sec"). The input is a frontier-shaped table;
``synth_frontier_from_sf`` derives one deterministically from the
driver's lineitem table (no external data), with Zipf-ish host skew from
the supplier key and ~8% duplicate URLs so the dedup stages do real work.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa

import ray
import ray.data

from ..functions.hashing import assert_uniform_hashing
from ..runtime import arrow_blocks
from ..stages.canonicalize import canonicalize_dataset
from ..state.seen import SeenSet


def synth_frontier_from_sf(
    sf_dir: str, expand: int = 1, num_blocks: int | None = None,
    with_depth: bool = False,
) -> "ray.data.Dataset":
    """lineitem rows -> URL candidates. Hosts come from l_suppkey (skewed:
    supplier activity is not uniform), paths from order/line keys;
    duplicate URLs arise naturally when (suppkey, orderkey, linenumber)
    repeats noise variants. Deterministic, derived only from sf tables.

    ``expand`` emits that many URL variants per row (scale model: the
    bench needs enough rows that every worker has real work — at sf0.1
    lineitem is only 600k rows / ~30 MB). ``num_blocks`` pins the block
    count so shuffle fan-out stays proportional to workers, not to the
    row count (the too-many-tiny-blocks pitfall). ``with_depth`` adds a
    ``depth`` column = (l_orderkey + l_linenumber) % 37 — a pure function
    of the canonical path, so every noise variant of a URL carries the
    same depth (the flagship's DuckDB oracle twin recomputes it in SQL;
    37 classes keep per-(host, depth) counts small enough that the
    per-host budget boundary lands MID-CLASS at the driver's sf, which
    is what makes the window-function twin a real test).

    String building is all-polars (pl.format): this synthesis sits
    inside every headline/scaling measurement, and the per-row f-string
    loop it replaces taxed each 100k-row block ~6x (same profile as
    q_trap_detect's to_keys)."""
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_linenumber", "l_partkey"],
        override_num_blocks=num_blocks,
    )

    def to_urls(batch: pa.Table) -> pa.Table:
        import polars as pl

        d = pl.from_arrow(batch)
        if expand > 1:
            # v varies fastest, matching the per-row inner loop order
            d = d.with_columns(
                pl.lit(list(range(expand)), dtype=pl.List(pl.Int64)).alias("__v")
            ).explode("__v")
        # skew: fold suppliers into a few hot hosts + a long tail
        hostid = (
            pl.when(pl.col("l_suppkey") % 7 == 0)
            .then(pl.lit(0, dtype=pl.Int64))
            .otherwise(pl.col("l_suppkey").cast(pl.Int64) % 97)
        )
        h = pl.format("host{}.example", hostid)
        path = (
            pl.format(
                "/o/{}/l/{}/v/{}",
                pl.col("l_orderkey"), pl.col("l_linenumber"), pl.col("__v"),
            )
            if expand > 1
            else pl.format("/o/{}/l/{}", pl.col("l_orderkey"), pl.col("l_linenumber"))
        )
        # noise variants exercise the canonicalizer (collapse to one URL)
        style = pl.col("l_partkey") % 4
        url = (
            pl.when(style == 0)
            .then(pl.format("http://{}{}", h, path))
            .when(style == 1)
            .then(pl.format("HTTP://{}:80{}", h.str.to_uppercase(), path))
            .when(style == 2)
            .then(pl.format("http://{}/x/..{}#frag", h, path))
            .otherwise(pl.format("http://{}/.{}", h, path))
        )
        cols = [url.alias("url")]
        if with_depth:
            cols.append(
                ((pl.col("l_orderkey") + pl.col("l_linenumber")) % 37)
                .cast(pl.Int32)
                .alias("depth")
            )
        out = d.select(cols).to_arrow()
        # downstream stages expect utf8 (not polars' large_utf8)
        return pa.table(
            {c: out.column(c).cast(pa.string()) if out.schema.field(c).type
             in (pa.large_string(),) else out.column(c) for c in out.column_names}
        )

    return ds.map_batches(to_urls, batch_format="pyarrow", zero_copy_batch=True)


def _local_topk(hh, prio, sh, budget):
    """Indices of per-host top-``budget`` rows under
    (host, priority desc, surt-hash asc) — pure numpy lexsort on ints."""
    o = np.lexsort((sh, -prio, hh))
    hs = hh[o]
    start = np.empty(len(o), dtype=bool)
    start[0] = True
    np.not_equal(hs[1:], hs[:-1], out=start[1:])
    idx_all = np.arange(len(o))
    rank = idx_all - np.maximum.accumulate(np.where(start, idx_all, 0))
    return o[rank < budget]


class GateAndCap:
    """Actor-pool combiner stage (A-SEEN router + K1 partial, SURVEY.md
    §2.3): in-batch exact dedup by surt-hash -> cuckoo test-and-set RPC
    against the resident shard pool (GLOBAL exact dedup: equal keys route
    to one shard, exactly one caller wins) -> local per-host top-budget
    cap. Runs fused with the canonicalizer as plain tasks; the shard
    RPC wait uses non-blocking ray.wait polling (see __call__) because a
    task that blocks in ray.get releases its CPU slot and the raylet
    backfills it with a fresh worker process — an import storm with 2-6x
    wall-time variance. bench.py additionally raises the raylet
    worker-pool keepalive env knobs."""

    def __init__(self, shards, n_buckets: int, per_host_budget: int, robots_ref=None):
        self.shards = shards
        self.n_shards = len(shards)
        self.n_buckets = n_buckets
        self.budget = per_host_budget
        self.robots_ref = robots_ref

    @staticmethod
    def _empty_out(batch: pa.Table) -> pa.Table:
        """Empty table in the GATE OUTPUT schema — returning the input
        schema from an all-filtered block produced mixed-schema
        datasets and crashed the downstream __hs groupby (reproduced
        in review)."""
        out = batch.select(["url", "surt", "host", "priority", "depth"]).slice(0, 0)
        out = out.append_column("__sh", pa.array([], pa.int64()))
        out = out.append_column("__hh", pa.array([], pa.int64()))
        return out.append_column("__hs", pa.array([], pa.int32()))

    def __call__(self, batch: pa.Table) -> pa.Table:
        from ..functions.hashing import hash64

        if self.robots_ref is not None and batch.num_rows:
            # J2 fused into the gate: vectorized longest-match robots
            # check (VectorRobots — per rule-bearing host, not per row).
            # Denied rows drop BEFORE the seen-set RPC, so they neither
            # consume cuckoo capacity nor count as scheduled; a later
            # robots change can re-admit them (matches the crawl loop,
            # which re-gates every epoch).
            # per-worker-process cache keyed on the broadcast ref: a
            # per-instance cache is useless here because map_batches
            # re-deserializes this callable into every task, which
            # rebuilt the pattern/host index once per BLOCK
            from ..stages.schedule import vector_robots_for

            vr = vector_robots_for(self.robots_ref)
            # Arrow columns go straight in — no numpy-object
            # materialization of 150k urls/hosts per block
            m = vr.mask(batch.column("url"), batch.column("host"))
            if not m.all():
                batch = batch.filter(pa.array(m))
        n = batch.num_rows
        if n == 0:
            return self._empty_out(batch)
        sh = hash64(batch.column("surt"))
        hh = hash64(batch.column("host"))
        keep = np.sort(np.unique(sh, return_index=True)[1])  # in-batch dedup
        # shared routing/token/scatter core (state.seen); poll=True keeps
        # this task's CPU slot held during the shard RPC (raylet would
        # otherwise backfill it with a fresh worker — import storm)
        from ..state.seen import SeenSet as _SS

        mask = _SS.check_and_add_keys(self.shards, sh[keep], poll=True)
        keep = keep[mask]
        if len(keep) == 0:
            return self._empty_out(batch)
        prio = batch.column("priority").to_numpy(zero_copy_only=False)[keep]
        sel = np.sort(keep[_local_topk(hh[keep], prio, sh[keep], self.budget)])
        # budget-capped rows travel to the merge with only the columns the
        # handout needs (heroshi's queue batch is url-level, not row-level)
        out = batch.select(["url", "surt", "host", "priority", "depth"]).take(
            pa.array(sel)
        )
        out = out.append_column("__sh", pa.array(sh[sel].view(np.int64), pa.int64()))
        out = out.append_column("__hh", pa.array(hh[sel].view(np.int64), pa.int64()))
        return out.append_column(
            "__hs",
            pa.array((hh[sel] % np.uint64(self.n_buckets)).astype(np.int32), pa.int32()),
        )


def fused_schedule_pipeline(
    urls: "ray.data.Dataset",
    *,
    per_host_budget: int = 64,
    epoch_budget: int = 100_000,
    n_seen_shards: int = 8,
    seen_capacity: int = 1 << 22,
    n_buckets: int = 32,
    seen: SeenSet | None = None,
    driver_merge_max: int = 4_000_000,
    robots: dict | None = None,
    depth_col: str | None = None,
):
    """Combiner-style schedule path — the full frontier NEVER shuffles:

        canon (map, vectorized)
          -> gate_and_cap (map): in-batch dedup by surt-hash
             -> cuckoo test-and-set RPC (GLOBAL exact dedup: equal keys
                route to one shard actor, exactly one caller wins)
             -> local per-host top-budget cap        [combiner]
          -> groupby(hash(host)%P) over SURVIVORS ONLY (<= hosts*budget
             rows per input block) -> exact global per-host top-budget
          -> global sort + limit (tiny)

    vs the textbook plan (full-size dedup shuffle on surt + full-size
    topk shuffle on host): the only all-to-all exchange here moves the
    budget-capped stream, ~1000x smaller than the frontier. Correct
    because global-top-k per host is a subset of the union of per-batch
    top-ks, and the cuckoo test-and-set is itself an exact global dedup
    (dedup tie-break = arrival order; the crawl engine proper uses
    stages.dedup D1 when deterministic lineage matters — SURVEY.md §2.7).
    All sorting is numpy lexsort on precomputed int64 hashes; no string
    sorts anywhere in the hot path.

    SEMANTICS NOTE (single-epoch scheduler): admission to the seen set
    happens at the gate, BEFORE the per-host budget cap — i.e. "seen" =
    "admitted to this handout's candidate pool", and budget-capped rows
    are dropped, not deferred. This is the right contract for the
    BASELINE metric (URLs scheduled+deduped per second, one handout)
    but it means a persistent ``seen=`` pool reused across calls will
    never re-admit rows capped in an earlier call. The multi-epoch
    crawl engine (pipelines.crawl.run_epoch) has the deferring
    semantics: its frontier KEEPS politeness-capped rows pending, and
    the seen set gates only new-candidate admission.
    """
    # Fail fast if worker polars versions diverge (hash64 routing would
    # silently split seen-set shards). Cached after the first pass.
    assert_uniform_hashing()
    own_seen = seen is None
    if seen is None:
        seen = SeenSet(n_seen_shards, seen_capacity)
    try:
        cand = canonicalize_dataset(urls, depth_col=depth_col)

        def final_topk(g: pa.Table) -> pa.Table:
            """Exact global per-host top-budget over the capped stream."""
            if g.num_rows == 0:
                return g
            hh = g.column("__hh").to_numpy(zero_copy_only=False).view(np.uint64)
            sh = g.column("__sh").to_numpy(zero_copy_only=False).view(np.uint64)
            prio = g.column("priority").to_numpy(zero_copy_only=False)
            sel = np.sort(_local_topk(hh, prio, sh, per_host_budget))
            return g.take(pa.array(sel))

        # Task-based gate (one fused operator with the canonicalizer, no
        # extra object-store hop). The mid-task shard ray.get makes the
        # raylet backfill the blocked slot with a fresh worker; run under
        # RAY_num_workers_soft_limit / RAY_idle_worker_killing_time_threshold_ms
        # raised (bench.py sets them) so those backfill workers stay warm
        # instead of respawning + re-importing for every block.
        robots_ref = ray.put(robots) if robots else None
        gate = GateAndCap(seen.shards, n_buckets, per_host_budget, robots_ref)
        # materialize = the gate's side effects (cuckoo inserts) execute
        # EXACTLY once; every downstream consumer reads the pinned blocks
        capped = cand.map_batches(
            gate, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
        total = capped.count()
        if total > driver_merge_max:
            # Spill path: the capped stream outgrew the driver's handout
            # bound (many hosts x large budget) — same exact semantics as
            # the driver merge, as Ray shuffles: groupby(__hs) co-locates
            # every row of a host for the exact per-host top-budget, then
            # one (bounded-input) sort + limit for the global order.
            topped = capped.groupby("__hs").map_groups(
                final_topk, batch_format="pyarrow"
            )

            def add_biased(b: pa.Table) -> pa.Table:
                # the driver merge orders __sh as UNSIGNED 64-bit; a
                # ds.sort on the int64 view would order negatives first
                # and select a DIFFERENT epoch_budget subset (reproduced
                # in review). Flipping the top bit maps uint64 order
                # onto int64 order exactly.
                sh = b.column("__sh").to_numpy(zero_copy_only=False).view(np.uint64)
                return b.append_column(
                    "__shb",
                    pa.array((sh ^ np.uint64(1 << 63)).view(np.int64), pa.int64()),
                )

            ordered = (
                topped.map_batches(add_biased, batch_format="pyarrow")
                .sort(["priority", "__shb"], descending=[True, False])
                .limit(epoch_budget)
            )
            return ordered.drop_columns(["__sh", "__hh", "__hs", "__shb"])
        # Final merge on the driver — this is heroshi's manager assembling
        # one crawl-queue handout: the input here is the budget-capped
        # stream (<= hosts x budget rows per block), NOT the frontier, and
        # the epoch batch is bounded by design (and checked above). An
        # all-to-all shuffle for a bounded, driver-owned batch costs more
        # than it buys.
        blocks = arrow_blocks(capped)
        if not blocks:
            return capped.drop_columns(["__sh", "__hh", "__hs"])
        merged = pa.concat_tables(blocks, promote_options="none")
        out = final_topk(merged)
        prio = out.column("priority").to_numpy(zero_copy_only=False)
        sh = out.column("__sh").to_numpy(zero_copy_only=False).view(np.uint64)
        order = np.lexsort((sh, -prio))[:epoch_budget]  # K2: deterministic
        out = out.take(pa.array(order)).drop_columns(["__sh", "__hh", "__hs"])
        return ray.data.from_arrow(out)
    finally:
        if own_seen:
            seen.shutdown()


def synth_robots(n_hosts: int = 97) -> dict:
    """Deterministic parsed-robots dict for the synthetic hosts, so the
    flagship covers the FULL BASELINE.json:6 gate semantics (seen +
    politeness + robots), not just seen+politeness. Mix of shapes:
    plain-prefix Disallow, longest-match Allow override, crawl-delay
    only, and allow-all hosts absent from the dict (the common case,
    skipped whole by VectorRobots). Built from robots.txt TEXT through
    the real parser — the same code path a fetched robots body takes."""
    from ..functions.robots import parse_robots

    robots = {}
    for k in range(n_hosts):
        if k == 0:  # the hot host: denies one orderkey-prefix shard
            body = "User-agent: *\nDisallow: /o/9\nCrawl-delay: 2\n"
        elif k % 4 == 1:
            body = "User-agent: *\nDisallow: /o/1\n"
        elif k % 4 == 2:
            body = "User-agent: *\nDisallow: /o/2\nAllow: /o/22\n"
        else:
            continue  # allow-all: absent from the dict
        robots[f"host{k}.example"] = parse_robots(body)
    return robots


def frontier_schedule_counts(
    sf_dir: str, per_host_budget: int = 16
) -> pa.Table:
    """Driver-trust twin of the FLAGSHIP schedule (VERDICT r4 item 1):
    runs the real fused pipeline — canonicalize -> robots gate -> cuckoo
    seen-dedup -> per-host top-budget -> global order — over the synth
    frontier WITH a depth column, then projects the handout to
    (host, depth, n) counts.

    Why counts, not rows: with default inputs every candidate has
    depth 0, so the per-host top-k tie-breaks entirely on surt-hash64
    (polars xxhash) — not SQL-expressible. With depth = (ok + ln) % 37
    the priority ladder (1 / (1 + depth)) is real, and the SET of
    scheduled rows per (host, priority-class) is uniquely determined by
    the budget even though WHICH rows win inside the boundary class
    stays hash-chosen: top-budget-by-priority takes whole classes in
    depth order plus a deterministic partial count at the boundary.
    A DuckDB ROW_NUMBER() OVER (PARTITION BY host ORDER BY depth) twin
    reproduces exactly these counts, so a green row certifies the
    canonicalizer collapse, robots longest-match gate, global exact
    dedup, and the per-host budget arithmetic of the flagship path in
    one driver check. epoch_budget is set non-binding (97 hosts x
    budget rows total). The global cut is checked elsewhere:
    ``test_fused_schedule``'s ``epoch_budget=3`` case, and the
    ``handout-catchup`` benchmark reference, whose epoch limit binds
    (``perfbench/reference.py``).

    The handout is bounded by design (hosts x budget); the final
    projection groups it with one polars pass on the driver, exactly
    like the fused pipeline's own driver merge."""
    import polars as pl

    out = fused_schedule_pipeline(
        synth_frontier_from_sf(sf_dir, with_depth=True),
        per_host_budget=per_host_budget,
        epoch_budget=1 << 40,
        robots=synth_robots(),
        depth_col="depth",
    )
    blocks = arrow_blocks(out.materialize())
    tbl = pa.concat_tables(blocks, promote_options="none")
    g = (
        pl.from_arrow(tbl.select(["host", "depth"]))
        .group_by(["host", "depth"])
        .len()
        .sort(["host", "depth"])
    )
    return pa.table(
        {
            "host": g["host"].to_arrow().cast(pa.string()),
            "depth": g["depth"].to_arrow().cast(pa.int32()),
            "n": g["len"].to_arrow().cast(pa.int64()),
        }
    )


def run_flagship(sf_dir: str, **kwargs):
    """entry()'s flagship: synth frontier from sf tables -> fused schedule
    (the zero-frontier-shuffle path benchmarked in BASELINE.md), with the
    synthetic robots rules applied in the gate (headline covers the full
    seen+politeness+robots semantics)."""
    kwargs.setdefault("robots", synth_robots())
    return fused_schedule_pipeline(synth_frontier_from_sf(sf_dir), **kwargs)
