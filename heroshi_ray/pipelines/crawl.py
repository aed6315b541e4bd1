"""The crawl epoch loop — SURVEY.md §3.2, the flagship pipeline.

Heroshi's manager hands out crawl-queue batches and merges fetch
reports ([UPSTREAM-M], reference unavailable); here the same semantics
run as a sequence of discrete epochs:

    read_frontier  (partitioned by host_shard)
      -> robots gate (J2: broadcast parsed-robots, no shuffle)
      -> per-host top-budget (K1) + global order (K2: priority desc,
         surt asc, limit) — a zero-shuffle combiner
      -> fetch (A-F) -> FusedExtractor (X1 links + captions, M8+M9
         image rows) on each fetched batch, in the same task
         [barrier 1: one materialize]
      -> one per-block summary task round: fetch log, redirects,
         captions, failures/retries and link counts reach the driver;
         image bytes and HTML bodies do not
      -> image rows -> caption attach -> corpus write  [barrier 2]
      -> canonicalize (fused M1-M3) -> exact dedup (D1) -> seen-set
         gate (J1)
      -> new frontier = (pending - scheduled) ∪ admitted ∪ retries
      -> atomic checkpoint (frontier, seen shards, politeness, counters,
         metrics row, manifest) — the resume point.

Under ``frontier_driver_max`` an epoch starts two Ray Data executions,
the two barriers: barrier 2 reads the captions sink, which holds this
epoch's captions only after barrier 1. Everything between them is
driver work on epoch-scale tables. Above the bound the robots gate,
admission and frontier assembly run as streaming plans instead.

Scale notes (10^10-URL frontier):
- the frontier itself only ever streams: read_parquet -> map_batches
  masks -> write_parquet; nothing frontier-sized is materialized.
- the *epoch batch* (scheduled ∪ fetched) is bounded by the politeness
  budget — that is the unit pinned in the object store
  (``.materialize()``), never pulled to the driver with bodies.
- driver-side state is O(hosts-this-epoch) (budgets) and
  O(epoch batch) (fetch log, captions, redirects of this epoch):
  nothing cumulative. The caption store and admitted log are
  append-only parquet sinks; captions attach to corpus rows through a
  broadcast first-wins dict under ``caption_broadcast_max`` sink rows
  and a distributed hash join above it.
- redirects: the fetcher chases 3xx chains itself (bounded hops); the
  discovered URLs run through canonicalize and are MARKED seen so they
  are never re-fetched as links, but are not enqueued (their content
  arrived under the scheduled URL) — heroshi io-worker semantics.
- seen-gate admission and counters increments are idempotent under Ray
  task retries (content-digest replay tokens; see state/seen.py).
- false positives of the seen filter (~1.2e-4) skip a URL, never
  double-fetch it — bounded loss, crawl-safe.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import ray
import ray.data

from ..functions.robots import ALLOW_ALL, crawl_delay, parse_robots
from ..schemas import (
    CORPUS, FRONTIER, METRICS, STATE_FAILED, STATE_PENDING, STATE_ROBOTS_DENIED,
)
from ..sources.io import (
    append_epoch_table,
    frontier_row_count,
    commit_manifest,
    empty_frontier,
    epoch_dir,
    latest_committed_epoch,
    read_epoch_tables,
    read_frontier,
    read_frontier_table,
    read_seeds,
    write_epoch_dataset,
    write_epoch_table,
    write_frontier,
    write_frontier_table,
)
from ..stages.canonicalize import canonicalize_dataset
from ..stages.dedup import dedup_first
from ..stages.extract import IMAGE_FIELDS, LINKS_SCHEMA, FusedExtractor
from ..stages.fetch import fetch_dataset
from ..stages.schedule import (
    _ALLOWED_COL,
    budget_topk_order,
    budget_topk_order_table,
    mark_robots,
    vector_robots_for,
)
from ..runtime import task_stage
from ..state.politeness import PolitenessPool
from ..state.seen import SeenSet


@ray.remote
def _gate_block_summary(block: pa.Table):
    """One task per materialized gated block: (denied rows, allowed
    distinct hosts). Replaces TWO full Dataset executions (the denied
    filter and the distinct-hosts pass) with one task round — both
    outputs are driver-bound trickles by design (robots denials are
    rare; the host domain is bounded because politeness state is
    per-host), so the Dataset machinery bought nothing but its ~1 s
    fixed cost each, twice per epoch."""
    if block.num_rows == 0 or _ALLOWED_COL not in block.column_names:
        # zero-row blocks can arrive schema-less from the executor
        return FRONTIER.empty_table(), []
    m = block.column(_ALLOWED_COL)
    denied = block.filter(pc.invert(m)).drop_columns([_ALLOWED_COL])
    hosts = pc.unique(block.filter(m).column("host")).to_pylist()
    return denied, hosts


_IMAGE_ROWS = CORPUS.append(pa.field("url", pa.string()))


def _ipc(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream: a task returns it in about half
    the time a pickled pa.Table takes (a few ms per task round)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


@ray.remote(num_returns=2)
def _extract_block_summary(block: pa.Table):
    """One task per materialized FusedExtractor block ->
    ((fetch-log rows, captioned link rows, link count, image count),
    link rows); the two tables of the first as ``_ipc`` streams.
    Replaces the fetch-log write, redirect, caption and failure passes
    (four Dataset executions) with one task round; no image bytes reach
    the driver, and the link rows come back as their own object, pulled
    only when the epoch's admission runs driver-side."""
    if block.num_rows == 0 or "links" not in block.column_names:
        # zero-row blocks can arrive schema-less from the executor
        return (None, None, 0, 0), LINKS_SCHEMA.empty_table()
    links = pa.Table.from_struct_array(
        pc.list_flatten(block.column("links").combine_chunks())
    )
    caps = links.filter(pc.not_equal(links.column("caption"), "")).select(
        ["url", "caption"]
    )
    n_images = block.num_rows - block.column("image_id").null_count
    log = block.drop_columns(["links", *IMAGE_FIELDS])
    return (_ipc(log), _ipc(caps), links.num_rows, n_images), links


def _image_rows(batch: pa.Table) -> pa.Table:
    """FusedExtractor rows -> CORPUS rows (+ the ``url`` join key) of the
    decodable images; the caption is attached by ``_attach_captions``."""
    if batch.num_rows == 0 or "image_id" not in batch.column_names:
        return _IMAGE_ROWS.empty_table()
    b = batch.filter(pc.is_valid(batch.column("image_id")))
    cols = {f: b.column(f) for f in IMAGE_FIELDS}
    cols["caption"] = pa.array([""] * b.num_rows, pa.string())
    # ImageRowBuilder keys image rows on the URL that served them
    cols["url"] = b.column("final_url")
    return pa.table(cols).select(_IMAGE_ROWS.names).cast(_IMAGE_ROWS)


def _distinct_hosts(ds: "ray.data.Dataset") -> list[str]:
    """Distinct hosts without a groupby shuffle: per-block pc.unique +
    driver set-union. The host domain is bounded (politeness state is
    per-host by design), so the driver sees <= blocks x hosts tiny rows;
    a full unique() here costs a ~1-2 s all-to-all per epoch for the
    same answer."""
    parts = ds.map_batches(
        lambda b: pa.table({"host": pc.unique(b.column("host"))}),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas()
    return sorted(set(parts["host"]))


@dataclass
class CrawlConfig:
    epoch_budget: int = 96          # K2 global cap per epoch
    epoch_seconds: float = 6.0      # simulated wall time per epoch
    burst: float = 5.0              # token-bucket burst per host
    max_epochs: int = 64
    max_retries: int = 2
    n_seen_shards: int = 4
    seen_capacity: int = 1 << 18
    n_pol_shards: int = 2
    n_buckets: int = 16             # D1 dedup buckets (shuffle width)
    n_host_shards: int = 8          # frontier partition key domain
    fetch_concurrency: int = 2
    fetch_batch_size: int = 64
    ua: str = "heroshi-ray"
    retry_priority_decay: float = 0.5
    max_depth: int = 64
    robots_via_actors: bool = False  # A-R shard pool instead of driver broadcast
    n_robots_shards: int = 2
    # physical plan for the epoch's fetch and FusedExtractor stages:
    # "actors" = one fetch actor pool and one extract actor pool per
    # epoch (the 100-TB plan: isolation, autoscaling, per-stage
    # num_cpus), "tasks" = the same callables cached per worker process
    # and fused into one task per fetched batch (runtime.task_stage —
    # saves the ~1-1.7 s/pool actor spin-up that dominates SMALL
    # epochs), "auto" = tasks when the epoch batch <= actor_cutover.
    stateful_mode: str = "auto"
    actor_cutover: int = 100_000
    # caption attach: broadcast-dict probe under this many caption-sink
    # rows (first-wins dict ~100 B/row), distributed hash join above
    caption_broadcast_max: int = 500_000
    # seed bootstrap: driver-side fast path for seed files up to this
    # size (~1M URLs); the streaming plan above it
    seed_driver_max_bytes: int = 64 << 20
    # frontier write: assemble + write the next epoch's frontier on the
    # driver when (gated rows + admitted rows) fit under this bound
    # (~100 B/row; the pieces are all epoch-scale and already
    # materialized) — a distributed write of a few-MB table costs a
    # full plan launch. The streaming union+write runs above the bound.
    frontier_driver_max: int = 2_000_000
    # extension hooks (SURVEY.md §2.9) — batch-level, cloudpickle-shipped
    url_filter: object = None       # fn(urls, hosts, depth) -> bool mask
    priority_fn: object = None      # fn(depth array) -> float array
    # A-F fetcher selection: None = SyntheticFetcher over the pages
    # fixture; pass stages.fetch.HttpFetcher (+ kwargs: resolve_to,
    # max_per_host, timeout_s, ...) for a live HTTP crawl
    fetcher_cls: object = None
    fetcher_kwargs: dict = None


@dataclass
class CrawlReport:
    epochs_run: int = 0
    urls_scheduled: int = 0
    urls_admitted: int = 0
    fetch_ok: int = 0
    fetch_err: int = 0
    robots_denied: int = 0
    wall_s: float = 0.0
    metrics: list = field(default_factory=list)


class Crawler:
    """Driver-side orchestrator. All heavy state lives in actor pools
    (seen shards, politeness shards) or parquet checkpoints — the driver
    holds only broadcast handles and small dicts."""

    def __init__(self, fixture_paths: dict, workdir: str, cfg: CrawlConfig | None = None):
        self.cfg = cfg or CrawlConfig()
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.paths = fixture_paths

        # broadcast small sides ONCE (ray.put; read per actor/task, never per batch)
        pages_tbl = pq.read_table(fixture_paths["pages"])
        # ship the Arrow table (zero-copy put); each fetch worker builds
        # its url->row dict once (SyntheticFetcher handles both forms)
        self.pages_ref = ray.put(pages_tbl)
        robots_tbl = pq.read_table(fixture_paths["robots"])
        self.robots: dict = {}
        for h, b, s in zip(
            robots_tbl.column("host").to_pylist(),
            robots_tbl.column("robots_body").to_pylist(),
            robots_tbl.column("status").to_pylist(),
        ):
            self.robots[h] = parse_robots(b, status=s, ua=self.cfg.ua)
        self.robots_ref = ray.put(self.robots)

        self.robots_cache = None
        if self.cfg.robots_via_actors:
            from ..state.robotscache import RobotsCache

            fetch_table = {
                h: (b, s)
                for h, b, s in zip(
                    robots_tbl.column("host").to_pylist(),
                    robots_tbl.column("robots_body").to_pylist(),
                    robots_tbl.column("status").to_pylist(),
                )
            }
            self.robots_cache = RobotsCache(
                fetch_table, n_shards=self.cfg.n_robots_shards, ua=self.cfg.ua
            )

        self.seen = SeenSet(self.cfg.n_seen_shards, self.cfg.seen_capacity)
        self.pol = PolitenessPool(
            self.cfg.n_pol_shards, self.cfg.epoch_seconds, self.cfg.burst
        )
        from ..state.counters import CountersActor

        self.counters = CountersActor.remote()

    # ------------------------------------------------------------------
    def _now_us(self, epoch: int) -> int:
        return int(epoch * self.cfg.epoch_seconds * 1e6)

    def seed(self) -> int:
        """Bootstrap epoch 0 frontier from the seed list (SURVEY.md §3.1).

        Small seed files (the overwhelmingly common case — seed lists are
        curated inputs, not crawl output) take a driver-side fast path
        through the SAME kernels (canonicalize_candidates, the
        dedup_first tie-break, the seen pool's routed test-and-set): the
        streaming path costs three Dataset executions of pure fixed
        overhead (~8-10 s) for a few thousand rows. Above
        ``seed_driver_max_bytes`` the original streaming plan runs —
        identical semantics, golden-tested."""
        cfg = self.cfg
        try:
            small = (
                os.path.getsize(self.paths["seeds"]) <= cfg.seed_driver_max_bytes
            )
        except OSError:
            small = False
        if small:
            from ..stages.canonicalize import canonicalize_candidates
            from ..stages.dedup import _first_per_key

            with open(self.paths["seeds"]) as f:
                urls = [ln.rstrip("\r\n") for ln in f if ln.strip()]
            cand = canonicalize_candidates(
                pa.table({"url": pa.array(urls, pa.string())}),
                now_us=self._now_us(0), epoch=0,
                url_filter=cfg.url_filter, priority_fn=cfg.priority_fn,
            )
            df = _first_per_key(cand.to_pandas(), "surt", ["depth", "parent_surt"])
            mask = self.seen.check_and_add(df["surt"].tolist())
            adm = pa.Table.from_pandas(df[mask], preserve_index=False)
            adm = adm.select(FRONTIER.names).cast(FRONTIER)
            # the table is already driver-resident: write it directly
            # (a distributed write here is a plan launch for nothing)
            write_frontier_table(adm, self.workdir, 0, cfg.n_host_shards)
        else:
            seeds = read_seeds(self.paths["seeds"])
            cand = canonicalize_dataset(
                seeds, now_us=self._now_us(0), epoch=0,
                url_filter=cfg.url_filter, priority_fn=cfg.priority_fn,
            )
            cand = dedup_first(cand, n_buckets=cfg.n_buckets)
            admitted = self.seen.filter_new(cand)
            write_frontier(admitted, self.workdir, 0, cfg.n_host_shards)
        n = frontier_row_count(self.workdir, 0)
        self._save_state(0, {"pending": n, "phase": "seeded"})
        return n

    # ------------------------------------------------------------------
    def _save_state(
        self, epoch: int, info: dict, metrics: dict | None = None, t0: float = 0.0
    ) -> None:
        """Commit epoch ``epoch``'s state. ``metrics`` is the finished
        epoch's row, and ``t0`` the ``time.time()`` its epoch started at:
        the row gains its wall time up to the end of the seen-set
        snapshot and the snapshot's gauges, and is written to the
        ``metrics`` table before the manifest commits."""
        d = epoch_dir(self.workdir, epoch)
        os.makedirs(d, exist_ok=True)
        shards = self.seen.save(d, epoch)
        if metrics is not None:
            metrics["wall_ms"] = (time.time() - t0) * 1000
            metrics["seen_keys"] = sum(s["count"] for s in shards)
            metrics["seen_load_max"] = max(s["load_factor"] for s in shards)
            append_epoch_table(
                pa.Table.from_pylist([metrics], schema=METRICS),
                self.workdir, "metrics", metrics["epoch"],
            )
        import json

        with open(os.path.join(d, "politeness.json"), "w") as f:
            json.dump(self.pol.state(), f)
        # counters are part of the commit: a resumed run's totals must be
        # indistinguishable from an uninterrupted one
        with open(os.path.join(d, "counters.json"), "w") as f:
            json.dump(ray.get(self.counters.snapshot.remote()), f)
        commit_manifest(self.workdir, epoch, info)

    def _load_state(self, epoch: int) -> None:
        d = epoch_dir(self.workdir, epoch)
        self.seen.load(d, epoch)
        import json

        with open(os.path.join(d, "politeness.json")) as f:
            self.pol.load_state(json.load(f))
        cpath = os.path.join(d, "counters.json")
        if os.path.exists(cpath):
            with open(cpath) as f:
                ray.get(self.counters.restore.remote(json.load(f)))

    # ------------------------------------------------------------------
    def run_epoch(self, e: int, report: CrawlReport) -> int:
        cfg = self.cfg
        now_s = e * cfg.epoch_seconds
        now_us = self._now_us(e)
        t0 = time.time()

        # size-adaptive epoch fork: under ``frontier_driver_max`` pending
        # rows (parquet footers — no read) the robots gate, politeness
        # host scan and K1+K2 handout all run driver-side through the
        # SAME kernels (VectorRobots.mask, budget_topk_order's exact-cap
        # finisher); the fetch/extract stages stay distributed either
        # way (they are the real work). Above the bound every stage is
        # the original streaming plan. Forks golden-equivalence-tested.
        drv = frontier_row_count(self.workdir, e) <= cfg.frontier_driver_max
        pending = None if drv else read_frontier(self.workdir, e)
        pend_tbl = read_frontier_table(self.workdir, e) if drv else None
        ok0, err0 = report.fetch_ok, report.fetch_err  # per-epoch metric deltas

        # crash-resume hygiene: epoch e re-runs only when manifest e+1 was
        # never committed; clear any partial outputs from the dead attempt
        import shutil

        for sub, ep in (
            ("fetchlog", e), ("corpus", e), ("admitted_log", e + 1),
        ):
            d = os.path.join(self.workdir, sub, f"e{ep}")
            if os.path.isdir(d):
                shutil.rmtree(d)

        # J2 robots gate — broadcast semi-join, no shuffle. Denied rows are
        # a trickle (robots rules hit few pending rows per epoch): pull the
        # denied side to the driver for the log; the allowed side streams.
        if self.robots_cache is not None:
            # A-R actor-pool path (scale mode): rules for this epoch's
            # hosts only, fetched/parsed on miss and cached in the shards
            if drv:
                hosts_all = sorted(
                    set(pc.unique(pend_tbl.column("host")).to_pylist())
                )
            else:
                hosts_all = _distinct_hosts(pending)
            epoch_rules = self.robots_cache.rules_for(hosts_all, epoch=e)
            robots_ref = ray.put(epoch_rules)
            rules_lookup = epoch_rules
        else:
            robots_ref = self.robots_ref
            rules_lookup = self.robots
        # ONE robots evaluation pass (VectorRobots, materialized once);
        # then ONE per-block task round extracts the two driver-bound
        # trickles together — denied rows (for the log) and the allowed
        # distinct hosts (for politeness budgets). The allowed side
        # stays a cheap column filter over the pinned gated blocks.
        gated = None
        allowed_ds = None
        allowed_tbl = None
        if drv:
            vr = vector_robots_for(robots_ref)  # process-cached by ref
            mask = pa.array(
                vr.mask(pend_tbl.column("url"), pend_tbl.column("host"))
            )
            denied_tbl = pend_tbl.filter(pc.invert(mask))
            allowed_tbl = pend_tbl.filter(mask)
            hosts = sorted(
                set(pc.unique(allowed_tbl.column("host")).to_pylist())
            )
        else:
            gated = mark_robots(pending, robots_ref).materialize()
            summaries = ray.get(
                [_gate_block_summary.remote(r) for r in gated.to_arrow_refs()]
            )
            denied_blocks = [d for d, _ in summaries if d.num_rows]
            hosts_set: set = set()
            for _, hs in summaries:
                hosts_set.update(hs)
            hosts = sorted(hosts_set)

            def _keep_allowed(batch: pa.Table) -> pa.Table:
                if batch.num_rows == 0 or _ALLOWED_COL not in batch.column_names:
                    return FRONTIER.empty_table()
                return batch.filter(batch.column(_ALLOWED_COL)).drop_columns(
                    [_ALLOWED_COL]
                )

            allowed_ds = gated.map_batches(
                _keep_allowed, batch_format="pyarrow", zero_copy_batch=True
            )
            denied_tbl = (
                pa.concat_tables(denied_blocks, promote_options="none")
                if denied_blocks
                else FRONTIER.empty_table()
            )
        n_denied = denied_tbl.num_rows
        if n_denied:
            denied_tbl = denied_tbl.set_column(
                denied_tbl.column_names.index("state"),
                "state",
                pa.array(np.full(n_denied, STATE_ROBOTS_DENIED, dtype=np.uint8)),
            )
            append_epoch_table(denied_tbl, self.workdir, "denied", e)

        # politeness budgets (A-P): O(distinct hosts) driver<->actor exchange
        delays = {h: crawl_delay(rules_lookup.get(h, ALLOW_ALL)) for h in hosts}
        budgets = self.pol.budgets(hosts, now_s, [delays[h] for h in hosts])

        # K1 + K2 as the zero-shuffle combiner (budget_topk_order): local
        # per-batch budget cap -> bounded driver merge -> exact cap +
        # deterministic (priority desc, surt asc) order + limit; falls
        # back to the groupby+sort shuffle plan above driver_merge_max
        if drv:
            sched_tbl = budget_topk_order_table(
                allowed_tbl, budgets, cfg.epoch_budget
            )
        else:
            budgets_ref = ray.put(budgets)
            sched_tbl = budget_topk_order(
                allowed_ds, budgets_ref, cfg.epoch_budget, n_shards=cfg.n_buckets
            )
        if sched_tbl is None:
            sched_tbl = FRONTIER.empty_table()
        n_sched = sched_tbl.num_rows

        if n_sched == 0:
            # nothing schedulable this epoch (budgets exhausted) — frontier
            # carries over unchanged except denied rows drop out
            new_frontier = allowed_tbl if drv else allowed_ds
            self._finish_epoch(
                e, new_frontier, sched_tbl, None, n_denied, 0, 0, t0, report
            )
            return frontier_row_count(self.workdir, e + 1)

        # A-F fetch with the fused link/image extract chained onto it (one
        # task per fetched batch in "tasks" mode; a fetch pool and one
        # extract pool in "actors" mode). Barrier 1: ONE execution, the
        # epoch batch pinned in the object store, never on the driver.
        mode = cfg.stateful_mode
        if mode == "auto":
            mode = "tasks" if n_sched <= cfg.actor_cutover else "actors"
        sched_sel = sched_tbl.select(FRONTIER.names).cast(FRONTIER)
        fetched = fetch_dataset(
            # from_blocks reads the block metadata here; from_arrow spends
            # a remote task round on it
            ray.data.from_blocks([sched_sel]),
            self.pages_ref,
            now_us=now_us,
            concurrency=cfg.fetch_concurrency,
            batch_size=cfg.fetch_batch_size,
            counters=self.counters,
            mode=mode,
            fetcher_cls=cfg.fetcher_cls,
            fetcher_kwargs=cfg.fetcher_kwargs,
        )
        if mode == "tasks":
            fused = fetched.map_batches(
                task_stage(FusedExtractor), batch_format="pyarrow"
            )
        else:
            fused = fetched.map_batches(
                FusedExtractor, batch_format="pyarrow", concurrency=(1, 2),
                num_cpus=0.5,
            )
        fused = fused.materialize()
        # ONE per-block task round brings back what the driver needs;
        # the link rows stay behind as refs
        outs = [_extract_block_summary.remote(r) for r in fused.to_arrow_refs()]
        # while the round runs: consume politeness tokens for what was
        # scheduled (actor round trips), build barrier 2's lazy input
        counts = pd.Series(sched_tbl.column("host").to_pylist()).value_counts().to_dict()
        self.pol.consume(counts, now_s, delays)
        img_rows = fused.map_batches(_image_rows, batch_format="pyarrow")
        summaries = ray.get([s for s, _ in outs])
        link_refs = [lk for _, lk in outs]
        flog, caps = (
            pa.concat_tables(
                [
                    pa.ipc.open_stream(t[i]).read_all()
                    for t in summaries
                    if t[i] is not None
                ]
            )
            for i in (0, 1)
        )
        links_out = sum(t[2] for t in summaries)
        corpus_rows = sum(t[3] for t in summaries)

        # fetch log without bodies (resumable, append-only)
        write_epoch_table(flog, self.workdir, "fetchlog", e)

        # redirect-discovered URLs (3xx chase targets) flow through
        # canonicalize -> seen: marked as crawled so they are never
        # re-fetched as links, but NOT admitted as pending (their content
        # arrived under the original URL). Bounded by epoch batch x hops.
        red = flog.filter(pc.greater(flog.column("n_redirects"), 0))
        if red.num_rows:
            from ..functions.urlnorm import canonicalize

            disc: set = set()
            for fu, ch in zip(
                red.column("final_url").to_pylist(),
                red.column("redirect_chain").to_pylist(),
            ):
                disc.update(ch)
                disc.add(fu)
            surts = []
            for u in sorted(disc):
                c = canonicalize(u)
                if c is not None:
                    surts.append(c[1])
            if surts:
                self.seen.check_and_add(surts)

        # captions discovered THIS epoch (min per url) -> append-only
        # epoch sink; the cumulative caption store lives in parquet, not
        # in a driver dict (at 10^10 URLs a dict is driver-OOM)
        if caps.num_rows:
            firsts = (
                caps.group_by("url")
                .aggregate([("caption", "min")])
                .sort_by("url")
            )
            append_epoch_table(
                pa.table(
                    {
                        "url": firsts.column("url"),
                        "caption": firsts.column("caption_min"),
                        "epoch": pa.array(
                            np.full(firsts.num_rows, e, dtype=np.int64), pa.int64()
                        ),
                    }
                ),
                self.workdir,
                "captions",
                e,
            )

        # Barrier 2: corpus rows from the pinned fused blocks; caption
        # attached from the captions sink, which now holds this epoch's
        # captions (first-wins across epochs = min epoch)
        corpus_dir = os.path.join(self.workdir, "corpus", f"e{e}")
        os.makedirs(corpus_dir, exist_ok=True)
        if corpus_rows:
            self._attach_captions(img_rows, e, corpus_rows).write_parquet(
                corpus_dir
            )

        # candidates: canonicalize -> D1 exact dedup -> J1 seen gate.
        # Size-adaptive like the seed bootstrap: links are epoch-scale,
        # so under ``frontier_driver_max`` rows the chain runs
        # driver-side through the SAME kernels (canonicalize_candidates,
        # the _first_per_key tie-break — identical to dedup_first's
        # per-bucket reducer — and the seen pool's routed test-and-set);
        # above the bound the streaming canonicalize -> bucket-shuffle
        # dedup -> filter_new plan runs over the link blocks the summary
        # round left in the object store.
        # ``admitted`` is a pa.Table on the driver path, a Dataset on
        # the streaming path; both frontier-assembly forks handle both.
        if links_out <= cfg.frontier_driver_max:
            from ..stages.canonicalize import canonicalize_candidates
            from ..stages.dedup import _first_per_key

            lb = [
                t.select(["url", "depth", "parent_surt"])
                for t in ray.get(link_refs)
                if t.num_rows
            ]
            if lb:
                cand_tbl = canonicalize_candidates(
                    pa.concat_tables(lb, promote_options="none"),
                    depth_col="depth",
                    parent_col="parent_surt",
                    now_us=self._now_us(e + 1),
                    epoch=e + 1,
                    url_filter=cfg.url_filter,
                    priority_fn=cfg.priority_fn,
                )
                # pandas carries only the dedup key and tie-break; the
                # kept rows are taken from the Arrow table
                df = _first_per_key(
                    cand_tbl.select(["surt", "depth", "parent_surt"]).to_pandas(),
                    "surt",
                    ["depth", "parent_surt"],
                )
                mask = self.seen.check_and_add(df["surt"].tolist())
                admitted = cand_tbl.take(pa.array(df.index[mask])).select(
                    FRONTIER.names
                ).cast(FRONTIER)
            else:
                admitted = FRONTIER.empty_table()
            n_admitted = admitted.num_rows
            if n_admitted:
                write_epoch_table(
                    admitted.select(["surt"]), self.workdir, "admitted_log", e + 1
                )
        else:
            cand = canonicalize_dataset(
                ray.data.from_arrow_refs(link_refs).select_columns(
                    ["url", "depth", "parent_surt"]
                ),
                depth_col="depth",
                parent_col="parent_surt",
                now_us=self._now_us(e + 1),
                epoch=e + 1,
                url_filter=self.cfg.url_filter,
                priority_fn=self.cfg.priority_fn,
            )
            cand = dedup_first(cand, n_buckets=cfg.n_buckets)
            admitted = self.seen.filter_new(cand).materialize()
            # membership log: the exact set of surts ever admitted — the
            # URL-seen golden value the oracle crawler is compared
            # against. Written BY THE DATASET (distributed sink).
            n_admitted = admitted.count()
            if n_admitted:
                write_epoch_dataset(
                    admitted.select_columns(["surt"]),
                    self.workdir,
                    "admitted_log",
                    e + 1,
                )

        # retries / permanent failures
        fail_tbl = flog.filter(pc.invert(flog.column("success")))
        retry_rows = self._build_retries(fail_tbl, e, now_us)
        report.fetch_ok += n_sched - fail_tbl.num_rows
        report.fetch_err += fail_tbl.num_rows

        # new frontier = (allowed - scheduled) ∪ admitted ∪ retries.
        # Size-adaptive: every piece is epoch-scale and already pinned
        # (gated/admitted materialized, retries driver-resident), so
        # under ``frontier_driver_max`` total rows the assembly is one
        # driver concat+filter with the SAME kernels (pc.is_in
        # anti-join) and _finish_epoch writes the table directly — the
        # streaming union+write is a full plan launch (~0.5 s/epoch of
        # fixed cost) for a few-MB table. Above the bound the original
        # streaming plan runs. Forks golden-equivalence-tested.
        sset = sched_tbl.column("surt").combine_chunks()
        if drv or gated.count() + n_admitted <= cfg.frontier_driver_max:
            if drv:
                gt = allowed_tbl
            else:
                blocks = [
                    t for t in ray.get(gated.to_arrow_refs()) if t.num_rows
                ]
                gt = (
                    pa.concat_tables(blocks, promote_options="none")
                    if blocks
                    else None
                )
            parts = []
            if gt is not None and gt.num_rows:
                if _ALLOWED_COL in gt.column_names:
                    gt = gt.filter(gt.column(_ALLOWED_COL)).drop_columns(
                        [_ALLOWED_COL]
                    )
                if gt.num_rows and sched_tbl.num_rows:
                    gt = gt.filter(
                        pc.invert(pc.is_in(gt.column("surt"), value_set=sset))
                    )
                parts.append(gt.select(FRONTIER.names).cast(FRONTIER))
            if n_admitted:
                adm_tbls = (
                    [admitted]
                    if isinstance(admitted, pa.Table)
                    else ray.get(admitted.to_arrow_refs())
                )
                parts += [
                    t.select(FRONTIER.names).cast(FRONTIER)
                    for t in adm_tbls
                    if t.num_rows
                ]
            if retry_rows.num_rows:
                parts.append(retry_rows.select(FRONTIER.names).cast(FRONTIER))
            new_frontier = (
                pa.concat_tables(parts, promote_options="none")
                if parts
                else FRONTIER.empty_table()
            )
        else:
            # (broadcast anti-join: the scheduled set is bounded by the
            # epoch budget, shipped once, probed with pc.is_in)
            sched_ref = ray.put(sset)

            def minus_sched(batch: pa.Table) -> pa.Table:
                ss = ray.get(sched_ref)
                mask = pc.invert(pc.is_in(batch.column("surt"), value_set=ss))
                return batch.filter(mask)

            remaining = allowed_ds.map_batches(
                minus_sched, batch_format="pyarrow", zero_copy_batch=True
            )
            new_frontier = remaining.union(
                ray.data.from_arrow(admitted)
                if isinstance(admitted, pa.Table)
                else admitted
            )
            if retry_rows.num_rows:
                new_frontier = new_frontier.union(
                    ray.data.from_arrow(retry_rows)
                )

        self._finish_epoch(
            e, new_frontier, sched_tbl,
            (report.fetch_ok - ok0, report.fetch_err - err0),
            n_denied, n_sched, n_admitted, t0, report,
            links_out=links_out, corpus_rows=corpus_rows,
        )
        return frontier_row_count(self.workdir, e + 1)

    def _attach_captions(
        self, img_rows: "ray.data.Dataset", e: int, n_rows: int
    ) -> "ray.data.Dataset":
        """CORPUS rows (+url) ⋈ captions sink on url, first-wins across
        epochs (min epoch); ``img_rows`` holds ``n_rows`` rows. Size-
        adaptive like the other small-side joins: under
        ``caption_broadcast_max`` sink rows (parquet metadata count — no
        read) the first-wins dict is built driver-side and broadcast once
        via ray.put, probed per batch (zero shuffle; the distributed
        join's fixed cost was ~4-5 s/epoch on kilobyte caption sinks);
        above the bound the caption store never touches the driver —
        dedup_first + distributed hash join. Equivalence-tested
        (tests/test_stateful_mode.py)."""
        import glob

        from ..runtime import tune_join_resources

        files = sorted(glob.glob(os.path.join(self.workdir, "captions", "e*.parquet")))
        if not files:
            return img_rows.drop_columns(["url"])
        n_total = sum(pq.read_metadata(f).num_rows for f in files)
        if n_total <= self.cfg.caption_broadcast_max:
            caps_df = (
                pq.read_table(files, columns=["url", "caption", "epoch"])
                .to_pandas()
                .sort_values(["url", "epoch"], kind="mergesort")
                .drop_duplicates(subset=["url"], keep="first")
            )
            cap_ref = ray.put(dict(zip(caps_df["url"], caps_df["caption"])))

            def probe(batch: pa.Table) -> pa.Table:
                caps = ray.get(cap_ref)
                urls = batch.column("url").to_pylist()
                cap = pa.array([caps.get(u, "") for u in urls], pa.string())
                # identical column layout to the join path's finish()
                return pa.table(
                    {
                        "image_id": batch.column("image_id"),
                        "bytes": batch.column("bytes"),
                        "w": batch.column("w"),
                        "h": batch.column("h"),
                        "fmt": batch.column("fmt"),
                        "caption": cap,
                        "phash": batch.column("phash"),
                    }
                )

            return img_rows.map_batches(
                probe, batch_format="pyarrow", zero_copy_batch=True
            )
        tune_join_resources()
        caps = ray.data.read_parquet(files)
        caps = dedup_first(caps, key="url", tie_cols=("epoch",), n_buckets=self.cfg.n_buckets)
        caps = caps.map_batches(
            lambda b: pa.table(
                {"__cap_url": b.column("url"), "__cap": b.column("caption")}
            ),
            batch_format="pyarrow",
        ).materialize()
        # squeeze out the zero-row blocks the bucketed dedup leaves
        # behind (Ray's hash join aborts on empty-block-only partitions)
        n_caps = caps.count()
        caps = caps.repartition(max(1, min(8, n_caps // 4096)))
        # the left side too: Ray's hash join (2.49) loses the left schema
        # on aggregator partitions that receive only empty blocks and
        # aborts with ArrowInvalid
        img_rows = img_rows.repartition(max(1, min(4, n_rows // 64)))
        joined = img_rows.drop_columns(["caption"]).join(
            caps,
            join_type="left_outer",
            num_partitions=4,
            on=("url",),
            right_on=("__cap_url",),
        )

        def finish(batch: pa.Table) -> pa.Table:
            cap = pc.fill_null(batch.column("__cap"), "")
            return pa.table(
                {
                    "image_id": batch.column("image_id"),
                    "bytes": batch.column("bytes"),
                    "w": batch.column("w"),
                    "h": batch.column("h"),
                    "fmt": batch.column("fmt"),
                    "caption": cap,
                    "phash": batch.column("phash"),
                }
            )

        return joined.map_batches(finish, batch_format="pyarrow")

    def _build_retries(self, fails: pa.Table, e: int, now_us: int) -> pa.Table:
        """Failed fetch-log rows -> next epoch's retry rows (5xx under
        ``max_retries``, decayed priority); the rest are logged to the
        ``failed`` sink as permanent failures."""
        cfg = self.cfg
        retry = pc.and_(
            pc.greater_equal(fails.column("status_code"), 500),
            pc.less(fails.column("retries"), cfg.max_retries),
        )
        perm = fails.filter(pc.invert(retry))
        if perm.num_rows:
            append_epoch_table(
                perm.append_column(
                    "state",
                    pa.array(np.full(perm.num_rows, STATE_FAILED, dtype=np.uint8)),
                ),
                self.workdir,
                "failed",
                e,
            )
        r = fails.filter(retry)
        n = r.num_rows
        return pa.table(
            {
                "url": r.column("url"),
                "surt": r.column("surt"),
                "host": r.column("host"),
                "priority": pc.multiply(
                    r.column("priority"), cfg.retry_priority_decay
                ),
                "depth": r.column("depth"),
                "parent_surt": pa.array([""] * n, pa.string()),
                "discovered_at": pa.array(
                    np.full(n, now_us, dtype=np.int64), pa.timestamp("us")
                ),
                "state": pa.array(np.full(n, STATE_PENDING, dtype=np.uint8)),
                "retries": pc.add(r.column("retries"), 1),
                "epoch": pa.array(np.full(n, e + 1, dtype=np.int64)),
            },
            schema=FRONTIER,
        )

    def _finish_epoch(
        self, e, new_frontier, sched_tbl, fetch_deltas, n_denied, n_sched, n_admitted,
        t0, report, links_out=0, corpus_rows=0,
    ) -> None:
        cfg = self.cfg
        if isinstance(new_frontier, pa.Table):
            write_frontier_table(
                new_frontier, self.workdir, e + 1, cfg.n_host_shards
            )
        else:
            write_frontier(new_frontier, self.workdir, e + 1, cfg.n_host_shards)
        # schedule-order log (rank column = deterministic within-epoch order)
        if sched_tbl.num_rows:
            log = sched_tbl.select(["url", "surt", "host", "priority"]).append_column(
                "rank", pa.array(np.arange(sched_tbl.num_rows, dtype=np.int64))
            ).append_column(
                "sched_epoch", pa.array(np.full(sched_tbl.num_rows, e, dtype=np.int64))
            )
            append_epoch_table(log, self.workdir, "schedule_log", e)
        report.epochs_run += 1
        report.urls_scheduled += n_sched
        report.urls_admitted += n_admitted
        report.robots_denied += n_denied
        ok_d, err_d = fetch_deltas if fetch_deltas is not None else (0, 0)
        row = {
            "epoch": e,
            "stage": "epoch",
            "urls_in": int(n_sched + n_admitted),
            "urls_deduped": int(n_admitted),
            "urls_scheduled": int(n_sched),
            # per-EPOCH deltas, not cumulative totals: rows must mean
            # the same thing in a resumed run as in an unbroken one
            "fetch_ok": int(ok_d),
            "fetch_err": int(err_d),
            "links_out": int(links_out),
            "corpus_rows": int(corpus_rows),
        }
        report.metrics.append(row)
        self._save_state(
            e + 1,
            {"pending": "deferred", "scheduled": n_sched, "admitted": n_admitted},
            metrics=row, t0=t0,
        )

    # ------------------------------------------------------------------
    def run(self, resume: bool = True) -> CrawlReport:
        report = CrawlReport()
        t0 = time.time()
        start = latest_committed_epoch(self.workdir) if resume else None
        if start is None:
            n = self.seed()
            start = 0
        else:
            self._load_state(start)
            n = frontier_row_count(self.workdir, start)
        e = start
        while e < self.cfg.max_epochs and n > 0:
            n = self.run_epoch(e, report)
            e += 1
        report.wall_s = time.time() - t0
        return report

    # ------------------------------------------------------------------
    def schedule_order(self) -> pa.Table | None:
        """Full deterministic crawl order: (sched_epoch, rank) over all epochs."""
        return read_epoch_tables(self.workdir, "schedule_log")

    def corpus(self) -> "ray.data.Dataset":
        import glob

        files = sorted(glob.glob(os.path.join(self.workdir, "corpus", "e*", "*.parquet")))
        if not files:
            return ray.data.from_arrow(
                pa.schema(
                    [
                        ("image_id", pa.string()),
                        ("bytes", pa.binary()),
                        ("w", pa.int32()),
                        ("h", pa.int32()),
                        ("fmt", pa.string()),
                        ("caption", pa.string()),
                        ("phash", pa.int64()),
                    ]
                ).empty_table()
            )
        return ray.data.read_parquet(files)

    def host_stats(self) -> "ray.data.Dataset":
        """G2: per-host crawl stats over the fetch log — fetch count,
        success rate, mean fetch_ms. Partial-aggregated per batch, tiny
        final groupby (the combiner pattern; SURVEY.md §2.5)."""
        import glob

        files = sorted(
            glob.glob(os.path.join(self.workdir, "fetchlog", "e*", "*.parquet"))
        )
        if not files:
            return ray.data.from_arrow(
                pa.table({"host": pa.array([], pa.string())})
            )
        log = ray.data.read_parquet(files)

        def partial(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            g = df.groupby("host", sort=False).agg(
                n=("host", "size"),
                ok=("success", "sum"),
                ms=("fetch_ms", "sum"),
            ).reset_index()
            return pa.table(
                {
                    "host": pa.array(g["host"], pa.string()),
                    "n": pa.array(g["n"], pa.int64()),
                    "ok": pa.array(g["ok"].astype("int64"), pa.int64()),
                    "ms": pa.array(g["ms"], pa.float64()),
                }
            )

        from ray.data.aggregate import Sum

        agg = (
            log.map_batches(partial, batch_format="pyarrow")
            .groupby("host")
            .aggregate(
                Sum("n", alias_name="n_fetches"),
                Sum("ok", alias_name="n_ok"),
                Sum("ms", alias_name="sum_ms"),
            )
        )

        def finish(batch: pa.Table) -> pa.Table:
            n = batch.column("n_fetches").to_numpy(zero_copy_only=False)
            ok = batch.column("n_ok").to_numpy(zero_copy_only=False)
            ms = batch.column("sum_ms").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "host": batch.column("host"),
                    "n_fetches": batch.column("n_fetches"),
                    "success_rate": pa.array(ok / np.maximum(n, 1), pa.float64()),
                    "mean_fetch_ms": pa.array(ms / np.maximum(n, 1), pa.float64()),
                }
            )

        return agg.map_batches(finish, batch_format="pyarrow")

    def counters_totals(self) -> dict:
        """A-C actor totals (fire-and-forget per-batch reports)."""
        return ray.get(self.counters.peek.remote())

    def recrawl_candidates(
        self, before_epoch: int, at_epoch: int, priority: float = 0.1
    ) -> "ray.data.Dataset":
        """D4: revisit list — successfully fetched URLs from epochs <
        ``before_epoch``, re-materialized as pending frontier rows for
        ``at_epoch``. Re-admission bypasses the seen gate (they ARE seen),
        exactly like retries; the caller unions this into the frontier."""
        import glob

        files = sorted(
            f
            for e_ in range(before_epoch)
            for f in glob.glob(
                os.path.join(self.workdir, "fetchlog", f"e{e_}", "*.parquet")
            )
        )
        if not files:
            return empty_frontier()
        log = ray.data.read_parquet(files)
        now_us = self._now_us(at_epoch)

        def to_rows(batch: pa.Table) -> pa.Table:
            b = batch.filter(pc.equal(batch.column("success"), True))
            n = b.num_rows
            return pa.table(
                {
                    "url": b.column("url"),
                    "surt": b.column("surt"),
                    "host": b.column("host"),
                    "priority": pa.array(np.full(n, priority), pa.float64()),
                    "depth": pc.cast(b.column("depth"), pa.int32()),
                    "parent_surt": pa.array([""] * n, pa.string()),
                    "discovered_at": pa.array(
                        np.full(n, now_us, dtype=np.int64), pa.timestamp("us")
                    ),
                    "state": pa.array(np.zeros(n, dtype=np.uint8), pa.uint8()),
                    "retries": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
                    "epoch": pa.array(np.full(n, at_epoch, dtype=np.int64), pa.int64()),
                },
                schema=FRONTIER,
            )

        return log.map_batches(to_rows, batch_format="pyarrow")

    def shutdown(self) -> None:
        self.seen.shutdown()
        self.pol.shutdown()
        ray.kill(self.counters)
        if self.robots_cache is not None:
            self.robots_cache.shutdown()
