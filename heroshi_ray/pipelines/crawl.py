"""The crawl epoch loop — SURVEY.md §3.2, the flagship pipeline.

Heroshi's manager hands out crawl-queue batches and merges fetch
reports ([UPSTREAM-M], reference unavailable); here the same semantics
run as a sequence of discrete epochs:

    read the pending frontier one part at a time (sources/io:
    parts of at most FRONTIER_PART_ROWS rows)
      -> robots gate (J2: VectorRobots mask over the part)
      -> per-host top-budget (K1) + global order (K2: priority desc,
         surt asc, limit), folded part by part into at most
         ``epoch_budget`` candidates (stages/schedule)
      -> fetch (A-F) -> FusedExtractor (X1 links + captions, M8+M9
         image rows): one plain task per host slice of the scheduled
         rows (k = min(cluster CPUs, ceil(rows / fetch_batch_size)),
         each host in one slice), fetching in ``fetch_batch_size``
         batches; both stage instances are cached per worker process
         (runtime.task_stage)
         [barrier 1: the round's summaries — fetch log, redirects,
         captions, failures/retries and link counts — reach the driver;
         link rows, image rows and image bytes stay in the object store,
         page bodies never leave the task]
      -> caption attach -> corpus write: one task per slice with
         images  [barrier 2]
      -> canonicalize (fused M1-M3) -> exact dedup (D1) -> seen-set
         gate (J1)
      -> new frontier = (pending - scheduled - denied) ∪ admitted
         ∪ retries, the pending parts re-read one at a time
      -> atomic checkpoint (frontier, seen shards, politeness, counters,
         metrics row, manifest) — the resume point.

An epoch starts no Ray Data execution at any frontier size: its two
barriers are task rounds (on a 4-CPU host a two-operator Ray Data plan
over one 2k-row block took 43 ms against 4 ms for one task, medians of
20), and barrier 2 reads the captions sink, which holds this epoch's
captions only after barrier 1. Everything between them is driver work
on epoch-scale tables or on one frontier part.

Scale notes (10^10-URL frontier):
- the driver holds at most one frontier part: the handout folds each
  part into the candidates, and the next frontier is re-read part by
  part into the writer, which cuts it into parts again.
- the *epoch batch* (scheduled ∪ fetched) is bounded by the politeness
  budget — that is the unit pinned in the object store (the fetch
  round's link and image rows), never pulled to the driver with bodies.
- driver-side state is O(hosts-this-epoch) (budgets, crawl delays) and
  O(epoch batch) (candidates, fetch log, captions, redirects, admitted
  links of this epoch): nothing cumulative. The caption store and
  admitted log are append-only parquet sinks; captions attach to corpus
  rows through a broadcast first-wins dict of this epoch's image URLs
  only, read from the sink with a ``url`` filter (O(epoch images) on
  the driver).
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

import itertools
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
    FRONTIER, METRICS, STATE_FAILED, STATE_PENDING, STATE_ROBOTS_DENIED,
)
from ..sources.io import (
    append_epoch_table,
    frontier_part_count,
    frontier_row_count,
    commit_manifest,
    empty_frontier,
    epoch_dir,
    latest_committed_epoch,
    read_epoch_tables,
    read_frontier_table,
    write_epoch_table,
    write_frontier_table,
)
from ..stages.extract import LINKS_SCHEMA
from ..stages.fetch import fetch_dataset
from ..stages.schedule import (
    VectorRobots,
    budget_topk_order_table,
    can_enter,
    vector_robots_for,
)
from ..state.politeness import PolitenessPool
from ..state.seen import SeenSet

# seed-file lines admitted per chunk: the seed bootstrap holds one chunk
SEED_CHUNK_LINES = 200_000


@ray.remote
def _write_corpus_part(rows: pa.Table, caps: dict, path: str) -> None:
    """Image rows -> CORPUS rows with their first-wins caption (``""``
    when the sink has none), written to ``path``."""
    cap = pa.array(
        [caps.get(u, "") for u in rows.column("url").to_pylist()], pa.string()
    )
    out = rows.drop_columns(["url"])
    pq.write_table(
        out.set_column(out.schema.get_field_index("caption"), "caption", cap), path
    )


class _CorpusWrite:
    """Barrier 2 as one task round: ``write_parquet(path)`` writes the
    i-th image-row table as ``path/part-{i:05d}.parquet`` in its own
    task and waits for all of them."""

    def __init__(self, img_refs: list, caps_ref):
        self.img_refs = img_refs
        self.caps_ref = caps_ref

    def write_parquet(self, path: str) -> None:
        ray.get(
            [
                _write_corpus_part.remote(
                    r, self.caps_ref, os.path.join(path, f"part-{i:05d}.parquet")
                )
                for i, r in enumerate(self.img_refs)
            ]
        )


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
    # read by nothing since admission runs only on the driver; kept
    # because perfbench/workloads.py::crawl_config still passes it
    n_buckets: int = 16
    # read by nothing since fetch runs only as per-process cached tasks;
    # kept because perfbench/workloads.py::crawl_config still passes it
    fetch_concurrency: int = 2
    fetch_batch_size: int = 64
    ua: str = "heroshi-ray"
    retry_priority_decay: float = 0.5
    max_depth: int = 64             # links deeper than this are not admitted
    robots_via_actors: bool = False  # A-R shard pool instead of driver broadcast
    n_robots_shards: int = 2
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
        self._check_cpus()
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

    def _check_cpus(self) -> None:
        """Raise unless the actors leave a whole CPU for the fetch tasks:
        a ``_fetch_slice`` task needs one, and without it the crawl waits
        forever instead of failing. Checked before any actor starts."""
        cfg = self.cfg
        parts = [
            (0.1, cfg.n_seen_shards, "seen shards"),
            (0.1, cfg.n_pol_shards, "politeness shards"),
            (0.05, 1, "counters actor"),
        ]
        if cfg.robots_via_actors:
            parts.append((0.1, cfg.n_robots_shards, "robots shards"))
        reserved = round(sum(c * n for c, n, _ in parts), 6)
        cpus = ray.cluster_resources().get("CPU", 0.0)
        if cpus - reserved < 1:
            terms = " + ".join(f"{c:g} x {n} {what}" for c, n, what in parts)
            raise RuntimeError(
                f"the crawl's actors reserve {terms} = {reserved:g} CPUs; "
                f"{cpus:g} cluster CPUs - {reserved:g} = {cpus - reserved:g} "
                "leaves under the 1 CPU a fetch task needs"
            )

    # ------------------------------------------------------------------
    def _now_us(self, epoch: int) -> int:
        return int(epoch * self.cfg.epoch_seconds * 1e6)

    def seed(self) -> int:
        """Bootstrap epoch 0 frontier from the seed list (SURVEY.md §3.1):
        ``SEED_CHUNK_LINES`` lines at a time, in file order, through
        ``_admit`` and into the frontier writer."""

        def admitted():
            with open(self.paths["seeds"]) as f:
                while lines := list(itertools.islice(f, SEED_CHUNK_LINES)):
                    urls = [ln.rstrip("\r\n") for ln in lines if ln.strip()]
                    yield self._admit(pa.table({"url": pa.array(urls, pa.string())}), 0)

        write_frontier_table(admitted(), self.workdir, 0)
        n = frontier_row_count(self.workdir, 0)
        self._save_state(0, {"pending": n, "phase": "seeded"})
        return n

    def _admit(self, urls: pa.Table, epoch: int, **cols) -> pa.Table:
        """The admission chain on the driver: canonicalize (links deeper
        than ``max_depth`` dropped) -> D1 exact dedup (first row per surt
        under (depth, parent_surt), ``_first_per_key``) -> J1 seen-pool
        test-and-set. ``cols`` names the depth/parent columns when the
        rows are links. Returns the admitted FRONTIER rows."""
        from ..stages.canonicalize import canonicalize_candidates
        from ..stages.dedup import _first_per_key

        cfg = self.cfg
        if urls.num_rows == 0:
            return FRONTIER.empty_table()
        cand = canonicalize_candidates(
            urls, max_depth=cfg.max_depth, now_us=self._now_us(epoch),
            epoch=epoch, url_filter=cfg.url_filter, priority_fn=cfg.priority_fn,
            **cols,
        )
        # pandas carries only the dedup key and tie-break; the kept rows
        # are taken from the Arrow table
        df = _first_per_key(
            cand.select(["surt", "depth", "parent_surt"]).to_pandas(),
            "surt",
            ["depth", "parent_surt"],
        )
        mask = self.seen.check_and_add(df["surt"].tolist())
        return cand.take(pa.array(df.index[mask])).select(FRONTIER.names).cast(FRONTIER)

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

        sched_tbl, denied_tbl, delays = self._handout(e, now_s)
        n_sched = sched_tbl.num_rows
        n_denied = denied_tbl.num_rows
        if n_denied:
            denied_tbl = denied_tbl.set_column(
                denied_tbl.column_names.index("state"),
                "state",
                pa.array(np.full(n_denied, STATE_ROBOTS_DENIED, dtype=np.uint8)),
            )
            append_epoch_table(denied_tbl, self.workdir, "denied", e)
        # the surts that leave the pending frontier this epoch
        drop = pa.concat_arrays(
            [t.column("surt").combine_chunks() for t in (sched_tbl, denied_tbl)]
        )

        if n_sched == 0:
            # nothing schedulable this epoch (budgets exhausted) — frontier
            # carries over unchanged except denied rows drop out
            self._finish_epoch(
                e, self._next_frontier(e, drop, ()), sched_tbl, None, n_denied,
                0, 0, t0, report,
            )
            return frontier_row_count(self.workdir, e + 1)

        # A-F fetch with the fused link/image extract: one plain task per
        # host slice of the scheduled rows (stages/fetch.host_slices), with
        # stage instances cached per worker process (runtime.task_stage).
        # The tasks start here; page bodies and image bytes stay in them
        # and the object store, never on the driver.
        rnd = fetch_dataset(
            sched_tbl,
            self.pages_ref,
            now_us=now_us,
            batch_size=cfg.fetch_batch_size,
            counters=self.counters,
            fetcher_cls=cfg.fetcher_cls,
            fetcher_kwargs=cfg.fetcher_kwargs,
        )
        # while the round runs: consume politeness tokens for what was
        # scheduled (actor round trips)
        counts = pd.Series(sched_tbl.column("host").to_pylist()).value_counts().to_dict()
        self.pol.consume(counts, now_s, delays)
        # Barrier 1: every slice done; the fetch log, captions, link count
        # and image URLs reach the driver, the link and image rows stay
        # behind as refs
        rnd.materialize()
        flog, caps, links_out = rnd.log, rnd.captions, rnd.n_links
        corpus_rows = sum(len(u) for u in rnd.image_urls)

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

        # Barrier 2: one task per slice with images attaches the captions
        # from the sink, which now holds this epoch's captions
        # (first-wins across epochs = min epoch), and writes its part
        corpus_dir = os.path.join(self.workdir, "corpus", f"e{e}")
        os.makedirs(corpus_dir, exist_ok=True)
        if corpus_rows:
            has = [i for i, u in enumerate(rnd.image_urls) if len(u)]
            self._attach_captions(
                [rnd.images[i] for i in has],
                pa.chunked_array([rnd.image_urls[i] for i in has], pa.string()),
            ).write_parquet(corpus_dir)

        # candidates: canonicalize -> D1 exact dedup -> J1 seen gate, on
        # the driver (links are epoch-scale)
        lb = [
            t.select(["url", "depth", "parent_surt"])
            for t in ray.get(rnd.links)
            if t.num_rows
        ]
        admitted = self._admit(
            pa.concat_tables(lb, promote_options="none")
            if lb
            else LINKS_SCHEMA.empty_table(),
            e + 1,
            depth_col="depth",
            parent_col="parent_surt",
        )
        n_admitted = admitted.num_rows
        # membership log: the exact set of surts ever admitted — the
        # URL-seen golden value the oracle crawler is compared against
        if n_admitted:
            write_epoch_table(
                admitted.select(["surt"]), self.workdir, "admitted_log", e + 1
            )

        # retries / permanent failures
        fail_tbl = flog.filter(pc.invert(flog.column("success")))
        retry_rows = self._build_retries(fail_tbl, e, now_us)
        report.fetch_ok += n_sched - fail_tbl.num_rows
        report.fetch_err += fail_tbl.num_rows

        self._finish_epoch(
            e, self._next_frontier(e, drop, (admitted, retry_rows)), sched_tbl,
            (report.fetch_ok - ok0, report.fetch_err - err0),
            n_denied, n_sched, n_admitted, t0, report,
            links_out=links_out, corpus_rows=corpus_rows,
        )
        return frontier_row_count(self.workdir, e + 1)

    def _handout(self, e: int, now_s: float):
        """Pass A over the pending frontier, one part at a time: the
        robots mask, the denied rows set aside, politeness budgets (A-P)
        for hosts not seen in an earlier part, and the K1+K2 fold
        ``cand = budget_topk_order_table(cand ∪ allowed part)``, exact
        because a row the cap-then-limit scan rejects in a subset is
        rejected in every superset (stages/schedule); once ``cand`` is
        full only the part's rows ``can_enter`` lets in are sorted. The
        budgets are still fetched for every allowed host. Returns the
        scheduled rows in handout order, the denied rows and the crawl
        delay of every allowed host."""
        cfg = self.cfg
        if self.robots_cache is None:
            vr = vector_robots_for(self.robots_ref)  # process-cached by ref
            rules = self.robots
        else:
            # A-R actor-pool path: rules for this epoch's hosts only,
            # fetched/parsed on miss and cached in the shards
            rules = {}
        cand = FRONTIER.empty_table()
        denied = [FRONTIER.empty_table()]
        budgets: dict = {}
        delays: dict = {}
        for part in self._pending_parts(e):
            if self.robots_cache is not None:
                hosts = pc.unique(part.column("host")).to_pylist()
                rules.update(
                    self.robots_cache.rules_for(
                        sorted(set(hosts) - rules.keys()), epoch=e
                    )
                )
                vr = VectorRobots({h: rules[h] for h in hosts})
            mask = pa.array(vr.mask(part.column("url"), part.column("host")))
            denied.append(part.filter(pc.invert(mask)))
            allowed = part.filter(mask)
            new = sorted(
                set(pc.unique(allowed.column("host")).to_pylist()) - budgets.keys()
            )
            delays.update((h, crawl_delay(rules.get(h, ALLOW_ALL))) for h in new)
            budgets.update(self.pol.budgets(new, now_s, [delays[h] for h in new]))
            cand = budget_topk_order_table(
                pa.concat_tables(
                    [cand, can_enter(allowed, cand, cfg.epoch_budget)],
                    promote_options="none",
                ),
                budgets,
                cfg.epoch_budget,
            )
        return cand, pa.concat_tables(denied, promote_options="none"), delays

    def _pending_parts(self, e: int):
        """The committed frontier of epoch ``e``, one part at a time."""
        for i in range(frontier_part_count(self.workdir, e)):
            part = read_frontier_table(self.workdir, e, i)
            yield part.select(FRONTIER.names).cast(FRONTIER)

    def _next_frontier(self, e: int, drop: pa.Array, tail):
        """Pass B: the pending parts of epoch ``e`` re-read one at a time,
        less the ``drop`` surts (scheduled and denied), then the ``tail``
        tables (admitted rows, retries) — consumed by the frontier
        writer."""
        for part in self._pending_parts(e):
            yield part.filter(pc.invert(pc.is_in(part.column("surt"), value_set=drop)))
        yield from tail

    def _attach_captions(
        self, img_refs: list, urls: pa.ChunkedArray
    ) -> "_CorpusWrite":
        """CORPUS rows (+url) ⋈ captions sink on url, first-wins across
        epochs (min epoch). ``img_refs`` are object refs of image-row
        tables (``stages/fetch._IMAGE_ROWS``) and ``urls`` their ``url``
        values: only those URLs' sink rows are read (a pyarrow ``isin``
        filter), so the first-wins dict built here and shipped once via
        ray.put is O(this epoch's images) at any crawl size. The sink
        scan is O(sink) per epoch. Returns the write, not yet started."""
        import glob

        files = sorted(glob.glob(os.path.join(self.workdir, "captions", "e*.parquet")))
        caps: dict = {}
        if files:
            caps_df = (
                pq.read_table(
                    files,
                    columns=["url", "caption", "epoch"],
                    filters=pc.field("url").isin(pc.unique(urls)),
                )
                .to_pandas()
                .sort_values(["url", "epoch"], kind="mergesort")
                .drop_duplicates(subset=["url"], keep="first")
            )
            caps = dict(zip(caps_df["url"], caps_df["caption"]))
        return _CorpusWrite(img_refs, ray.put(caps))

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
        write_frontier_table(new_frontier, self.workdir, e + 1)
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
