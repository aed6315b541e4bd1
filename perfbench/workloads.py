"""The three workloads: set-up, untimed warm-up, timed reps and checks.

Each workload returns a ``Measured``: per successful rep its wall time,
URL throughput, set-up time and driver peak RSS, plus its per-layer
metrics when traced; and the number of reps attempted and failed. A rep
that raises, times out or fails its output check is counted as failed
and the run goes on with the next rep.
"""

from __future__ import annotations

import gc
import os
import shutil
import signal
import statistics
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa

from . import inputs, layers, reference

# seen-set pool of the handout workloads (shards x keys per shard)
HANDOUT_SEEN = (4, 1 << 24)
HANDOUT_BUDGET = 64
HANDOUT_EPOCH_BUDGET = 500_000
CATCHUP_HOST_BUDGET = 1 << 20
# the catch-up prefill holds every canonical key with this bit set: it
# is neither a shard-routing bit (low bits), a cuckoo bucket-index bit
# (< 23 at this capacity) nor a fingerprint bit (>= 48)
CATCHUP_KEY_BIT = np.uint64(40)
REP_TIMEOUT_S = 30


def crawl_config(scale: inputs.Scale):
    """bench.py's crawl configuration, with the scale's epoch count."""
    from heroshi_ray.pipelines.crawl import CrawlConfig

    return CrawlConfig(
        epoch_budget=80_000, max_epochs=scale.epochs, n_seen_shards=8,
        seen_capacity=1 << 22, n_buckets=32, n_pol_shards=4,
        fetch_concurrency=12, fetch_batch_size=512, burst=200.0,
    )


def actor_cpus(workload: str, scale: inputs.Scale) -> float:
    """CPUs the workload's actors reserve: SeenShard 0.1 each,
    PolitenessShard 0.1 each, CountersActor 0.05."""
    if workload == "crawl":
        cfg = crawl_config(scale)
        return 0.1 * cfg.n_seen_shards + 0.1 * cfg.n_pol_shards + 0.05
    return 0.1 * HANDOUT_SEEN[0]


@dataclass
class Rep:
    wall_s: float
    urls_per_s: float
    setup_s: float
    peak_rss_mib: float
    rss_growth_mib: float
    traced: bool
    layers: dict | None = None


@dataclass
class Measured:
    setup_once_s: float = 0.0
    reps: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def median(self, attr: str, traced: bool = False) -> float | None:
        vals = [getattr(r, attr) for r in self.reps if r.traced == traced]
        return statistics.median(vals) if vals else None


class PeakRss:
    """Peak resident set size of this process while running, sampled
    from /proc/self/statm (a process-lifetime maximum would drift)."""

    _PAGE = os.sysconf("SC_PAGE_SIZE")

    def __init__(self, interval_s: float = 0.01):
        self.interval = interval_s
        self.base = 0
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self) -> None:
        with open("/proc/self/statm") as f:
            self.peak = max(self.peak, int(f.read().split()[1]) * self._PAGE)

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            self._sample()

    def __enter__(self) -> "PeakRss":
        self._sample()
        self.base = self.peak
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self._sample()

    @property
    def mib(self) -> float:
        return self.peak / (1 << 20)

    @property
    def growth_mib(self) -> float:
        """Peak above the RSS at entry. Logged only: allocators keep freed
        pages, so the RSS at entry depends on earlier reps."""
        return (self.peak - self.base) / (1 << 20)


def release_heap() -> None:
    """Collect garbage and return free heap and Arrow pool pages to the
    system, so neither the reference's temporaries nor an earlier rep's
    freed buffers count in a rep's driver RSS."""
    import ctypes

    gc.collect()
    pa.default_memory_pool().release_unused()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _log(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def _alarm(signum, frame):
    raise TimeoutError(f"rep exceeded {REP_TIMEOUT_S} s")


@dataclass
class Context:
    """What a workload needs from the runner."""
    scale: inputs.Scale
    seed: int
    seconds: float
    work: str              # scratch directory inside the checkout
    task_cpus: float       # Ray CPUs left for tasks after actor reservations
    tracing: object = None  # run.TraceControl when traced, else None
    inject_fail: int = -1   # index of a timed rep made to raise (self-test)
    deadline: float = 0.0   # wall-clock time after which no rep starts


def _measure(ctx: Context, res: Measured, one_rep) -> None:
    """Timed reps until ``ctx.seconds`` of measured time (per traced
    state when tracing, which alternates untraced and traced reps)."""
    tracing = ctx.tracing is not None
    timed = {False: 0.0, True: 0.0}
    i = 0
    old = signal.signal(signal.SIGALRM, _alarm)
    try:
        while True:
            traced = tracing and i % 2 == 1
            res.attempted += 1
            if tracing:
                ctx.tracing.enable(traced)
            release_heap()  # no collection of earlier reps' garbage mid-rep
            t_start = time.time()
            try:
                signal.alarm(REP_TIMEOUT_S)
                if i == ctx.inject_fail:
                    raise RuntimeError("injected failure")
                rep = one_rep(traced)
                res.reps.append(rep)
                _log(f"rep {i} traced={int(traced)} wall_s={rep.wall_s:.3f} "
                     f"urls_per_s={rep.urls_per_s:.1f} setup_s={rep.setup_s:.3f} "
                     f"peak_rss_mib={rep.peak_rss_mib:.1f} "
                     f"rss_growth_mib={rep.rss_growth_mib:.1f}")
                timed[traced] += rep.wall_s
            except Exception:
                res.failed += 1
                timed[traced] += time.time() - t_start
                _log(f"rep {i} failed:\n{traceback.format_exc()}")
            finally:
                signal.alarm(0)
            i += 1
            done = min(timed.values()) if tracing else timed[False]
            if done >= ctx.seconds or time.time() > ctx.deadline:
                break
    finally:
        signal.signal(signal.SIGALRM, old)
        if tracing:
            ctx.tracing.enable(False)


# ---------------------------------------------------------------- handout

def run_handout(ctx: Context, catchup: bool) -> Measured:
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from heroshi_ray.pipelines import frontier
    from heroshi_ray.state.seen import SeenSet

    res = Measured()
    t_setup = time.time()
    fr = os.path.join(ctx.work, "frontier")
    inputs.write_frontier(fr, ctx.scale, ctx.seed)
    robots = frontier.synth_robots()

    # reference (outside timing and outside setup_s)
    t_ref = time.time()
    urls = pq.read_table(fr, columns=["url"]).column("url").to_pylist()
    ref = reference.HandoutReference(urls, robots)
    del urls
    if catchup:
        prefill = ref.all_keys[(ref.all_keys >> CATCHUP_KEY_BIT) & np.uint64(1) == 1]
        host_budget, epoch_budget = CATCHUP_HOST_BUDGET, ctx.scale.catchup_epoch_budget
    else:
        prefill = np.zeros(0, np.uint64)
        host_budget, epoch_budget = HANDOUT_BUDGET, HANDOUT_EPOCH_BUDGET
    release_heap()
    ref_s = time.time() - t_ref
    _log(f"inputs {t_ref - t_setup:.2f} s, reference {ref_s:.2f} s")

    def make_input():
        return ray.data.read_parquet(fr, override_num_blocks=ctx.scale.blocks)

    def handout(seen: SeenSet):
        out = frontier.fused_schedule_pipeline(
            make_input(), per_host_budget=host_budget, epoch_budget=epoch_budget,
            n_buckets=32, seen=seen, robots=robots,
        )
        out.count()
        return out

    # The pipeline is a stateful admission pass: each rep must start from
    # the same seen-set state (empty, or prefilled for the catch-up). One
    # pool is snapshotted in that state through its checkpoint API and
    # loaded back before every rep, instead of spawning four 64 MiB shard
    # actors per rep.
    seen = SeenSet(*HANDOUT_SEEN)
    try:
        seen.contains(["http://warm.example/"])
        if len(prefill):
            SeenSet.check_and_add_keys(seen.shards, prefill)
        snapshot = os.path.join(ctx.work, "seen-start")
        seen.save(snapshot, 0)
        # untimed warm-up: one full handout starts every worker and runs
        # the read, gate and merge code once
        handout(seen)
        res.setup_once_s = time.time() - t_setup - ref_s
        _log(f"warm-up {time.time() - t_ref - ref_s:.2f} s")

        def one_rep(traced: bool) -> Rep:
            t_s = time.time()
            seen.load(snapshot, 0)
            setup_s = time.time() - t_s
            with PeakRss() as rss:
                t0 = time.time()
                out = handout(seen)
                t1 = time.time()
            blocks = [b for b in ray.get(out.to_arrow_refs()) if b.num_rows]
            tbl = pa.concat_tables(blocks) if blocks else ref.table(np.zeros(0, np.int64))
            why = ref.check(tbl, prefill, host_budget, epoch_budget, *HANDOUT_SEEN)
            if why:
                raise AssertionError(f"handout check failed: {why}")
            lay = None
            if traced:
                lay = layers.handout_layers(ctx.tracing.spans(), t0, t1, ctx.task_cpus)
            return Rep(t1 - t0, ref.n_urls / (t1 - t0), setup_s, rss.mib, rss.growth_mib, traced, lay)

        _measure(ctx, res, one_rep)
    finally:
        seen.shutdown()
    return res


# ---------------------------------------------------------------- crawl

def run_crawl(ctx: Context) -> Measured:
    import ray

    from heroshi_ray.pipelines.crawl import Crawler

    res = Measured()
    t_setup = time.time()
    paths = inputs.write_web(os.path.join(ctx.work, "web"), ctx.scale, ctx.seed)
    cfg = crawl_config(ctx.scale)

    t_ref = time.time()
    golden = reference.crawl_golden(paths, cfg)
    release_heap()
    ref_s = time.time() - t_ref
    _log(f"inputs {t_ref - t_setup:.2f} s, reference {ref_s:.2f} s")

    # One Crawler serves every rep; its actor pools are put back to their
    # initial state through their own checkpoint API before each rep, so
    # a rep starts exactly like a fresh Crawler without spawning 13 actor
    # processes (seen, politeness, counters) first.
    crawler = Crawler(paths, os.path.join(ctx.work, "crawl-warm"), cfg)
    empty = os.path.join(ctx.work, "seen-empty")
    crawler.seen.save(empty, 0)
    pol0 = crawler.pol.state()

    def reset(wd: str) -> None:
        crawler.workdir = wd
        crawler.seen.load(empty, 0)
        crawler.pol.load_state(pol0)
        ray.get(crawler.counters.flush.remote())

    try:
        # untimed warm-up: one whole crawl (after a one-epoch warm-up the
        # first timed rep still ran about 8% slower than the next ones)
        crawler.run(resume=False)
        shutil.rmtree(crawler.workdir, ignore_errors=True)
        res.setup_once_s = time.time() - t_setup - ref_s
        _log(f"warm-up {time.time() - t_ref - ref_s:.2f} s")

        n_rep = [0]

        def one_rep(traced: bool) -> Rep:
            wd = os.path.join(ctx.work, f"crawl-{n_rep[0]}")
            n_rep[0] += 1
            t_s = time.time()
            reset(wd)
            setup_s = time.time() - t_s
            try:
                with PeakRss() as rss:
                    t0 = time.time()
                    report = crawler.run(resume=False)
                    t1 = time.time()
                why = reference.check_crawl(reference.crawl_result(wd, report), golden)
                if why:
                    raise AssertionError(f"crawl check failed: {why}")
            finally:
                shutil.rmtree(wd, ignore_errors=True)
            fetched = report.fetch_ok + report.fetch_err
            lay = None
            if traced:
                lay = layers.crawl_layers(ctx.tracing.spans(), t0, t1, report.urls_admitted)
            return Rep(t1 - t0, fetched / (t1 - t0), setup_s, rss.mib, rss.growth_mib, traced, lay)

        _measure(ctx, res, one_rep)
    finally:
        crawler.shutdown()
    return res
