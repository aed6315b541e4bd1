"""Spans around the public functions of heroshi_ray, recorded from outside.

Nothing under ``heroshi_ray/`` is edited: ``install_driver`` and
``install_worker`` replace selected module and class attributes with
timing wrappers, in the driver and, via Ray's
``worker_process_setup_hook``, in every worker and actor process.
Each name is patched where its caller looks it up (``pipelines.crawl``
binds ``fetch_dataset`` and friends at import, so those bindings are
patched in that module, not in the defining one).

A span records name, wall-clock start and end (``time.time``, so worker
and driver spans share one clock on one host), its self time (duration
minus child spans) and the counts its wrapper extracts. The driver keeps
its spans in memory. A worker process keeps them in memory and appends
them to ``<trace dir>/w-<pid>.jsonl`` each time its outermost span ends,
because workers and actors are killed without running exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time

TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"
FLAG = "on"
_MARK = "__perfbench_span__"


class Tracer:
    """Span recorder for one process. ``sink`` is a file path that
    workers append to; the driver passes ``None`` and reads ``spans``.
    Recording is on while ``on`` is set (driver) or while the file
    ``flag`` exists (workers, which the driver cannot reach directly);
    when off, a wrapper only forwards the call."""

    def __init__(self, sink: str | None = None, flag: str | None = None):
        self.sink = sink
        self.flag = flag
        self.on = False
        self.spans: list[dict] = []
        self._local = threading.local()
        self._unflushed = 0

    @property
    def enabled(self) -> bool:
        return os.path.exists(self.flag) if self.flag else self.on

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def call(self, name: str, fn, args, kwargs, count):
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        frame = {"name": name, "child": 0.0}
        stack.append(frame)
        t0 = time.time()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.time()
            stack.pop()
            if stack:
                stack[-1]["child"] += t1 - t0
        rec = {
            "name": name, "t0": t0, "t1": t1,
            "self": t1 - t0 - frame["child"],
            "anc": [f["name"] for f in stack],
            "driver": self.sink is None,
        }
        if count is not None:
            rec.update(count(args, kwargs, out))
        self.spans.append(rec)
        self._unflushed += 1
        if self.sink is not None and not stack:
            self.flush()
        return out

    def flush(self) -> None:
        new = self.spans[len(self.spans) - self._unflushed:]
        if not new:
            return
        with open(self.sink, "a") as f:
            f.write("".join(json.dumps(r) + "\n" for r in new))
        self._unflushed = 0


def _wrap(tracer: Tracer, owner, attr: str, name: str, count=None) -> None:
    """Replace ``owner.attr`` (module function, method or staticmethod)
    with a span-recording wrapper. Idempotent."""
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    static = isinstance(raw, staticmethod)
    fn = raw.__func__ if static else raw
    if getattr(fn, _MARK, False):
        return

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, fn, args, kwargs, count)

    setattr(wrapper, _MARK, True)
    setattr(owner, attr, staticmethod(wrapper) if static else wrapper)


def _rows_in(args, kwargs, out):
    return {"n": int(args[0].num_rows)}


def _rows_in_out(args, kwargs, out):
    # bound methods: args[0] is self, args[1] the batch
    return {"n": int(args[1].num_rows), "out": int(out.num_rows)}


def _robots(args, kwargs, out):
    return {"n": int(len(out)), "denied": int(len(out) - out.sum())}


def _hash(args, kwargs, out):
    return {"n": int(len(out))}


def _seen_keys(args, kwargs, out):
    return {"n": int(len(out)), "new": int(out.sum())}


def _cuckoo(args, kwargs, out):
    return {"n": int(len(args[1]))}


def _fetch(args, kwargs, out):
    ok = int(sum(out.column("success").to_pylist())) if out.num_rows else 0
    return {"n": int(out.num_rows), "ok": ok}


def _first_per_key(args, kwargs, out):
    return {"n": int(len(args[0])), "out": int(len(out))}


def _blocks(args, kwargs, out):
    return {"n": int(sum(b.num_rows for b in out))}


def install_kernels(tracer: Tracer) -> None:
    """Wrappers for code that runs in worker and actor processes (and,
    for the crawl loop's driver-side forks, in the driver too)."""
    from heroshi_ray.functions import hashing
    from heroshi_ray.pipelines import frontier
    from heroshi_ray.stages import canonicalize, extract, fetch, schedule
    from heroshi_ray.state import cuckoo, seen

    _wrap(tracer, canonicalize, "canonicalize_candidates", "urlnorm.canonicalize", _rows_in)
    _wrap(tracer, schedule.VectorRobots, "mask", "schedule.robots", _robots)
    _wrap(tracer, hashing, "hash64", "hashing.hash64", _hash)
    _wrap(tracer, seen, "hash64", "hashing.hash64", _hash)
    _wrap(tracer, seen.SeenSet, "check_and_add_keys", "seen.check_and_add_keys", _seen_keys)
    _wrap(tracer, cuckoo.CuckooFilter, "add_if_absent_many", "cuckoo.add", _cuckoo)
    _wrap(tracer, frontier.GateAndCap, "__call__", "frontier.gate", _rows_in_out)
    _wrap(tracer, fetch.SyntheticFetcher, "__call__", "fetch.fetcher", _fetch)
    _wrap(tracer, extract.LinkExtractor, "__call__", "extract.links", _rows_in_out)
    _wrap(tracer, extract.ImageRowBuilder, "__call__", "extract.images", _rows_in_out)


# Ray Data calls that execute a plan from the driver
_DATASET_EXEC = ("materialize", "to_pandas", "write_parquet", "count", "to_arrow_refs")


def _plan_ops(ds) -> str:
    """Operator names of the plan a Dataset call executes (private Ray
    attribute; an empty string when it is unavailable)."""
    try:
        op = ds._logical_plan.dag
    except AttributeError:
        return ""
    names, todo = [], [op]
    while todo:
        o = todo.pop()
        names.append(getattr(o, "name", ""))
        todo.extend(getattr(o, "input_dependencies", []))
    return " ".join(names)


def _dataset_label(ds, method: str) -> str:
    ops = _plan_ops(ds)
    if "LinkExtractor" in ops:
        return "raydata.links"
    if "ImageRowBuilder" in ops:
        return "raydata.images"
    if method == "write_parquet":
        return "raydata.write"
    return "raydata.pull"


def install_driver(tracer: Tracer) -> None:
    """Driver-side wrappers: the flagship's merge marker, the crawl
    loop's phases and every Ray Data execution the driver starts."""
    import ray.data

    from heroshi_ray.pipelines import crawl, frontier
    from heroshi_ray.stages import dedup
    from heroshi_ray.state import politeness, seen

    install_kernels(tracer)
    _wrap(tracer, frontier, "fused_schedule_pipeline", "frontier.pipeline")
    _wrap(tracer, frontier, "arrow_blocks", "frontier.arrow_blocks", _blocks)
    _wrap(tracer, dedup, "_first_per_key", "dedup.first_per_key", _first_per_key)
    _wrap(tracer, seen.SeenSet, "check_and_add", "seen.check_and_add")
    _wrap(tracer, politeness.PolitenessPool, "budgets", "crawl.budgets")
    _wrap(tracer, politeness.PolitenessPool, "consume", "crawl.consume")
    _wrap(tracer, crawl.Crawler, "run", "crawl.run")
    _wrap(tracer, crawl.Crawler, "run_epoch", "crawl.epoch")
    _wrap(tracer, crawl.Crawler, "seed", "crawl.seed")
    _wrap(tracer, crawl.Crawler, "_save_state", "crawl.checkpoint")
    for attr, name in (
        ("budget_topk_order_table", "crawl.topk"),
        ("read_frontier_table", "io.frontier_read"),
        ("frontier_row_count", "io.frontier_read"),
        ("write_frontier_table", "io.frontier_write"),
        ("append_epoch_table", "io.logs_write"),
        ("write_epoch_table", "io.logs_write"),
    ):
        _wrap(tracer, crawl, attr, name)

    # fetch_dataset and _attach_captions only build lazy plans; their
    # spans are extended over the execution of the plan they return
    def lazy(owner, attr, name, run_method):
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if getattr(raw, _MARK, False):
            return

        @functools.wraps(raw)
        def wrapper(*args, **kwargs):
            ds = tracer.call(name, raw, args, kwargs, None)
            run = getattr(ds, run_method)

            def timed_run(*a, **k):
                return tracer.call(name, run, a, k, None)

            setattr(ds, run_method, timed_run)
            return ds

        setattr(wrapper, _MARK, True)
        setattr(owner, attr, wrapper)

    lazy(crawl, "fetch_dataset", "fetch.phase", "materialize")
    lazy(crawl.Crawler, "_attach_captions", "crawl.captions", "write_parquet")

    for method in _DATASET_EXEC:
        fn = getattr(ray.data.Dataset, method)
        if getattr(fn, _MARK, False):
            continue

        def make(fn=fn, method=method):
            @functools.wraps(fn)
            def wrapper(self, *args, **kwargs):
                return tracer.call(
                    _dataset_label(self, method), fn, (self,) + args, kwargs, None
                )

            setattr(wrapper, _MARK, True)
            return wrapper

        setattr(ray.data.Dataset, method, make())


def install_worker() -> None:
    """``worker_process_setup_hook`` entry point (runs once per worker
    and actor process when tracing is on)."""
    d = os.environ.get(TRACE_DIR_ENV)
    if not d:
        return
    install_kernels(
        Tracer(os.path.join(d, f"w-{os.getpid()}.jsonl"), os.path.join(d, FLAG))
    )


class WorkerSpans:
    """Incremental reader of the worker span files in a trace dir."""

    def __init__(self, trace_dir: str):
        self.dir = trace_dir
        self._offsets: dict[str, int] = {}
        self.spans: list[dict] = []

    def poll(self) -> list[dict]:
        for name in sorted(os.listdir(self.dir)):
            if not name.startswith("w-"):
                continue
            path = os.path.join(self.dir, name)
            with open(path) as f:
                f.seek(self._offsets.get(name, 0))
                data = f.read()
            # only whole lines; a writer may be mid-append
            end = data.rfind("\n") + 1
            self._offsets[name] = self._offsets.get(name, 0) + end
            self.spans.extend(json.loads(ln) for ln in data[:end].splitlines())
        return self.spans
