"""Frontier benchmark: fresh handout, catch-up handout and crawl loop.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload handout --seed 1 --seconds 10 --trace 0

Workloads (inputs made from --seed; Ray num_cpus = the CPUs this process
may run on, from os.sched_getaffinity):

- ``handout``: ``pipelines.frontier.fused_schedule_pipeline`` over a
  fresh synthetic frontier (canonicalize, robots, cuckoo inserts);
- ``handout-catchup``: the same frontier after a partial crawl: half of
  its canonical keys are already in the seen set, the per-host budget
  never binds and the epoch budget does, so the driver merge works;
- ``crawl``: ``pipelines.crawl.Crawler.run`` over a synthetic web.

Every rep's output is checked against an independent reference (see
reference.py). The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with --trace 0
the metrics are the end-to-end ones, with --trace 1 the per-layer ones
(reps then alternate untraced and traced, and ``trace.overhead_frac``
compares them). The line before it records the host.

The benchmark itself runs in a child process in a session of its own;
the parent stops every process of that session and removes the run's
files when it ends, and starts it again when Ray failed to start.

``--selftest`` runs the fast self-test instead (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

T_START = time.time()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import inputs, layers  # noqa: E402

WORKLOADS = ("handout", "handout-catchup", "crawl")
# raylet worker-pool settings bench.py also uses: the gate's shard RPC
# makes the raylet backfill blocked slots, and killing idle backfill
# workers would re-import the pipeline chain for every block
RAYLET_ENV = {
    "RAY_num_workers_soft_limit": "160",
    "RAY_idle_worker_killing_time_threshold_ms": "10000000",
}
RUN_BUDGET_S = 120  # no rep starts after this much of the run


class TraceControl:
    """Driver tracer plus the worker span files of one run."""

    def __init__(self, trace_dir: str):
        from perfbench import trace

        self.flag = os.path.join(trace_dir, trace.FLAG)
        self.driver = trace.Tracer()
        self.workers = trace.WorkerSpans(trace_dir)
        trace.install_driver(self.driver)

    def enable(self, on: bool) -> None:
        self.driver.on = on
        if on:
            open(self.flag, "w").close()
        elif os.path.exists(self.flag):
            os.remove(self.flag)

    def spans(self) -> list[dict]:
        return self.driver.spans + self.workers.poll()


def cpu_times() -> list[int]:
    """Aggregate CPU time counters (user, nice, system, idle, iowait, irq,
    softirq, steal, ...) in clock ticks."""
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def host_record(num_cpus: int, task_cpus: float, ticks0: list[int]) -> dict:
    """The host and settings of this run; ``cpu_steal_frac`` is the share
    of CPU time the hypervisor gave to other guests since ``ticks0``."""
    import polars
    import pyarrow
    import ray

    d = [b - a for a, b in zip(ticks0, cpu_times())]
    return {
        "cores": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / (1 << 30), 2),
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "polars": polars.__version__,
        "python": sys.version.split()[0],
        "ray_num_cpus": num_cpus,
        "task_cpus": task_cpus,
        "raylet_env": {k: os.environ.get(k) for k in RAYLET_ENV},
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "cpu_steal_frac": round(d[7] / sum(d), 4) if len(d) > 7 and sum(d) else None,
    }


def sizing(workload: str, scale: inputs.Scale) -> tuple[int, float]:
    """Ray num_cpus (the CPUs this process may run on) and the CPUs left
    for tasks after the workload's fractional actor reservations. Exits
    with a message when less than one whole CPU would be left: Ray Data
    then makes no progress at all instead of failing."""
    from perfbench.workloads import actor_cpus

    num_cpus = len(os.sched_getaffinity(0))
    reserved = actor_cpus(workload, scale)
    if num_cpus - reserved < 1:
        sys.exit(
            f"perfbench: {workload} reserves {reserved:.2f} CPUs for actors; "
            f"num_cpus={num_cpus} leaves {num_cpus - reserved:.2f} < 1 for tasks"
        )
    return num_cpus, num_cpus - reserved


def ray_temp_dir(base: str) -> str:
    """Ray's temp dir for one run: inside the checkout when the socket
    paths fit the 107-byte Unix limit (session dir name and socket name
    add about 62 bytes), else a fresh directory in the system temp dir.
    The run removes it at its end."""
    tmp = os.path.join(base, f"ray-{os.getpid()}")
    if len(tmp) <= 45:
        os.makedirs(tmp, exist_ok=True)
        return tmp
    import tempfile

    return tempfile.mkdtemp(prefix="perfbench-")


def stop_session(sid: int, timeout_s: float = 20.0) -> None:
    """Kill every process of session ``sid`` and wait until each has
    ended (zombies, whose parent has died, count as ended)."""

    def members() -> list[int]:
        out = []
        for d in os.listdir("/proc"):
            if d.isdigit():
                try:
                    with open(f"/proc/{d}/stat") as f:
                        state, _, _, session = f.read().rsplit(")", 1)[1].split()[:4]
                except (OSError, ValueError):
                    continue
                if int(session) == sid and state != "Z":
                    out.append(int(d))
        return out

    t0 = time.time()
    while time.time() - t0 < timeout_s:
        pids = members()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        time.sleep(0.1)
    print(f"perfbench: processes still running: {members()}", file=sys.stderr, flush=True)


RUN_TRIES = 3
RETRY_BY_S = 80  # no new attempt after this much of the run
RUN_TIMEOUT_S = 170  # the run ends after this, however far it got
PHASE_FILE = "phase"


def supervise(argv: list[str]) -> int:
    """Run the benchmark in a child process with a session of its own, so
    that every process it starts (Ray's daemons and workers included) is
    found and stopped, and its files removed, however it ends. A child
    whose Ray start failed is started again: on a loaded host the raylet
    has been seen to hang before it registers, and the driver process
    then dies with it. Only the last attempt's standard output is
    printed."""
    import subprocess

    # a terminated run still stops its child (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    rc, out = 1, ""
    for attempt in range(1, RUN_TRIES + 1):
        work = os.path.join(base, f"run-{os.getpid()}-{attempt}")
        os.makedirs(work)
        ray_tmp = ray_temp_dir(base)
        child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), *argv,
             "--work", work, "--ray-tmp", ray_tmp,
             "--deadline", str(T_START + RUN_BUDGET_S)],
            stdout=subprocess.PIPE, text=True, start_new_session=True,
        )
        try:
            out, _ = child.communicate(timeout=max(1.0, T_START + RUN_TIMEOUT_S - time.time()))
            rc = child.returncode
        except subprocess.TimeoutExpired:
            child.terminate()  # the child shuts Ray down on SIGTERM
            try:
                child.communicate(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.communicate()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr, flush=True)
            rc, out = 1, ""
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            stop_session(child.pid)
            try:
                with open(os.path.join(work, PHASE_FILE)) as f:
                    phase = f.read()
            except OSError:
                phase = ""
            shutil.rmtree(work, ignore_errors=True)
            shutil.rmtree(ray_tmp, ignore_errors=True)
        if rc == 0 or phase != "ray-start" or time.time() - T_START > RETRY_BY_S:
            break
        print(f"perfbench: attempt {attempt} failed while starting Ray; starting again",
              file=sys.stderr, flush=True)
        time.sleep(5)
    print(out, end="", flush=True)
    return rc


def start_ray(num_cpus: int, ray_tmp: str, trace_dir: str | None):
    """A local Ray of ``num_cpus`` CPUs with its temp dir at ``ray_tmp``;
    when traced, workers install the span wrappers at start."""
    import logging

    import ray

    for k, v in RAYLET_ENV.items():
        os.environ.setdefault(k, v)
    # workers import heroshi_ray and perfbench from the checkout root
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p
    )
    kwargs = {}
    if trace_dir:
        from perfbench import trace

        os.environ[trace.TRACE_DIR_ENV] = trace_dir
        kwargs["runtime_env"] = {
            "worker_process_setup_hook": "perfbench.trace.install_worker"
        }
    logging.getLogger("ray").setLevel(logging.ERROR)
    ray.init(
        address="local", num_cpus=num_cpus, include_dashboard=False,
        logging_level="ERROR", log_to_driver=False,
        object_store_memory=512 << 20, _temp_dir=ray_tmp, **kwargs,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def summary(res, trace: bool) -> dict:
    """The result line: end-to-end metrics (medians over reps) or, when
    traced, per-layer metrics (medians over traced reps)."""
    ok = res.attempted - res.failed
    out = {"correct": res.failed == 0 and ok > 0, "attempted": res.attempted,
           "failed": res.failed, "metrics": {}}
    m = out["metrics"]
    if not trace:
        if res.reps:
            m["setup_s"] = {"value": res.setup_once_s + res.median("setup_s"), "unit": "s"}
            m["urls_per_s"] = {"value": res.median("urls_per_s"), "unit": "1/s"}
            m["driver_peak_rss_mib"] = {"value": res.median("peak_rss_mib"), "unit": "MiB"}
        return out
    traced = [r.layers for r in res.reps if r.traced]
    if traced:
        import statistics

        for name in layers.PER_LAYER:
            m[name] = {"value": statistics.median(t[name] for t in traced),
                       "unit": layers.unit(name)}
        plain = res.median("urls_per_s")
        with_trace = res.median("urls_per_s", traced=True)
        m["trace.urls_per_s"] = {"value": with_trace, "unit": "1/s"}
        m["trace.overhead_frac"] = {
            "value": plain / with_trace - 1.0 if plain else 0.0, "unit": "ratio"
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(inputs.SCALES), default="full")
    ap.add_argument("--inject-fail", type=int, default=-1,
                    help="make the timed rep with this index raise")
    ap.add_argument("--selftest", action="store_true")
    # set by supervise() for the child process that runs the benchmark
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--ray-tmp", help=argparse.SUPPRESS)
    ap.add_argument("--deadline", type=float, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.selftest:
        from perfbench import selftest

        return selftest.main()
    if args.workload is None:
        ap.error("--workload is required")
    if args.work is None:
        return supervise(sys.argv[1:] if argv is None else argv)

    # the program under test must be importable before anything runs
    import heroshi_ray.pipelines.crawl  # noqa: F401
    import tests.oracle_crawler  # noqa: F401

    from perfbench import workloads

    scale = inputs.SCALES[args.scale]
    num_cpus, task_cpus = sizing(args.workload, scale)
    work = args.work
    trace_dir = os.path.join(work, "trace") if args.trace else None
    if trace_dir:
        os.makedirs(trace_dir)
    import ray

    # a terminated run still shuts Ray down (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        with open(os.path.join(work, PHASE_FILE), "w") as f:
            f.write("ray-start")
        t_ray = time.time()
        start_ray(num_cpus, args.ray_tmp, trace_dir)
        with open(os.path.join(work, PHASE_FILE), "w") as f:
            f.write("ray-up")
        print(f"perfbench: start {t_ray - T_START:.2f} s, ray {time.time() - t_ray:.2f} s",
              file=sys.stderr, flush=True)
        ctx = workloads.Context(
            scale=scale, seed=args.seed, seconds=args.seconds, work=work,
            task_cpus=task_cpus,
            tracing=TraceControl(trace_dir) if trace_dir else None,
            inject_fail=args.inject_fail, deadline=args.deadline,
        )
        ticks0 = cpu_times()
        t_workload = time.time()
        if args.workload == "crawl":
            res = workloads.run_crawl(ctx)
        else:
            res = workloads.run_handout(ctx, catchup=args.workload == "handout-catchup")
        # interpreter start, imports and Ray start count as set-up too
        res.setup_once_s += t_workload - T_START
        print(json.dumps({"host": host_record(num_cpus, task_cpus, ticks0)}), flush=True)
    finally:
        t_down = time.time()
        ray.shutdown()
        print(f"perfbench: shutdown {time.time() - t_down:.2f} s", file=sys.stderr, flush=True)
    print(json.dumps(summary(res, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
