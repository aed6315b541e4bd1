"""Fast self-test of the benchmark (``python3 perfbench/run.py --selftest``).

On small inputs (a 36k-URL frontier, a 600-page web) it checks:

- the sizing guard exits with a message, without starting Ray, when the
  actor reservations leave less than one CPU for tasks;
- every workload passes its output check untraced and traced, and the
  traced layer split covers 90-100% of the rep's wall time for the crawl
  and 50-100% for the handouts: their split counts only time in which a
  kernel runs, and on these small inputs (0.3 s reps) Ray's fixed cost
  per plan and per task is a larger share than at full size (where the
  handouts' split covered about 96% on 4 CPUs);
- a handout with one row dropped or duplicated, and a crawl with a host's
  order swapped or a seen URL lost, are rejected, while a row lost to a
  genuine cuckoo false positive is accepted;
- an injected raising rep still yields a parsed summary with failures.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(*args: str, expect_rc: int = 0, preexec_fn=None) -> tuple[dict | None, str]:
    p = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--scale", "small", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170, preexec_fn=preexec_fn,
    )
    if p.returncode != expect_rc:
        raise AssertionError(f"{args}: rc {p.returncode}\n{p.stderr[-3000:]}")
    lines = p.stdout.strip().splitlines()
    if expect_rc:
        return None, p.stderr
    return json.loads(lines[-1]), p.stderr


def check_guard() -> None:
    def one_cpu():
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    res, err = _run("--workload", "crawl", expect_rc=1, preexec_fn=one_cpu)
    assert "leaves" in err and "< 1 for tasks" in err, err[-500:]
    print("ok   guard: crawl on one CPU refused before Ray starts")


def check_workloads() -> None:
    for w in ("handout", "handout-catchup", "crawl"):
        plain, _ = _run("--workload", w, "--seconds", "1", "--trace", "0")
        assert plain["correct"] and plain["failed"] == 0, plain
        assert set(plain["metrics"]) == {"setup_s", "urls_per_s", "driver_peak_rss_mib"}
        traced, _ = _run("--workload", w, "--seconds", "1", "--trace", "1")
        assert traced["correct"] and traced["failed"] == 0, traced
        cov = traced["metrics"]["split.coverage"]["value"]
        low = 0.9 if w == "crawl" else 0.5
        assert low <= cov <= 1.0, f"{w}: layer split covers {cov:.3f} of wall time"
        print(f"ok   {w}: checks pass, traced split covers {cov:.3f} of wall, "
              f"tracing overhead {traced['metrics']['trace.overhead_frac']['value']:+.3f}")


def check_injected_failure() -> None:
    res, _ = _run("--workload", "handout", "--seconds", "1", "--inject-fail", "0")
    assert res["failed"] >= 1 and res["attempted"] > res["failed"], res
    assert not res["correct"] and "urls_per_s" in res["metrics"], res
    print(f"ok   injected failure: failed {res['failed']} of {res['attempted']} reps")


def check_handout_rejections() -> None:
    import pyarrow as pa
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.frontier import synth_robots
    from perfbench.inputs import SCALES, write_frontier
    from perfbench.reference import HandoutReference

    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as d:
        write_frontier(d, SCALES["small"], seed=5)
        urls = pq.read_table(d).column("url").to_pylist()
    ref = HandoutReference(urls, synth_robots())
    budget, limit, shards, cap = 8, 400, 4, 1 << 16
    none = np.zeros(0, np.uint64)
    sel = ref.handout(none, budget, limit)
    good = ref.table(sel)
    assert ref.check(good, none, budget, limit, shards, cap) is None
    dropped = pa.concat_tables([good.slice(0, 10), good.slice(11)])
    assert ref.check(dropped, none, budget, limit, shards, cap) is not None
    dup = pa.concat_tables([good.slice(0, 11), good.slice(10)])
    assert ref.check(dup, none, budget, limit, shards, cap) is not None
    # a held key differing from row 10's only in a bit that neither the
    # shard routing, the bucket index nor the fingerprint reads makes
    # row 10 a cuckoo false positive: its loss is legitimate, and the
    # next candidate of its host moves up into the handout
    k = ref.keys[sel[10]]
    twin = np.array([k ^ np.uint64(1 << 40)], np.uint64)
    shifted = ref.table(ref.handout(np.array([k], np.uint64), budget, limit))
    assert ref.check(shifted, twin, budget, limit, shards, cap) is None
    assert ref.check(shifted, none, budget, limit, shards, cap) is not None
    print("ok   handout check: dropped and duplicated rows rejected, "
          "a cuckoo false positive accepted")


def check_crawl_rejections() -> None:
    from heroshi_ray.fixtures import write_fixture_dir
    from perfbench.inputs import SCALES
    from perfbench.reference import check_crawl, crawl_golden
    from perfbench.workloads import crawl_config

    scale = SCALES["small"]
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".perfbench")) as d:
        paths = write_fixture_dir(d, n_hosts=scale.hosts, n_pages=scale.pages,
                                  n_images=scale.images, n_seeds=scale.seeds, seed=3)
        golden = crawl_golden(paths, crawl_config(scale))
    assert check_crawl(copy.deepcopy(golden), golden) is None
    swapped = copy.deepcopy(golden)
    host = next(h for h, urls in swapped["order"].items() if len(urls) >= 2)
    swapped["order"][host][:2] = swapped["order"][host][1::-1]
    assert check_crawl(swapped, golden) is not None
    lost = copy.deepcopy(golden)
    lost["seen"].pop()
    assert check_crawl(lost, golden) is not None
    print("ok   crawl check: swapped host order and lost seen URL rejected")


def main() -> int:
    os.makedirs(os.path.join(ROOT, ".perfbench"), exist_ok=True)
    check_guard()
    check_handout_rejections()
    check_crawl_rejections()
    check_injected_failure()
    check_workloads()
    print("selftest passed")
    return 0
