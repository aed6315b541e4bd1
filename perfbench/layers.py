"""Per-layer metrics of one rep, computed from its spans.

``handout_layers`` and ``crawl_layers`` return every per-layer metric;
a layer the workload does not run reports 0. The wall split of each
workload (``split.coverage``) is the share of the rep's wall time that
named layers account for:

- handout: Ray Data plan start (rep start to the first canonicalize or
  gate kernel), the time within the gate window (first kernel to the
  driver merge) during which at least one canonicalize or gate kernel
  runs in some worker, and the merge; the rest is unattributed: moments
  of the gate window with no kernel running anywhere
  (``frontier.gate_idle_s``: task scheduling, reads, result transfer),
  and the final ``count`` with its driver glue;
- crawl: each driver span mapped to a layer below, counted once at its
  outermost mapped ancestor; the remainder of ``Crawler.run`` is
  ``crawl.unattributed_s``.
"""

from __future__ import annotations

# driver span name -> crawl wall-split layer
CRAWL_LAYER = {
    "crawl.seed": "crawl.seed_s",
    "crawl.checkpoint": "crawl.checkpoint_s",
    "io.frontier_read": "io.frontier_read_s",
    "schedule.robots": "crawl.handout_s",
    "crawl.budgets": "crawl.handout_s",
    "crawl.consume": "crawl.handout_s",
    "crawl.topk": "crawl.handout_s",
    "fetch.phase": "fetch.wall_s",
    "raydata.links": "extract.links_wall_s",
    "raydata.images": "extract.images_wall_s",
    "crawl.captions": "crawl.captions_s",
    "urlnorm.canonicalize": "crawl.admit_s",
    "dedup.first_per_key": "crawl.admit_s",
    "seen.check_and_add": "crawl.admit_s",
    "io.frontier_write": "io.frontier_write_s",
    "io.logs_write": "io.logs_write_s",
    "raydata.write": "io.logs_write_s",
    "raydata.pull": "crawl.raydata_pull_s",
}

PER_LAYER = (
    "urlnorm.canonicalize_busy_s", "urlnorm.rows",
    "schedule.robots_busy_s", "schedule.robots_denied",
    "hashing.hash64_busy_s", "frontier.inbatch_dups",
    "seen.rpc_s", "seen.keys", "seen.hit_ratio",
    "cuckoo.add_busy_s",
    "frontier.plan_start_s", "frontier.gate_busy_s", "frontier.gate_self_s",
    "frontier.gate_wall_s", "frontier.gate_idle_s",
    "frontier.gate_util", "frontier.capped_rows", "frontier.merge_s",
    "crawl.seed_s", "crawl.handout_s",
    "fetch.wall_s", "fetch.busy_s", "fetch.ok", "fetch.err",
    "extract.links_wall_s", "extract.links_busy_s", "extract.links",
    "extract.images_wall_s", "extract.images_busy_s",
    "crawl.captions_s", "crawl.admit_s", "crawl.admit_ratio",
    "io.frontier_read_s", "io.frontier_write_s", "io.logs_write_s",
    "crawl.checkpoint_s", "crawl.raydata_pull_s", "crawl.unattributed_s",
    "split.coverage",
)


def _dur(s: dict) -> float:
    return s["t1"] - s["t0"]


def _sum(spans, name, key=None) -> float:
    return sum((s.get(key, 0) if key else _dur(s)) for s in spans if s["name"] == name)


def _kernels(spans: list[dict]) -> dict:
    """Layer metrics that every workload shares (driver and worker spans)."""
    keys = _sum(spans, "seen.check_and_add_keys", "n")
    new = _sum(spans, "seen.check_and_add_keys", "new")
    return {
        # self time: canonicalize_candidates calls no other traced layer
        "urlnorm.canonicalize_busy_s": _sum(spans, "urlnorm.canonicalize"),
        "urlnorm.rows": _sum(spans, "urlnorm.canonicalize", "n"),
        "schedule.robots_busy_s": _sum(spans, "schedule.robots"),
        "schedule.robots_denied": _sum(spans, "schedule.robots", "denied"),
        "hashing.hash64_busy_s": _sum(spans, "hashing.hash64"),
        # a call waits on its shards in parallel, so rpc_s is not the sum
        # of the shards' cuckoo time: compare the two per workload
        "seen.rpc_s": _sum(spans, "seen.check_and_add_keys"),
        "seen.keys": keys,
        "seen.hit_ratio": 1.0 - new / keys if keys else 0.0,
        "cuckoo.add_busy_s": _sum(spans, "cuckoo.add"),
    }


def _union(spans: list[dict], t0: float, t1: float) -> float:
    """Length of [t0, t1] covered by at least one of ``spans``."""
    total, end = 0.0, t0
    for s in sorted(spans, key=lambda s: s["t0"]):
        a, b = max(s["t0"], end), min(s["t1"], t1)
        if b > a:
            total += b - a
        end = max(end, min(s["t1"], t1))
    return total


def _window(spans: list[dict], t0: float, t1: float) -> list[dict]:
    return [s for s in spans if t0 <= s["t0"] <= t1]


def handout_layers(spans: list[dict], t0: float, t1: float, task_cpus: float) -> dict:
    """``spans``: driver and worker spans; [t0, t1] the rep's clock."""
    spans = _window(spans, t0, t1)
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(_kernels(spans))
    gate = [s for s in spans if s["name"] in ("frontier.gate", "urlnorm.canonicalize")]
    pipe = [s for s in spans if s["name"] == "frontier.pipeline"]
    blocks = [s for s in spans if s["name"] == "frontier.arrow_blocks"]
    if not (gate and pipe and blocks):
        raise RuntimeError("handout trace lacks gate, pipeline or merge spans")
    g0 = min(s["t0"] for s in gate)
    gate_wall = blocks[0]["t0"] - g0
    gate_active = _union(gate, g0, blocks[0]["t0"])
    gate_busy = _sum(spans, "frontier.gate")
    in_gate = [s for s in spans if "frontier.gate" in s["anc"]]
    merge = pipe[0]["t1"] - blocks[0]["t0"]
    wall = t1 - t0
    out.update({
        "frontier.inbatch_dups": _sum(spans, "frontier.gate", "n")
        - _sum(in_gate, "schedule.robots", "denied")
        - _sum(in_gate, "seen.check_and_add_keys", "n"),
        "frontier.plan_start_s": g0 - t0,
        "frontier.gate_busy_s": gate_busy,
        # the gate minus its traced robots, hash and seen-set calls:
        # in-batch dedup, local top-k and Arrow glue
        "frontier.gate_self_s": _sum(spans, "frontier.gate", "self"),
        "frontier.gate_wall_s": gate_wall,
        "frontier.gate_idle_s": gate_wall - gate_active,
        "frontier.gate_util": (gate_busy + out["urlnorm.canonicalize_busy_s"])
        / (gate_wall * task_cpus),
        "frontier.capped_rows": blocks[0]["n"],
        "frontier.merge_s": merge,
        "split.coverage": ((g0 - t0) + gate_active + merge) / wall,
    })
    return out


def crawl_layers(spans: list[dict], t0: float, t1: float, admitted: int) -> dict:
    spans = _window(spans, t0, t1)
    out = dict.fromkeys(PER_LAYER, 0.0)
    out.update(_kernels(spans))
    for s in spans:
        layer = CRAWL_LAYER.get(s["name"])
        # driver spans only (workers record no ancestors of these names),
        # counted at the outermost mapped span
        if layer and s.get("driver") and not any(a in CRAWL_LAYER for a in s["anc"]):
            out[layer] += _dur(s)
    wall = t1 - t0
    named = sum(out[v] for v in set(CRAWL_LAYER.values()))
    links = _sum(spans, "extract.links", "out")
    fetched = _sum(spans, "fetch.fetcher", "n")
    ok = _sum(spans, "fetch.fetcher", "ok")
    out.update({
        "fetch.busy_s": _sum(spans, "fetch.fetcher"),
        "fetch.ok": ok,
        "fetch.err": fetched - ok,
        "extract.links_busy_s": _sum(spans, "extract.links"),
        "extract.images_busy_s": _sum(spans, "extract.images"),
        "extract.links": links,
        "crawl.admit_ratio": admitted / links if links else 0.0,
        "crawl.unattributed_s": wall - named,
        "split.coverage": named / wall,
    })
    return out


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_util", "coverage")):
        return "ratio"
    return "count"
