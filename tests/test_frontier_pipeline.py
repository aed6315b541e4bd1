"""Fused schedule pipeline: dedup exactness, budget enforcement,
determinism."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa


def test_fused_schedule(ray_session, tmp_path):
    import ray

    from heroshi_ray.pipelines.frontier import fused_schedule_pipeline

    # 3 hosts; hostA has 30 candidates (budget caps it), dup URLs collapse
    urls = []
    for j in range(30):
        urls.append(f"http://hosta.example/p/{j}")
    urls += [f"HTTP://HOSTA.example:80/p/{j}" for j in range(10)]  # dups of first 10
    urls += [f"http://hostb.example/q/{j}" for j in range(5)]
    urls += ["http://hostc.example/only"]
    ds = ray.data.from_arrow(pa.table({"url": pa.array(urls)}))

    out = fused_schedule_pipeline(
        ds, per_host_budget=8, epoch_budget=100, n_seen_shards=2,
        seen_capacity=1 << 12, n_buckets=4,
    ).to_pandas()
    per_host = out.groupby("host").size().to_dict()
    assert per_host["hosta.example"] == 8  # budget enforced
    assert per_host["hostb.example"] == 5
    assert per_host["hostc.example"] == 1
    assert out["surt"].is_unique  # dedup exact
    # epoch budget cap
    out2 = fused_schedule_pipeline(
        ray.data.from_arrow(pa.table({"url": pa.array(urls)})),
        per_host_budget=8, epoch_budget=3, n_seen_shards=2,
        seen_capacity=1 << 12, n_buckets=4,
    ).to_pandas()
    assert len(out2) == 3

    # determinism: same input, fresh seen set -> identical result
    out3 = fused_schedule_pipeline(
        ray.data.from_arrow(pa.table({"url": pa.array(urls)})),
        per_host_budget=8, epoch_budget=100, n_seen_shards=2,
        seen_capacity=1 << 12, n_buckets=4,
    ).to_pandas()
    a = out.sort_values("surt").reset_index(drop=True)
    b = out3.sort_values("surt").reset_index(drop=True)
    assert a[["url", "surt", "host"]].equals(b[["url", "surt", "host"]])


def test_synth_frontier_deterministic(ray_session):
    from heroshi_ray.pipelines.frontier import synth_frontier_from_sf

    sf = "/root/testdata/sf0.001"
    a = synth_frontier_from_sf(sf, expand=2).to_pandas().sort_values("url").reset_index(drop=True)
    b = synth_frontier_from_sf(sf, expand=2).to_pandas().sort_values("url").reset_index(drop=True)
    assert a.equals(b)  # same multiset of URLs (block order is not stable)
    assert len(a) == 2 * 6001 or len(a) > 10000  # 2x lineitem rows


def test_frontier_schedule_counts_budget_semantics(ray_session):
    """The flagship's driver-trust twin must exercise the budget for
    real: per-host totals capped at the budget, at least one host
    truncated mid-priority-class (the window-function boundary), and
    counts stable across runs (fresh seen set per call)."""
    from heroshi_ray.pipelines.frontier import frontier_schedule_counts

    sf = "/root/testdata/sf0.001"
    t = frontier_schedule_counts(sf).to_pandas()
    per_host = t.groupby("host")["n"].sum()
    assert (per_host <= 16).all()
    assert (per_host == 16).any()  # budget binds somewhere
    # boundary class is partial for at least one host: its last depth
    # class count is below the class's full size iff the cumulative cut
    # landed mid-class — detectable as a host where the budget binds
    # across >1 depth class (pure-class cuts of 16 rows with ~37 depth
    # classes at sf0.001 class sizes are measure-zero)
    multi = t[t["host"].isin(per_host[per_host == 16].index)]
    assert (multi.groupby("host").size() > 1).any()
    t2 = frontier_schedule_counts(sf).to_pandas()
    assert t.sort_values(["host", "depth"]).reset_index(drop=True).equals(
        t2.sort_values(["host", "depth"]).reset_index(drop=True)
    )


def test_robots_actor_path_equals_broadcast(ray_session, tmp_path):
    """A-R actor-pool robots path schedules identically to the broadcast
    path (same parse function, cached per shard)."""
    from heroshi_ray.fixtures import write_fixture_dir
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    paths = write_fixture_dir(
        str(tmp_path / "fx"), n_hosts=3, n_pages=24, n_images=6, n_seeds=4, seed=11
    )
    outs = []
    for robots_actors in (False, True):
        cfg = CrawlConfig(
            epoch_budget=32, max_epochs=4, robots_via_actors=robots_actors
        )
        c = Crawler(paths, str(tmp_path / f"wd{robots_actors}"), cfg)
        c.run()
        log = c.schedule_order()
        df = (
            log.to_pandas().sort_values(["sched_epoch", "rank"]).reset_index(drop=True)
            if log is not None
            else None
        )
        outs.append(df)
        c.shutdown()
    assert outs[0] is not None and outs[1] is not None
    assert outs[0][["sched_epoch", "rank", "url"]].equals(
        outs[1][["sched_epoch", "rank", "url"]]
    )


def test_url_filter_and_priority_hooks(ray_session):
    import numpy as np
    import ray

    from heroshi_ray.stages.canonicalize import canonicalize_candidates

    batch = pa.table(
        {"url": pa.array([
            "http://ok.example/a",
            "http://blocked.example/b",
            "http://ok.example/tracking/pixel",
        ])}
    )
    out = canonicalize_candidates(
        batch,
        url_filter=lambda urls, hosts, depth: np.array(
            [h != "blocked.example" and "/tracking/" not in u
             for u, h in zip(urls, hosts)],
            dtype=bool,
        ),
    )
    assert out.column("url").to_pylist() == ["http://ok.example/a"]

    out2 = canonicalize_candidates(
        batch, priority_fn=lambda d: np.full(len(d), 0.42)
    )
    assert set(out2.column("priority").to_pylist()) == {0.42}


def test_fused_schedule_spill_path_equals_driver_merge(ray_session):
    """driver_merge_max=0 forces the distributed (groupby + sort) final
    merge; the scheduled set and ordering semantics must be identical to
    the driver-merge branch."""
    import ray

    from heroshi_ray.pipelines.frontier import fused_schedule_pipeline

    urls = [f"http://h{i % 7}.example/p/{i}" for i in range(200)]

    def run(**kw):
        return fused_schedule_pipeline(
            ray.data.from_arrow(pa.table({"url": pa.array(urls)})),
            per_host_budget=5, epoch_budget=20, n_seen_shards=2,
            seen_capacity=1 << 12, n_buckets=4, **kw,
        ).to_pandas()

    a = run()
    b = run(driver_merge_max=0)
    key = ["url", "surt", "host", "priority"]
    pd.testing.assert_frame_equal(
        a[key].sort_values("surt").reset_index(drop=True),
        b[key].sort_values("surt").reset_index(drop=True),
    )
    assert len(b) == 20


def test_flagship_robots_gate(ray_session):
    """With robots wired into the fused gate, denied URLs never appear
    in the handout, allow-overrides survive, and the robots run is a
    subset of the robots-less run on identical input."""
    import pyarrow as pa

    from heroshi_ray.functions.robots import parse_robots
    from heroshi_ray.pipelines.frontier import fused_schedule_pipeline

    urls = pa.table(
        {
            "url": pa.array(
                [f"http://ha.example/o/{k}/l/1" for k in range(30)]
                + [f"http://ha.example/o/22/l/{k}" for k in range(3)]
                + [f"http://hb.example/o/{k}/l/1" for k in range(30)],
                pa.string(),
            )
        }
    )
    robots = {
        "ha.example": parse_robots("User-agent: *\nDisallow: /o/2\nAllow: /o/22\n")
    }

    def run(rb):
        import ray

        return fused_schedule_pipeline(
            ray.data.from_arrow(urls),
            per_host_budget=64,
            epoch_budget=1000,
            n_seen_shards=2,
            seen_capacity=1 << 14,
            robots=rb,
        ).to_pandas()

    with_rb = run(robots)
    without = run(None)
    got = set(with_rb["url"])
    # /o/2, /o/20..29 denied on ha; /o/22 allowed back; hb untouched
    assert not any(u.startswith("http://ha.example/o/2") and "/o/22/" not in u
                   and not u.startswith("http://ha.example/o/22") for u in got)
    # /o/22/l/{0,1,2} plus /o/22/l/1 from the first range, deduped -> 3
    assert sum(u.startswith("http://ha.example/o/22") for u in got) == 3
    assert sum(u.startswith("http://hb.example/") for u in got) == 30
    assert got < set(without["url"])


def test_fused_schedule_extreme_host_skew(ray_session):
    """Pathological hot-host skew (50% of a 120k-URL frontier on ONE
    host, a Zipf tail behind it): the per-host budget cap inside the
    COMBINER bounds the hot host before anything shuffles, so the
    result must (a) cap every host at budget, (b) keep the hot host
    from crowding out the tail, (c) stay byte-deterministic across
    fresh runs. This is the north rule's 'skew handled explicitly'
    contract as an assertion, not prose."""
    import numpy as np
    import ray

    from heroshi_ray.pipelines.frontier import fused_schedule_pipeline

    rng = np.random.default_rng(11)
    n = 120_000
    # host 0 takes half the frontier; the rest Zipf over 500 hosts
    hot = np.zeros(n // 2, np.int64)
    tail = rng.zipf(1.3, n - n // 2).astype(np.int64) % 500 + 1
    hosts = np.concatenate([hot, tail])
    rng.shuffle(hosts)
    urls = [
        f"http://h{h}.example/p/{i}" for i, h in enumerate(hosts)
    ]
    ds = ray.data.from_arrow(
        pa.table({"url": pa.array(urls)})
    ).repartition(32)

    budget = 16
    out = fused_schedule_pipeline(
        ds, per_host_budget=budget, epoch_budget=50_000,
        n_seen_shards=4, seen_capacity=1 << 20, n_buckets=16,
    ).to_pandas()

    per_host = out.groupby("host").size()
    assert per_host.max() <= budget                      # (a) cap holds
    assert per_host.loc["h0.example"] == budget          # hot host capped, not dropped
    # (b) the tail is served: every host with >=budget candidates gets budget
    import collections
    cand_counts = collections.Counter(f"h{h}.example" for h in hosts)
    saturated = [h for h, c in cand_counts.items() if c >= budget]
    got = per_host.reindex(saturated).fillna(0)
    assert (got == budget).all()
    assert out["surt"].is_unique

    # (c) determinism under skew
    out2 = fused_schedule_pipeline(
        ray.data.from_arrow(pa.table({"url": pa.array(urls)})).repartition(32),
        per_host_budget=budget, epoch_budget=50_000,
        n_seen_shards=4, seen_capacity=1 << 20, n_buckets=16,
    ).to_pandas()
    a = out.sort_values("surt").reset_index(drop=True)
    b = out2.sort_values("surt").reset_index(drop=True)
    assert a[["url", "surt", "host"]].equals(b[["url", "surt", "host"]])
