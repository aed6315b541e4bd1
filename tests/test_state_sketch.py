"""Robots cache actor pool, phash near-dup op, deterministic sample."""

from __future__ import annotations


def test_robots_cache_pool(ray_session):
    from heroshi_ray.functions.robots import allowed, crawl_delay
    from heroshi_ray.state.robotscache import RobotsCache

    fetch_table = {
        "a.example": ("User-agent: *\nDisallow: /x/\nCrawl-delay: 3\n", 200),
        "b.example": ("", 404),
        "c.example": ("", 503),
    }
    rc = RobotsCache(fetch_table, n_shards=2)
    rules = rc.rules_for(["a.example", "b.example", "c.example", "unknown.example"])
    assert not allowed(rules["a.example"], "/x/page")
    assert allowed(rules["a.example"], "/y")
    assert crawl_delay(rules["a.example"]) == 3.0
    assert allowed(rules["b.example"], "/anything")
    assert not allowed(rules["c.example"], "/anything")  # 5xx -> disallow all
    assert allowed(rules["unknown.example"], "/anything")  # no robots -> allow
    # second lookup is served from cache (same result)
    rules2 = rc.rules_for(["a.example"])
    assert rules2["a.example"] == rules["a.example"]
    stats = rc.stats()
    assert sum(s["hosts_cached"] for s in stats) >= 4
    rc.shutdown()


def test_sample_deterministic(ray_session):
    from heroshi_ray.pipelines.dataops import q_sample

    sf = "/root/testdata/sf0.001"
    a = q_sample(sf).to_pandas()
    b = q_sample(sf).to_pandas()
    assert len(a) == len(b)
    assert 0 < len(a) < 6000 * 0.05
