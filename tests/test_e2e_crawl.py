"""Golden end-to-end: Ray engine vs single-process oracle crawler.

Asserts (BASELINE.json:14): identical URL-seen membership, identical
per-host crawl order under the same seed list + politeness budget, and
the per-row corpus invariant (M10) against the reference corpus.
"""

from __future__ import annotations

import pyarrow.parquet as pq
import pytest

from heroshi_ray.fixtures import write_fixture_dir


@pytest.fixture(scope="module")
def crawl_setup(ray_session, tmp_path_factory):
    fx = str(tmp_path_factory.mktemp("fx"))
    wd = str(tmp_path_factory.mktemp("wd"))
    paths = write_fixture_dir(fx, n_hosts=5, n_pages=60, n_images=20, n_seeds=8, seed=42)

    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    cfg = CrawlConfig(epoch_budget=64, max_epochs=14)
    crawler = Crawler(paths, wd, cfg)
    report = crawler.run()

    from tests.oracle_crawler import OracleCrawler

    oracle = OracleCrawler(
        paths,
        epoch_budget=cfg.epoch_budget,
        epoch_seconds=cfg.epoch_seconds,
        burst=cfg.burst,
        max_epochs=cfg.max_epochs,
        max_retries=cfg.max_retries,
        n_seen_shards=cfg.n_seen_shards,
        seen_capacity=cfg.seen_capacity,
        retry_priority_decay=cfg.retry_priority_decay,
        ua=cfg.ua,
    )
    oracle.run()
    yield paths, wd, crawler, report, oracle
    crawler.shutdown()


def engine_per_host_order(crawler):
    tbl = crawler.schedule_order()
    assert tbl is not None
    df = tbl.to_pandas().sort_values(["sched_epoch", "rank"], kind="mergesort")
    out = {}
    for host, url in zip(df["host"], df["url"]):
        out.setdefault(host, []).append(url)
    return out


def engine_seen_membership(crawler, wd):
    from heroshi_ray.sources.io import read_epoch_tables, read_frontier_table

    seeds = read_frontier_table(wd, 0).column("surt").to_pylist()
    adm = read_epoch_tables(wd, "admitted_log")
    out = set(seeds)
    if adm is not None:
        out |= set(adm.column("surt").to_pylist())
    return out


def test_crawl_order_matches_oracle(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    engine = engine_per_host_order(crawler)
    golden = oracle.per_host_order()
    assert set(engine) == set(golden)
    for host in sorted(golden):
        assert engine[host] == golden[host], f"order diverged for {host}"


def test_seen_membership_matches_oracle(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    assert engine_seen_membership(crawler, wd) == oracle.seen_membership()


def test_fetch_counters_match(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    assert report.fetch_ok == oracle.fetch_ok
    assert report.fetch_err == oracle.fetch_err
    assert report.robots_denied == len(oracle.denied)


def test_corpus_matches_oracle_and_invariant(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    ours = crawler.corpus()
    df = ours.to_pandas()
    assert set(df["image_id"]) == set(oracle.corpus)
    for row in df.itertuples():
        orow = oracle.corpus[row.image_id]
        assert row.caption == orow["caption"]
        assert row.phash == orow["phash"]

    # M10: per-row invariant vs the REFERENCE corpus (the fixture table)
    from heroshi_ray.pipelines.verify import verify_corpus

    ref = pq.read_table(paths["corpus"])
    verdicts = verify_corpus(ours, ref).to_pandas()
    assert len(verdicts) == len(df)
    assert verdicts["found"].all()
    assert verdicts["passed"].all(), verdicts[~verdicts["passed"]]


def test_politeness_no_host_overrun(crawl_setup):
    """No epoch schedules more rows for one host than the token burst."""
    paths, wd, crawler, report, oracle = crawl_setup
    tbl = crawler.schedule_order()
    df = tbl.to_pandas()
    per = df.groupby(["sched_epoch", "host"]).size()
    assert (per <= crawler.cfg.burst).all()


def test_no_url_fetched_twice(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    df = crawler.schedule_order().to_pandas()
    # a url may be scheduled at most 1 + max_retries times, and only
    # retried after a 5xx; exact-once for successes
    from heroshi_ray.sources.io import read_epoch_tables

    fetchlog = read_epoch_tables(wd, "fetchlog")
    if fetchlog is None:
        import glob, os
        import pyarrow as pa

        files = sorted(glob.glob(os.path.join(wd, "fetchlog", "e*", "*.parquet")))
        fetchlog = pa.concat_tables([pq.read_table(f) for f in files])
    fdf = fetchlog.to_pandas()
    ok = fdf[fdf["success"]]
    assert ok["surt"].is_unique


def test_robots_denied_never_fetched(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    df = crawler.schedule_order().to_pandas()
    scheduled_surts = set(df["surt"])
    assert not (scheduled_surts & set(oracle.denied))


def test_counters_actor_matches_report(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    totals = crawler.counters_totals()
    assert totals.get("fetch_ok", 0) == report.fetch_ok
    assert totals.get("fetch_err", 0) == report.fetch_err


def test_recrawl_candidates(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    rc = crawler.recrawl_candidates(before_epoch=3, at_epoch=99).to_pandas()
    assert len(rc) > 0
    assert (rc["state"] == 0).all()
    assert (rc["epoch"] == 99).all()
    assert rc["surt"].is_unique  # fetched-once guarantee carries over


def test_host_stats(crawl_setup):
    paths, wd, crawler, report, oracle = crawl_setup
    stats = crawler.host_stats().to_pandas()
    assert len(stats) > 0
    assert int(stats["n_fetches"].sum()) == report.fetch_ok + report.fetch_err
    assert ((stats["success_rate"] >= 0) & (stats["success_rate"] <= 1)).all()


def test_frontier_part_size_invariance(crawl_setup, tmp_path_factory, monkeypatch):
    """A frontier cut into parts of 7 rows (so the handout folds and the
    frontier writer re-cuts several parts per epoch) gives the same
    schedule order, seen membership, counters and fetch log as the
    golden run, whose frontier fits in one part."""
    import pandas as pd

    from heroshi_ray.pipelines import crawl
    from heroshi_ray.sources import io

    paths, wd, crawler, report, oracle = crawl_setup
    monkeypatch.setattr(io, "FRONTIER_PART_ROWS", 7)
    parts_read: dict = {}
    read = crawl.read_frontier_table

    def counting_read(workdir, epoch, part=None):
        parts_read.setdefault(epoch, set()).add(part)
        return read(workdir, epoch, part)

    monkeypatch.setattr(crawl, "read_frontier_table", counting_read)

    wd2 = str(tmp_path_factory.mktemp("wd_parts"))
    c2 = crawl.Crawler(paths, wd2, crawl.CrawlConfig(epoch_budget=64, max_epochs=14))
    r2 = c2.run()
    try:
        assert max(len(p) for p in parts_read.values()) >= 3, parts_read
        a = (
            crawler.schedule_order()
            .to_pandas()
            .sort_values(["sched_epoch", "rank"], kind="mergesort")
            .reset_index(drop=True)
        )
        b = (
            c2.schedule_order()
            .to_pandas()
            .sort_values(["sched_epoch", "rank"], kind="mergesort")
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
        assert engine_seen_membership(crawler, wd) == engine_seen_membership(
            c2, wd2
        )
        assert (r2.fetch_ok, r2.fetch_err, r2.urls_admitted, r2.robots_denied) == (
            report.fetch_ok,
            report.fetch_err,
            report.urls_admitted,
            report.robots_denied,
        )
        assert sorted_fetch_log(wd2) == sorted_fetch_log(wd)
    finally:
        c2.shutdown()


def test_max_depth_matches_oracle(crawl_setup, tmp_path_factory):
    """``max_depth=1`` admits no link of depth 2, on the same web where
    the golden run reaches depth 2, and matches the oracle at the same
    cap."""
    import glob
    import os

    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig
    from heroshi_ray.sources.io import read_epoch_tables
    from tests.oracle_crawler import OracleCrawler

    paths, wd, crawler, report, oracle = crawl_setup
    assert max(read_epoch_tables(wd, "fetchlog").column("depth").to_pylist()) >= 2

    wd2 = str(tmp_path_factory.mktemp("wd_depth"))
    cfg = CrawlConfig(epoch_budget=64, max_epochs=14, max_depth=1)
    c2 = Crawler(paths, wd2, cfg)
    r2 = c2.run()
    try:
        o2 = OracleCrawler(
            paths,
            epoch_budget=cfg.epoch_budget,
            epoch_seconds=cfg.epoch_seconds,
            burst=cfg.burst,
            max_epochs=cfg.max_epochs,
            max_retries=cfg.max_retries,
            n_seen_shards=cfg.n_seen_shards,
            seen_capacity=cfg.seen_capacity,
            retry_priority_decay=cfg.retry_priority_decay,
            ua=cfg.ua,
            max_depth=1,
        )
        o2.run()
        assert engine_per_host_order(c2) == o2.per_host_order()
        assert engine_seen_membership(c2, wd2) == o2.seen_membership()
        assert (r2.fetch_ok, r2.fetch_err) == (o2.fetch_ok, o2.fetch_err)
        frontier = glob.glob(os.path.join(wd2, "epoch=*", "frontier", "*.parquet"))
        depths = [d for f in frontier for d in pq.read_table(f).column("depth").to_pylist()]
        depths += read_epoch_tables(wd2, "fetchlog").column("depth").to_pylist()
        assert depths and max(depths) == 1
    finally:
        c2.shutdown()


def test_crawler_refuses_cluster_its_actors_fill(ray_session, tmp_path):
    """32 seen shards + 8 politeness shards + the counters actor reserve
    4.05 CPUs of the 4-CPU session: the constructor raises instead of
    the crawl waiting forever for a CPU to fetch with."""
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    paths = write_fixture_dir(
        str(tmp_path / "fx"), n_hosts=2, n_pages=8, n_images=2, n_seeds=2, seed=1
    )
    c = None
    try:
        with pytest.raises(RuntimeError, match=r"= 4\.05 CPUs"):
            c = Crawler(
                paths, str(tmp_path / "wd"),
                CrawlConfig(n_seen_shards=32, n_pol_shards=8),
            )
    finally:
        if c is not None:
            c.shutdown()


def sorted_fetch_log(wd):
    from heroshi_ray.sources.io import read_epoch_tables

    rows = read_epoch_tables(wd, "fetchlog").to_pylist()
    assert rows
    return sorted(rows, key=lambda r: (r["fetched_at"], r["url"]))


def test_driver_fork_epoch_runs_no_dataset_execution(ray_session, tmp_path, monkeypatch):
    """Neither ``seed()`` nor any epoch starts a Ray Data execution or
    builds a Dataset, with the frontier cut into parts of 7 rows and
    including the epochs that write corpus rows: the handout folds the
    parts on the driver, the fetch -> extract round and the corpus
    write are plain task rounds. Every driver-side call that runs a
    plan, and every Dataset construction, is counted once, at its
    outermost call; ``count`` and ``to_arrow_refs`` only on a Dataset
    that is not materialized."""
    import os

    import ray.data
    from ray.data.dataset import MaterializedDataset

    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig
    from heroshi_ray.sources import io

    monkeypatch.setattr(io, "FRONTIER_PART_ROWS", 7)

    state = {"depth": 0, "epoch": None}
    calls: dict = {}

    def count_calls(name, lazy_only):
        fn = getattr(ray.data.Dataset, name)

        def wrapper(self, *args, **kwargs):
            if (
                state["depth"] == 0
                and state["epoch"] is not None
                and not (lazy_only and isinstance(self, MaterializedDataset))
            ):
                calls.setdefault(state["epoch"], []).append(name)
            state["depth"] += 1
            try:
                return fn(self, *args, **kwargs)
            finally:
                state["depth"] -= 1

        monkeypatch.setattr(ray.data.Dataset, name, wrapper)

    for name in (
        "__init__", "materialize", "to_pandas", "write_parquet", "iter_batches",
        "take_all",
    ):
        count_calls(name, False)
    for name in ("count", "to_arrow_refs"):
        count_calls(name, True)

    run_epoch, seed = Crawler.run_epoch, Crawler.seed

    def tracked_run_epoch(self, e, report):
        state["epoch"] = e
        try:
            return run_epoch(self, e, report)
        finally:
            state["epoch"] = None

    def tracked_seed(self):
        state["epoch"] = "seed"
        try:
            return seed(self)
        finally:
            state["epoch"] = None

    monkeypatch.setattr(Crawler, "run_epoch", tracked_run_epoch)
    monkeypatch.setattr(Crawler, "seed", tracked_seed)

    paths = write_fixture_dir(
        str(tmp_path / "fx"), n_hosts=3, n_pages=24, n_images=8, n_seeds=4, seed=5
    )
    wd = str(tmp_path / "wd")
    c = Crawler(paths, wd, CrawlConfig(epoch_budget=32, max_epochs=4))
    c.run()
    c.shutdown()

    def writes_corpus(e):
        d = os.path.join(wd, "corpus", f"e{e}")
        return os.path.isdir(d) and any(f.endswith(".parquet") for f in os.listdir(d))

    assert any(writes_corpus(e) for e in range(4))
    assert max(io.frontier_part_count(wd, e) for e in range(5)) >= 3
    assert not calls, calls
