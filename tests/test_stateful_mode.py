"""Physical-plan equivalence: the crawl loop's stateful stages
(fetch / extract / image-rows) must produce identical results whether
they run as Ray Data actor pools (the 100-TB plan) or as per-worker-
process cached tasks (the small-epoch fast path, runtime.task_stage).

Auto mode routes fixture-scale epochs to tasks, so without this test
the actors path would lose coverage entirely."""

from __future__ import annotations

from heroshi_ray.fixtures import write_fixture_dir
from heroshi_ray.sources.io import read_epoch_tables


# small fetch batches: an epoch's fused extract stage sees several
# batches (blocks), not one (politeness caps an epoch here at 20 rows)
FETCH_BATCH = 4


def _run(paths, wd, mode):
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    cfg = CrawlConfig(
        epoch_budget=48, max_epochs=4, stateful_mode=mode,
        fetch_batch_size=FETCH_BATCH,
    )
    crawler = Crawler(paths, wd, cfg)
    report = crawler.run()
    order = crawler.schedule_order().to_pandas()
    order = order.sort_values(["sched_epoch", "rank"], kind="mergesort")
    adm = read_epoch_tables(wd, "admitted_log")
    admitted = sorted(adm.column("surt").to_pylist()) if adm is not None else []
    corpus = crawler.corpus().to_pandas()
    corpus["bytes"] = corpus["bytes"].map(bytes)
    corpus = corpus.sort_values("image_id", kind="mergesort").reset_index(drop=True)
    caps = read_epoch_tables(wd, "captions").to_pylist()
    log = read_epoch_tables(wd, "fetchlog").to_pylist()
    crawler.shutdown()
    return report, list(zip(order["host"], order["url"])), admitted, {
        "corpus": corpus,
        "captions": sorted(caps, key=lambda r: (r["epoch"], r["url"])),
        "fetchlog": sorted(log, key=lambda r: (r["fetched_at"], r["url"])),
    }


def test_actor_and_task_modes_identical(ray_session, tmp_path_factory):
    from collections import Counter

    import pandas as pd

    fx = str(tmp_path_factory.mktemp("fx_mode"))
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=7)

    rep_t, order_t, adm_t, out_t = _run(
        paths, str(tmp_path_factory.mktemp("wd_tasks")), "tasks"
    )
    rep_a, order_a, adm_a, out_a = _run(
        paths, str(tmp_path_factory.mktemp("wd_actors")), "actors"
    )

    assert order_t == order_a
    assert adm_t == adm_a
    assert rep_t.fetch_ok == rep_a.fetch_ok
    assert rep_t.fetch_err == rep_a.fetch_err
    assert rep_t.urls_admitted == rep_a.urls_admitted
    # the largest epoch spans at least 4 fetch batches
    per_epoch = Counter(r["fetched_at"] for r in out_t["fetchlog"])
    assert max(per_epoch.values()) > 3 * FETCH_BATCH
    assert len(out_t["corpus"]) > 0
    assert (out_t["corpus"]["caption"] != "").any()
    pd.testing.assert_frame_equal(out_t["corpus"], out_a["corpus"], check_exact=True)
    assert out_t["captions"] and out_t["captions"] == out_a["captions"]
    assert out_t["fetchlog"] == out_a["fetchlog"]


def _run_cfg(paths, wd, **cfg_kwargs):
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    cfg = CrawlConfig(epoch_budget=48, max_epochs=4, **cfg_kwargs)
    crawler = Crawler(paths, wd, cfg)
    crawler.run()
    order = crawler.schedule_order().to_pandas()
    order = order.sort_values(["sched_epoch", "rank"], kind="mergesort")
    corpus = crawler.corpus().to_pandas()
    corpus["bytes"] = corpus["bytes"].map(bytes)
    corpus = corpus.sort_values("image_id", kind="mergesort").reset_index(drop=True)
    crawler.shutdown()
    return list(zip(order["host"], order["url"])), corpus


def test_caption_join_path_equals_broadcast(ray_session, tmp_path_factory):
    """caption_broadcast_max=0 forces the distributed hash-join caption
    attach; corpus rows (including captions) must be identical to the
    broadcast-dict probe path."""
    import pandas as pd

    fx = str(tmp_path_factory.mktemp("fx_cap"))
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=11)

    order_b, corpus_b = _run_cfg(paths, str(tmp_path_factory.mktemp("wd_b")))
    order_j, corpus_j = _run_cfg(
        paths, str(tmp_path_factory.mktemp("wd_j")), caption_broadcast_max=0
    )
    assert order_b == order_j
    assert len(corpus_b) > 0
    assert (corpus_b["caption"] != "").any()  # captions actually attach
    pd.testing.assert_frame_equal(corpus_b, corpus_j, check_dtype=False)


def test_budget_topk_order_shuffle_path_equals_merge(ray_session):
    """driver_merge_max=0 forces the groupby+sort fallback inside
    budget_topk_order; the scheduled handout must be identical to the
    driver-merge combiner."""
    import numpy as np
    import pyarrow as pa
    import ray
    import ray.data

    from heroshi_ray.stages.schedule import budget_topk_order

    rng = np.random.default_rng(3)
    n = 5000
    hosts = [f"h{i}.example" for i in rng.integers(0, 40, n)]
    surts = [f"example,h{i})/p/{j}" for j, i in enumerate(rng.integers(0, 40, n))]
    tbl = pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "surt": pa.array(surts, pa.string()),
            "priority": pa.array(rng.random(n), pa.float64()),
            "url": pa.array([f"http://x/{k}" for k in range(n)], pa.string()),
        }
    )
    ds = ray.data.from_arrow(tbl).repartition(8)
    budgets = {f"h{i}.example": int(i % 7) for i in range(40)}
    budgets_ref = ray.put(budgets)

    a = budget_topk_order(ds, budgets_ref, epoch_budget=400)
    b = budget_topk_order(ds, budgets_ref, epoch_budget=400, driver_merge_max=0)
    assert a is not None and b is not None
    assert a.num_rows == b.num_rows > 0
    ad, bd = a.to_pandas(), b.to_pandas()
    for col in ("host", "surt", "priority", "url"):
        assert list(ad[col]) == list(bd[col]), col


def test_seed_streaming_path_equals_driver(ray_session, tmp_path_factory):
    """seed_driver_max_bytes=0 forces the streaming seed plan; schedule
    order and corpus must be identical to the driver-side fast path."""
    import pandas as pd

    fx = str(tmp_path_factory.mktemp("fx_seed"))
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=13)

    order_d, corpus_d = _run_cfg(paths, str(tmp_path_factory.mktemp("wd_d")))
    order_s, corpus_s = _run_cfg(
        paths, str(tmp_path_factory.mktemp("wd_s")), seed_driver_max_bytes=0
    )
    assert order_d == order_s
    assert len(order_d) > 0
    pd.testing.assert_frame_equal(corpus_d, corpus_s, check_dtype=False)
