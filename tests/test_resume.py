"""Resume test (SURVEY.md §5.2.4): kill after epoch k, restart, final
state identical to an uninterrupted run; no URL fetched twice."""

from __future__ import annotations

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from heroshi_ray.fixtures import write_fixture_dir


def run_full(paths, wd, cfg_kwargs):
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    c = Crawler(paths, wd, CrawlConfig(**cfg_kwargs))
    rep = c.run()
    order = c.schedule_order()
    corpus = c.corpus().to_pandas().sort_values("image_id").reset_index(drop=True)
    c.shutdown()
    return rep, order, corpus


def test_resume_identical(ray_session, tmp_path):
    fx = str(tmp_path / "fx")
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=7)
    base = dict(epoch_budget=48, max_epochs=10)

    # uninterrupted reference run
    rep_a, order_a, corpus_a = run_full(paths, str(tmp_path / "wd_full"), base)

    # interrupted: stop after 3 epochs (simulates a kill at a commit point),
    # then a brand-new Crawler resumes from the last committed manifest
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    wd = str(tmp_path / "wd_resume")
    c1 = Crawler(paths, wd, CrawlConfig(**{**base, "max_epochs": 3}))
    c1.run()
    c1.shutdown()

    # simulate a crash mid-epoch-3: leave partial (uncommitted) outputs behind
    for sub in ("fetchlog", "corpus"):
        d = os.path.join(wd, sub, "e3")
        os.makedirs(d, exist_ok=True)
        pq.write_table(pa.table({"junk": pa.array([1])}), os.path.join(d, "junk.parquet"))

    c2 = Crawler(paths, wd, CrawlConfig(**base))
    rep_b = c2.run(resume=True)
    order_b = c2.schedule_order()
    corpus_b = c2.corpus().to_pandas().sort_values("image_id").reset_index(drop=True)
    totals_b = c2.counters_totals()
    c2.shutdown()

    # counters are checkpointed+restored: a resumed run's actor totals are
    # indistinguishable from the uninterrupted run's
    assert totals_b.get("fetch_ok", 0) == rep_a.fetch_ok
    assert totals_b.get("fetch_err", 0) == rep_a.fetch_err

    # metrics rows are per-epoch DELTAS: summing them reproduces totals
    from heroshi_ray.sources.io import read_epoch_tables

    m = read_epoch_tables(wd, "metrics").to_pandas()
    assert int(m["fetch_ok"].sum()) == rep_a.fetch_ok
    assert int(m["fetch_err"].sum()) == rep_a.fetch_err

    # identical schedule order
    da = order_a.to_pandas().sort_values(["sched_epoch", "rank"]).reset_index(drop=True)
    db = order_b.to_pandas().sort_values(["sched_epoch", "rank"]).reset_index(drop=True)
    assert da[["sched_epoch", "rank", "url"]].equals(db[["sched_epoch", "rank", "url"]])

    # identical corpus
    assert corpus_a[["image_id", "caption", "phash", "fmt"]].equals(
        corpus_b[["image_id", "caption", "phash", "fmt"]]
    )

    # the seen-set gauges of the last epoch match the uninterrupted run's
    m_full = read_epoch_tables(str(tmp_path / "wd_full"), "metrics").to_pandas()
    last_a = m_full.sort_values("epoch").iloc[-1]
    last_b = m.sort_values("epoch").iloc[-1]
    assert last_b["epoch"] == last_a["epoch"]
    assert last_b["seen_keys"] == last_a["seen_keys"] > 0
    assert last_b["seen_load_max"] == last_a["seen_load_max"]

    # every epoch's link and corpus-row counts match too
    per_a = m_full.sort_values("epoch")[["epoch", "links_out", "corpus_rows"]]
    per_b = m.sort_values("epoch")[["epoch", "links_out", "corpus_rows"]]
    assert per_b.values.tolist() == per_a.values.tolist()
    assert per_a["links_out"].sum() > 0
    assert per_a["corpus_rows"].sum() == len(corpus_a)

    # the final seen-set snapshots are bit-identical: same buckets,
    # count and eviction-RNG state in every shard
    from heroshi_ray.sources.io import epoch_dir, latest_committed_epoch
    from heroshi_ray.state.cuckoo import CuckooFilter

    last = latest_committed_epoch(wd)
    assert last == latest_committed_epoch(str(tmp_path / "wd_full"))
    for i in range(CrawlConfig(**base).n_seen_shards):
        name = f"seen-e{last}-s{i}.npz"
        blobs = []
        for root in (str(tmp_path / "wd_full"), wd):
            with open(os.path.join(epoch_dir(root, last), name), "rb") as f:
                blobs.append(CuckooFilter.from_bytes(f.read()))
        a, b = blobs
        assert np.array_equal(a.buckets, b.buckets), name
        assert a.count == b.count, name
        assert a._rng.bit_generator.state == b._rng.bit_generator.state, name

    # no URL fetched twice across the interrupted+resumed run
    files = sorted(glob.glob(os.path.join(wd, "fetchlog", "e*", "*.parquet")))
    fdf = pa.concat_tables([pq.read_table(f) for f in files]).to_pandas()
    ok = fdf[fdf["success"]]
    assert ok["surt"].is_unique


def test_epoch_wall_ms_includes_seen_snapshot(ray_session, tmp_path, monkeypatch):
    """Each epoch's ``metrics`` row times the epoch through its seen-set
    snapshot: from the start of ``run_epoch`` to at least the return of
    that epoch's ``SeenSet.save``. A step clock (+1 s per reading)
    stands in for ``time.time`` in the crawl module, so the comparison
    is exact."""
    import types

    from heroshi_ray.pipelines import crawl
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig
    from heroshi_ray.sources.io import read_epoch_tables
    from heroshi_ray.state.seen import SeenSet

    clock = types.SimpleNamespace(now=0.0)

    def tick() -> float:
        clock.now += 1.0
        return clock.now

    started, saved = {}, {}
    run_epoch, save = Crawler.run_epoch, SeenSet.save

    def timed_run_epoch(self, e, report):
        started[e] = tick()
        return run_epoch(self, e, report)

    def timed_save(self, ckpt_dir, epoch):
        out = save(self, ckpt_dir, epoch)
        saved[epoch] = tick()
        return out

    monkeypatch.setattr(crawl, "time", types.SimpleNamespace(time=tick))
    monkeypatch.setattr(Crawler, "run_epoch", timed_run_epoch)
    monkeypatch.setattr(SeenSet, "save", timed_save)

    paths = write_fixture_dir(
        str(tmp_path / "fx"), n_hosts=3, n_pages=24, n_images=6, n_seeds=4, seed=5
    )
    wd = str(tmp_path / "wd")
    c = Crawler(paths, wd, CrawlConfig(epoch_budget=32, max_epochs=3))
    c.run()
    c.shutdown()

    m = read_epoch_tables(wd, "metrics").to_pandas()
    assert sorted(m["epoch"]) == sorted(started) and len(m) > 0
    for r in m.itertuples():
        # epoch e commits as epoch e+1's snapshot
        assert started[r.epoch] + r.wall_ms / 1000 >= saved[r.epoch + 1], (
            r.epoch, started, saved, r.wall_ms,
        )
