"""Physical-plan checks of the crawl loop: its output must not depend
on how the epoch's fetch is batched or split into host slices, the
caption attach must keep the first caption per URL across epochs, and
the handout and the seed admission must not depend on how the frontier
or the seed file is cut."""

from __future__ import annotations

from heroshi_ray.fixtures import write_fixture_dir
from heroshi_ray.sources.io import read_epoch_tables


# small fetch batches: an epoch's fused extract stage sees several
# batches, not one (politeness caps an epoch here at 20 rows)
FETCH_BATCH = 4


def _run(paths, wd, **cfg_kwargs):
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    cfg = CrawlConfig(epoch_budget=48, max_epochs=4, **cfg_kwargs)
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


def test_fetch_batching_invariant(ray_session, tmp_path_factory, monkeypatch):
    """fetch_batch_size=4 against the default: the fetch and fused
    extract see many batches in several host slices per epoch in one run
    and one batch in one slice in the other, and every crawl output is
    identical. No host is in two slices of one epoch."""
    from collections import Counter

    import pandas as pd

    from heroshi_ray.pipelines import crawl
    from heroshi_ray.stages import fetch

    # the hosts of each slice task each fetch round starts, per round
    rounds: list[list[set]] = []
    fetch_dataset, fetch_slice = crawl.fetch_dataset, fetch._fetch_slice

    def spy_round(*args, **kwargs):
        rounds.append([])
        return fetch_dataset(*args, **kwargs)

    class SpySlice:
        @staticmethod
        def remote(rows, *args):
            rounds[-1].append(set(rows.column("host").to_pylist()))
            return fetch_slice.remote(rows, *args)

    monkeypatch.setattr(crawl, "fetch_dataset", spy_round)
    monkeypatch.setattr(fetch, "_fetch_slice", SpySlice)

    fx = str(tmp_path_factory.mktemp("fx_mode"))
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=7)

    rep_s, order_s, adm_s, out_s = _run(
        paths, str(tmp_path_factory.mktemp("wd_small")), fetch_batch_size=FETCH_BATCH
    )
    small_rounds, rounds[:] = list(rounds), []
    rep_d, order_d, adm_d, out_d = _run(paths, str(tmp_path_factory.mktemp("wd_default")))

    assert order_s == order_d
    assert adm_s == adm_d
    assert rep_s.fetch_ok == rep_d.fetch_ok
    assert rep_s.fetch_err == rep_d.fetch_err
    assert rep_s.urls_admitted == rep_d.urls_admitted
    # the largest epoch spans at least 4 fetch batches and 2 host slices
    per_epoch = Counter(r["fetched_at"] for r in out_s["fetchlog"])
    assert max(per_epoch.values()) > 3 * FETCH_BATCH
    assert max(len(r) for r in small_rounds) >= 2
    assert all(len(r) == 1 for r in rounds)
    for r in small_rounds:
        assert sum(len(h) for h in r) == len(set().union(*r)), r
    assert len(out_s["corpus"]) > 0
    assert (out_s["corpus"]["caption"] != "").any()
    pd.testing.assert_frame_equal(out_s["corpus"], out_d["corpus"], check_exact=True)
    assert out_s["captions"] and out_s["captions"] == out_d["captions"]
    assert out_s["fetchlog"] == out_d["fetchlog"]


def test_host_slices_partition():
    """host_slices partitions the rows, keeps each slice in row order,
    puts every host in exactly one slice, makes k = min(CPUs,
    ceil(rows / batch size)) slices (no more than hosts, none empty) and
    depends only on its input."""
    import numpy as np
    import pyarrow as pa

    from heroshi_ray.stages.fetch import host_slices

    rng = np.random.default_rng(11)
    for n, n_hosts, batch, cpus in (
        (1, 1, 4, 4), (20, 4, 4, 4), (2017, 60, 512, 4), (2017, 60, 512, 16),
        (500, 3, 8, 8), (64, 40, 64, 4), (9, 9, 1, 32),
    ):
        # skewed host sizes: a few hosts hold most rows
        hosts = pa.array(
            [f"h{int(i)}.example" for i in rng.zipf(1.5, n) % n_hosts], pa.string()
        )
        slices = host_slices(hosts, batch, cpus)
        distinct = len(set(hosts.to_pylist()))
        assert len(slices) == min(cpus, -(-n // batch), distinct)
        rows = np.concatenate(slices)
        assert sorted(rows.tolist()) == list(range(n))
        assert all(len(s) and (np.diff(s) > 0).all() for s in slices)
        owner = {}
        for i, s in enumerate(slices):
            for h in set(hosts.take(pa.array(s)).to_pylist()):
                assert owner.setdefault(h, i) == i, h
        again = host_slices(pa.chunked_array([hosts.slice(0, n // 2), hosts.slice(n // 2)]), batch, cpus)
        assert [s.tolist() for s in again] == [s.tolist() for s in slices]
    assert host_slices(pa.array([], pa.string()), 4, 4) == []


def test_attach_captions_first_wins_multiblock(ray_session, tmp_path):
    """_attach_captions over image rows of 4 slices: the caption of the
    lowest epoch wins (not the first file in name order, not the
    smallest caption), 10k unrelated sink URLs are ignored and an image
    URL with no caption gets ""; each slice is written as its own part."""
    import glob
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from heroshi_ray.pipelines.crawl import Crawler
    from heroshi_ray.schemas import CORPUS
    from heroshi_ray.sources.io import append_epoch_table
    from heroshi_ray.stages.fetch import _IMAGE_ROWS

    def sink(epoch, urls, caps):
        append_epoch_table(
            pa.table(
                {
                    "url": pa.array(urls, pa.string()),
                    "caption": pa.array(caps, pa.string()),
                    "epoch": pa.array(np.full(len(urls), epoch, np.int64)),
                }
            ),
            str(tmp_path), "captions", epoch,
        )

    def u(i):
        return f"http://h{i % 3}.example/img/{i}.png"

    # e12.parquet sorts before e3.parquet; "a-later" < "z-first"
    sink(3, [u(0), u(1), u(5)], ["z-first", "one", "five"])
    sink(12, [u(0), u(2)], ["a-later", "two"])
    sink(7, [f"http://other.example/{k}" for k in range(10_000)], ["x"] * 10_000)

    img_urls = [u(i) for i in range(8)]  # u(3), u(4), u(6), u(7) uncaptioned
    expected = {0: "z-first", 1: "one", 2: "two", 5: "five"}

    def rows(ids):
        n = len(ids)
        return pa.table(
            {
                "image_id": pa.array([f"img{i}" for i in ids], pa.string()),
                "bytes": pa.array([bytes([i]) * 3 for i in ids], pa.binary()),
                "w": pa.array([8 + i for i in ids], pa.int32()),
                "h": pa.array([4 + i for i in ids], pa.int32()),
                "fmt": pa.array(["png"] * n, pa.string()),
                "caption": pa.array([""] * n, pa.string()),
                "phash": pa.array([1000 + i for i in ids], pa.int64()),
                "url": pa.array([img_urls[i] for i in ids], pa.string()),
            },
            schema=_IMAGE_ROWS,
        )

    blocks = [rows([0, 3]), rows([1, 4]), rows([2, 5, 6]), rows([7])]

    crawler = Crawler.__new__(Crawler)  # the method reads only the workdir
    crawler.workdir = str(tmp_path)
    out_dir = tmp_path / "corpus"
    out_dir.mkdir()
    crawler._attach_captions(
        [ray.put(b) for b in blocks],
        pa.chunked_array([b.column("url") for b in blocks]),
    ).write_parquet(str(out_dir))
    files = sorted(glob.glob(os.path.join(out_dir, "*.parquet")))
    assert [os.path.basename(f) for f in files] == [
        f"part-{i:05d}.parquet" for i in range(4)
    ]
    got = pa.concat_tables([pq.read_table(f) for f in files]).sort_by("image_id")

    want = pa.concat_tables(blocks).sort_by("image_id")
    want = want.drop_columns(["url"]).set_column(
        CORPUS.get_field_index("caption"),
        "caption",
        pa.array([expected.get(i, "") for i in range(8)], pa.string()),
    )
    assert got.schema == CORPUS
    assert got.equals(want)


def _run_cfg(paths, wd):
    from heroshi_ray.pipelines.crawl import Crawler, CrawlConfig

    cfg = CrawlConfig(epoch_budget=48, max_epochs=4)
    crawler = Crawler(paths, wd, cfg)
    crawler.run()
    order = crawler.schedule_order().to_pandas()
    order = order.sort_values(["sched_epoch", "rank"], kind="mergesort")
    corpus = crawler.corpus().to_pandas()
    corpus["bytes"] = corpus["bytes"].map(bytes)
    corpus = corpus.sort_values("image_id", kind="mergesort").reset_index(drop=True)
    crawler.shutdown()
    return list(zip(order["host"], order["url"])), corpus


def test_budget_topk_fold_equals_whole_table():
    """Folding ``cand = budget_topk_order_table(cand ∪ part)`` over the
    parts of a table — 8 parts, and 1-row parts — gives the same handout
    as one call on the whole table, with no fold result above
    ``epoch_budget`` rows, both on whole parts and on the rows of each
    part that ``can_enter`` keeps once ``cand`` is full. Priorities are
    rounded so ties fall to the surt order, and some hosts have a zero
    budget."""
    import numpy as np
    import pyarrow as pa

    from heroshi_ray.stages.schedule import budget_topk_order_table, can_enter

    rng = np.random.default_rng(3)
    n = 5000
    hosts = [f"h{i}.example" for i in rng.integers(0, 40, n)]
    surts = [f"example,h{i})/p/{j}" for j, i in enumerate(rng.integers(0, 40, n))]
    tbl = pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "surt": pa.array(surts, pa.string()),
            "priority": pa.array(np.round(rng.random(n), 1), pa.float64()),
            "url": pa.array([f"http://x/{k}" for k in range(n)], pa.string()),
        }
    )
    budgets = {f"h{i}.example": int(i % 7) for i in range(40)}
    epoch_budget = 100

    whole = budget_topk_order_table(tbl, budgets, epoch_budget)
    assert whole.num_rows == epoch_budget
    for part_rows in (n // 8, 1):
        for prune in (False, True):
            cand, kept = tbl.slice(0, 0), 0
            for start in range(0, n, part_rows):
                part = tbl.slice(start, part_rows)
                if prune:
                    part = can_enter(part, cand, epoch_budget)
                kept += part.num_rows
                cand = budget_topk_order_table(
                    pa.concat_tables([cand, part]), budgets, epoch_budget
                )
                assert cand.num_rows <= epoch_budget
            assert cand.equals(whole), (part_rows, prune)
            assert kept < n / 2 if prune else kept == n


def test_budget_cap_matches_python_reference():
    """The per-host cap keeps, for each host, the first ``budget[host]``
    rows under (priority desc, surt asc), as a plain sort-and-count
    does: random tables with priority and surt ties, non-ASCII surts,
    zero budgets and hosts missing from ``budgets`` (cap 0)."""
    import numpy as np
    import pyarrow as pa

    from heroshi_ray.stages.schedule import _budget_cap_indices

    rng = np.random.default_rng(11)
    alphabet = ["a", "b", "z", "é", "ä", "日", "/"]
    for _ in range(50):
        n = int(rng.integers(0, 300))
        hosts = [f"h{i}" for i in rng.integers(0, 12, n)]
        surts = ["".join(rng.choice(alphabet, int(rng.integers(0, 4)))) for _ in range(n)]
        prios = [float(p) for p in np.round(rng.random(n), 1)]
        budgets = {f"h{i}": int(rng.integers(0, 5)) for i in range(12) if i % 4}
        tbl = pa.table(
            {
                "host": pa.array(hosts, pa.string()),
                "priority": pa.array(prios, pa.float64()),
                "surt": pa.array(surts, pa.string()),
            }
        )
        want, taken = [], {}
        for i in sorted(range(n), key=lambda i: (hosts[i], -prios[i], surts[i], i)):
            if taken.get(hosts[i], 0) < budgets.get(hosts[i], 0):
                taken[hosts[i]] = taken.get(hosts[i], 0) + 1
                want.append(i)
        assert _budget_cap_indices(tbl, budgets).tolist() == sorted(want)


def test_seed_chunk_size_invariance(ray_session, tmp_path_factory, monkeypatch):
    """Admitting the seed file two lines at a time gives the schedule
    order and corpus of the default chunk size."""
    import pandas as pd

    from heroshi_ray.pipelines import crawl

    fx = str(tmp_path_factory.mktemp("fx_seed"))
    paths = write_fixture_dir(fx, n_hosts=4, n_pages=40, n_images=12, n_seeds=6, seed=13)

    order_d, corpus_d = _run_cfg(paths, str(tmp_path_factory.mktemp("wd_d")))
    monkeypatch.setattr(crawl, "SEED_CHUNK_LINES", 2)
    order_s, corpus_s = _run_cfg(paths, str(tmp_path_factory.mktemp("wd_s")))
    assert order_d == order_s
    assert len(order_d) > 0
    pd.testing.assert_frame_equal(corpus_d, corpus_s, check_dtype=False)
