"""Replicates the driver's oracle check: for every queries() entry with
an oracle_sql() twin, run both at sf0.001 and compare row count, column
names and order-insensitive values exactly."""

from __future__ import annotations

import duckdb
import pandas as pd
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"
TABLES = (
    "region nation customer supplier part orders lineitem events documents embeddings"
).split()


def to_df(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if isinstance(result, pa.Table):
        return result.to_pandas()
    return result.to_pandas()  # ray Dataset


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


@pytest.fixture(scope="module")
def oracle_con():
    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM '{SF_DIR}/{t}.parquet'"
        )
    return con


def sql_pairs():
    import __ray_entry__ as entrymod

    q = entrymod.queries()
    o = entrymod.oracle_sql()
    return [(name, q[name], sql) for name, sql in o.items()]


@pytest.mark.parametrize("name,fn,sql", sql_pairs(), ids=[p[0] for p in sql_pairs()])
def test_query_matches_oracle(ray_session, oracle_con, name, fn, sql):
    ours = canon(to_df(fn(SF_DIR)))
    theirs = canon(oracle_con.sql(sql).df())
    assert list(ours.columns) == list(theirs.columns), (
        f"{name}: columns {list(ours.columns)} vs {list(theirs.columns)}"
    )
    assert len(ours) == len(theirs), f"{name}: rows {len(ours)} vs {len(theirs)}"
    pd.testing.assert_frame_equal(ours, theirs, check_dtype=False, check_exact=True)


def test_crawl_path_import_closure():
    """The crawl loop, the flagship, the corpus verifier, the curation
    composites and the CLI load neither analytics module, so cutting
    dataops or webops operators cannot change a crawl path."""
    import os
    import subprocess
    import sys

    code = (
        "import sys\n"
        "import heroshi_ray.__main__, heroshi_ray.pipelines.crawl, "
        "heroshi_ray.pipelines.curation, heroshi_ray.pipelines.frontier, "
        "heroshi_ray.pipelines.verify\n"
        "print([m for m in ('heroshi_ray.pipelines.dataops', "
        "'heroshi_ray.pipelines.webops') if m in sys.modules])\n"
    )
    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=repo, capture_output=True,
        text=True, check=True, timeout=300,
    )
    assert out.stdout.strip().splitlines()[-1] == "[]", out.stdout


def test_registry_contract():
    """Every query has an oracle twin and every twin a query; the driver
    records the first 50 entries; every registered callable comes from
    a module whose source file exists."""
    import importlib.util
    import os

    import __ray_entry__ as entrymod

    q = entrymod.queries()
    o = entrymod.oracle_sql()
    assert set(q) == set(o), sorted(set(q) ^ set(o))
    assert len(q) >= 50
    for name, fn in q.items():
        assert callable(fn), name
        spec = importlib.util.find_spec(fn.__module__)
        assert spec is not None and spec.origin, (name, fn.__module__)
        assert os.path.exists(spec.origin), (name, spec.origin)


DRIVER_WINDOW = [
    "q_frontier_schedule_oracle", "q_codec_decode", "q_sitemap_extract",
    "q_trap_detect", "q_recrawl_schedule", "q_host_quota",
    "q_url_strip_params", "q_mirror_detect", "q_frontier_compact",
    "q_anchor_agg", "q_crawl_delta", "q_url_templates", "q_scd2_history",
    "q_cdx_revisits", "q_host_gini", "q_drain_epochs", "q_budget_alloc",
    "q_handout_interleave", "q_crawl_delay_plan", "q_redirect_resolve",
    "q_robots_sitemaps", "q_redirect_cycles", "q_canonicalize",
    "q_stopword_stats", "q_vocab_topk", "q_embedding_norms",
    "q_word_len_hist", "q_punct_density", "q_ttr_by_source",
    "q_source_lang_matrix", "q_embedding_dim_stats", "q_ann_knn",
    "q_dedup_clusters", "q_pii_redact", "q_repetition_stats",
    "q_chunk_dedup", "q_inverted_index", "q_edit_neardup",
    "q_semantic_decontaminate", "q_containment_neardup", "q_dup_spans",
    "q_dup_span_removal", "q_ann_range", "q_entropy", "q_bigram_lift",
    "q_bigram_count", "q_tfidf", "q_pagerank", "q_centroids", "q_chunk",
]


def test_driver_window_pinned():
    """The driver checks the first 50 oracled registry entries; deleting
    or reordering operators must not move that window."""
    import __ray_entry__ as entrymod

    o = entrymod.oracle_sql()
    window = [n for n in entrymod.queries() if n in o][:50]
    assert window == DRIVER_WINDOW


def test_entry_smoke(ray_session):
    import __ray_entry__ as entrymod

    res = entrymod.entry()
    df = to_df(res)
    assert len(df) >= 0
    assert "surt" in df.columns


def test_trap_detect_distributed_fork_equivalence(ray_session):
    """Driver-combined exact-distinct counts must equal the salted
    two-level shuffle path exactly."""
    from heroshi_ray.pipelines import webops as w

    a = canon(to_df(w.q_trap_detect(SF_DIR)))
    b = canon(to_df(w.q_trap_detect(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_url_strip_params_distributed_fork_equivalence(ray_session):
    from heroshi_ray.pipelines import webops as w

    a = canon(to_df(w.q_url_strip_params(SF_DIR)))
    b = canon(to_df(w.q_url_strip_params(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_lm_score_distributed_fork_equivalence(ray_session):
    """Driver-bincount LM count combine must equal the distributed
    key-bounded groupby exactly (int64 counts -> identical model)."""
    from heroshi_ray.pipelines import dataops as d

    a = canon(to_df(d.q_lm_score(SF_DIR)))
    b = canon(to_df(d.q_lm_score(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_ccnet_bucket_distributed_fork_equivalence(ray_session):
    """Driver-combined (lang, nll_e4) cutoff pick must equal the
    distributed groupby+map_groups path exactly (integer cutoffs, so
    bucket labels are bit-identical across forks)."""
    from heroshi_ray.pipelines import dataops as d

    a = canon(to_df(d.q_ccnet_bucket(SF_DIR)))
    b = canon(to_df(d.q_ccnet_bucket(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_degree_stats_distributed_fork_equivalence(ray_session):
    """Driver-combined degree histogram must equal the node-keyed
    groupby path exactly (pure int64 arithmetic on both sides)."""
    from heroshi_ray.pipelines import dataops as d

    a = canon(to_df(d.q_degree_stats(SF_DIR)))
    b = canon(to_df(d.q_degree_stats(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
