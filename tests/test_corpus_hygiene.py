"""Corpus-hygiene operators: chunk dedup, PII redaction, edit-distance
near-dup and duplicate spans. (The DuckDB hash checks of the oracled
ones run via test_queries_oracle's parametrization.)"""

from __future__ import annotations

import os

import duckdb
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def to_df(r):
    return r if isinstance(r, pd.DataFrame) else r.to_pandas()


def test_chunk_dedup_distributed_fork_equivalence(ray_session):
    """The bucketed anti-join + doc-reassembly shuffle path must
    reproduce the broadcast scrub exactly."""
    from heroshi_ray.pipelines import dataops as d

    a = canon(to_df(d.q_chunk_dedup(SF_DIR)))
    b = canon(to_df(d.q_chunk_dedup(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_pii_redact_no_residual_pii(ray_session):
    """After redaction no email/phone pattern survives anywhere."""
    from heroshi_ray.pipelines.dataops import q_pii_redact

    out = to_df(q_pii_redact(SF_DIR))
    assert not out["clean"].str.contains(r"[a-z0-9._]+@", regex=True).any()
    assert not out["clean"].str.contains(r"\+1-555-[0-9]", regex=True).any()
    assert (out["n_emails"] >= 1).all()


def test_edit_neardup_short_names_and_empty_results(ray_session, tmp_path):
    """Length-0/1 names (the U0-view crash case) and planted
    insert/delete/substitute pairs must match DuckDB's levenshtein."""
    from heroshi_ray.pipelines.dataops import q_edit_neardup

    pq.write_table(
        pa.table(
            {
                "s_suppkey": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "s_name": pa.array(["a", "b", "ab", "", "xyz"], pa.string()),
            }
        ),
        os.path.join(tmp_path, "supplier.parquet"),
    )
    out = (
        to_df(q_edit_neardup(str(tmp_path)))
        .sort_values(["a", "b"])
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW supplier AS SELECT * FROM '{tmp_path}/supplier.parquet'"
    )
    exp = con.sql(
        "SELECT a.s_suppkey a, b.s_suppkey b FROM supplier a "
        "JOIN supplier b ON a.s_suppkey < b.s_suppkey "
        "WHERE levenshtein(a.s_name, b.s_name) <= 1 ORDER BY 1, 2"
    ).df()
    assert out.to_numpy().tolist() == exp.to_numpy().tolist()


def test_dup_spans_distributed_fork_equivalence(ray_session):
    """Driver gaps-and-islands merge vs the doc-keyed shuffle: spans
    must be identical for both q_dup_spans and q_dup_span_removal."""
    from heroshi_ray.pipelines.dataops import q_dup_span_removal, q_dup_spans

    a = canon(to_df(q_dup_spans(SF_DIR)))
    b = canon(to_df(q_dup_spans(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    c = canon(to_df(q_dup_span_removal(SF_DIR)))
    d = canon(to_df(q_dup_span_removal(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(c, d, check_dtype=False, check_exact=True)
