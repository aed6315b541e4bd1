"""Corpus-hygiene operators: chunk dedup, PII redaction, k-means,
edit-distance near-dup, BPE, semantic dedup and duplicate spans. (The DuckDB
hash checks of the oracled ones run via test_queries_oracle's
parametrization.)"""

from __future__ import annotations

import os

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

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


def test_kmeans_matches_single_process_replica(ray_session):
    """The distributed Lloyd's must equal a straight-line numpy replica
    that uses the identical fixed-point rule (same init, 5 iters)."""
    from heroshi_ray.pipelines.dataops import q_kmeans

    k, n_iter, dims = 8, 5, 64
    out = to_df(q_kmeans(SF_DIR, k=k, n_iter=n_iter)).sort_values("vec_id")

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    ids = t.column("vec_id").to_numpy()
    x = np.asarray(
        [np.asarray(e, dtype=np.float32) for e in t.column("embedding").to_pylist()]
    ).astype(np.float64)
    order = np.argsort(ids)
    ids, x = ids[order], x[order]
    C = x[ids < k].copy()
    for _ in range(n_iter):
        d = (x * x).sum(1)[:, None] - 2.0 * (x @ C.T) + (C * C).sum(1)[None, :]
        a = np.argmin(d, axis=1)
        v = np.round(x * 1e6).astype(np.int64)
        for c in range(k):
            m = a == c
            if m.any():
                C[c] = v[m].sum(axis=0).astype(np.float64) / 1e6 / m.sum()
    d = (x * x).sum(1)[:, None] - 2.0 * (x @ C.T) + (C * C).sum(1)[None, :]
    expect = np.argmin(d, axis=1)
    np.testing.assert_array_equal(out["cluster"].to_numpy(), expect)
    assert len(np.unique(expect)) > 1  # the fixture actually separates


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


def test_bpe_train_distributed_equals_driver(ray_session):
    """The distributed per-round argmax loop must learn the identical
    merge sequence (pairs, counts, order) as the driver-local learner;
    the first merge must equal a hand-computed Counter ground truth."""
    from collections import Counter

    from heroshi_ray.pipelines.dataops import q_bpe_train

    a = to_df(q_bpe_train(SF_DIR, k=6))
    b = to_df(q_bpe_train(SF_DIR, k=6, force_distributed=True))
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True), check_dtype=False
    )
    assert len(a) == 6

    words = Counter()
    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"), columns=["text"])
    for s in t.column("text").to_pylist():
        words.update(s.split(" "))
    pc = Counter()
    for w, cnt in words.items():
        for x, y in zip(w, w[1:]):
            pc[(x, y)] += cnt
    mx = max(pc.values())
    expect = min(p for p, c in pc.items() if c == mx)
    assert (a["left"].iloc[0], a["right"].iloc[0]) == expect
    assert int(a["cnt"].iloc[0]) == mx


def test_bpe_encode_matches_training_segmentation(ray_session):
    """Encoding with rank-ordered merges must reproduce the trainer's
    own segmentation for every vocabulary word: per-doc subword counts
    equal a replica that re-runs the training segmentation."""
    from collections import Counter

    from heroshi_ray.pipelines.dataops import _bpe_learn, q_bpe_encode

    k = 6
    out = (
        to_df(q_bpe_encode(SF_DIR, k=k))
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    t = pq.read_table(
        os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"]
    )
    texts = t.column("text").to_pylist()
    words = Counter()
    for s in texts:
        words.update(s.split(" "))
    merges = _bpe_learn(dict(words), k)
    # replay the trainer's segmentation
    seqs = {w: list(w) for w in words}
    for a, b, _ in merges:
        for w, s in seqs.items():
            r, i = [], 0
            while i < len(s):
                if i + 1 < len(s) and (s[i], s[i + 1]) == (a, b):
                    r.append(s[i] + s[i + 1]); i += 2
                else:
                    r.append(s[i]); i += 1
            seqs[w] = r
    expect = [sum(len(seqs[w]) for w in s.split(" ")) for s in texts]
    got = dict(zip(out["doc_id"], out["n_subwords"]))
    ids = t.column("doc_id").to_pylist()
    assert [got[i] for i in ids] == expect
    # merges actually compress: fewer subwords than chars, more than words
    n_chars = sum(len(w) for s in texts for w in s.split(" "))
    assert sum(expect) < n_chars


def test_semdedup_matches_single_process_replica(ray_session):
    """SemDeDup's distributed kmeans + per-cluster leader pass must
    equal a straight-line numpy replica (same fixed-point kmeans, same
    (centroid_sim asc, vec_id asc) leader order, same tau), and must
    actually remove the fixture's planted near-dup vectors."""
    from heroshi_ray.pipelines.dataops import q_semdedup

    k, n_iter, dims, tau = 8, 5, 64, 0.45
    out = to_df(q_semdedup(SF_DIR, k=k, n_iter=n_iter, tau=tau))
    got = set(out["vec_id"].astype(int))

    t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"))
    ids = t.column("vec_id").to_numpy()
    x = np.asarray(
        [np.asarray(e, dtype=np.float32) for e in t.column("embedding").to_pylist()]
    ).astype(np.float64)
    order = np.argsort(ids)
    ids, x = ids[order], x[order]
    C = x[ids < k].copy()
    for _ in range(n_iter):
        d = (x * x).sum(1)[:, None] - 2.0 * (x @ C.T) + (C * C).sum(1)[None, :]
        a = np.argmin(d, axis=1)
        v = np.round(x * 1e6).astype(np.int64)
        for c in range(k):
            m = a == c
            if m.any():
                C[c] = v[m].sum(axis=0).astype(np.float64) / 1e6 / m.sum()
    d = (x * x).sum(1)[:, None] - 2.0 * (x @ C.T) + (C * C).sum(1)[None, :]
    a = np.argmin(d, axis=1)
    xn = x / np.maximum(np.linalg.norm(x, axis=1, keepdims=True), 1e-12)
    expect = set()
    for c in range(k):
        m = np.where(a == c)[0]
        if not len(m):
            continue
        cn = C[c] / max(float(np.linalg.norm(C[c])), 1e-12)
        csim = xn[m] @ cn
        o = m[np.lexsort((ids[m], csim))]
        kept = []
        for i in o:
            if not kept or float((xn[kept] @ xn[i]).max()) < tau:
                kept.append(i)
        expect |= {int(ids[i]) for i in kept}
    assert got == expect
    assert 0 < len(got) < len(ids)  # some dups actually removed


def test_semdedup_distributed_fork_equivalence(ray_session):
    """force_distributed routes both the Lloyd loop and the leader pass
    through the shuffle plans; exemplar set must be identical to the
    driver fork (int64-e6 centroid sums are order-free)."""
    from heroshi_ray.pipelines.dataops import q_semdedup

    a = canon(to_df(q_semdedup(SF_DIR)))
    b = canon(to_df(q_semdedup(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_kmeans_distributed_fork_equivalence(ray_session):
    """Driver Lloyd loop vs distributed combiner plan: assignments must
    be bit-identical."""
    from heroshi_ray.pipelines.dataops import q_kmeans

    a = canon(to_df(q_kmeans(SF_DIR)))
    b = canon(to_df(q_kmeans(SF_DIR, force_distributed=True)))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


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
