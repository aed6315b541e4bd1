"""Round-3 session-5 operators: semantic decontamination, n-gram
containment, image curation.
(The DuckDB hash checks for the two oracled queries run automatically
via test_queries_oracle's parametrization; these tests pin the
properties the SQL twin can't express.)"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"


def to_df(r):
    return r if isinstance(r, pd.DataFrame) else r.to_pandas()


def test_containment_catches_subset_dup_jaccard_misses(ray_session, tmp_path):
    """A paragraph quoted inside a much longer page: containment ~1.0,
    Jaccard low — the planted pair must surface in q_containment_neardup
    and carry cont_e4 near 10000."""
    from heroshi_ray.pipelines import dataops as d

    para = "the quick brown fox jumps over the lazy dog near the riverbank today. " * 4
    filler = " ".join(f"unrelated filler sentence number {i} with fresh words" for i in range(60))
    docs = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array([para, para + " " + filler, filler[:300]], pa.string()),
        }
    )
    pq.write_table(docs, str(tmp_path / "documents.parquet"))
    out = to_df(d.q_containment_neardup(str(tmp_path))).sort_values(["doc_a", "doc_b"])
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (1, 2) in pairs
    row = out[(out["doc_a"] == 1) & (out["doc_b"] == 2)].iloc[0]
    assert row["cont_e4"] >= 9900
    # the same pair is a Jaccard MISS at the usual 0.6 bar
    n = 12
    g1 = {para[j : j + n] for j in range(len(para) - n + 1)}
    t2 = para + " " + filler
    g2 = {t2[j : j + n] for j in range(len(t2) - n + 1)}
    jac = len(g1 & g2) / len(g1 | g2)
    assert jac < 0.6


def test_semantic_decontaminate_properties(ray_session):
    """No eval vector is flagged; every flagged sim clears the bar and
    equals the true best-eval cosine for that train vector."""
    from heroshi_ray.pipelines import dataops as d
    from heroshi_ray.functions.ann import as_matrix, l2_normalize

    out = to_df(d.q_semantic_decontaminate(SF_DIR))
    assert (out["vec_id"] % 41 != 0).all()
    assert (out["eval_id"] % 41 == 0).all()
    assert (out["cos_sim_e4"] >= 3500).all()
    emb = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet")).to_pandas()
    mat = l2_normalize(as_matrix(emb["embedding"].tolist()).astype(np.float64))
    ids = emb["vec_id"].to_numpy()
    ev = ids % 41 == 0
    sims = mat[~ev] @ mat[ev].T
    best = sims.max(axis=1)
    truth = {
        int(i): int(round(s * 10000)) for i, s in zip(ids[~ev], best)
    }
    for r in out.itertuples():
        assert truth[int(r.vec_id)] == int(r.cos_sim_e4)
