"""Round-3 session-5 operators: semantic decontamination, n-gram
containment, grouped HLL, compression stats.
(The DuckDB hash checks for the two oracled queries run automatically
via test_queries_oracle's parametrization; these tests pin the
properties the SQL twin can't express.)"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


def to_df(r):
    return r if isinstance(r, pd.DataFrame) else r.to_pandas()


def test_grouped_hll_error_bound(ray_session):
    """Per-group HLL estimate within 2% of the exact grouped distinct
    count (p=12 -> ~1.6% standard error)."""
    from heroshi_ray.pipelines import dataops as d

    est = to_df(d.q_grouped_hll(SF_DIR)).set_index("event_type")["approx_users"]
    ev = pq.read_table(
        os.path.join(SF_DIR, "events.parquet"), columns=["event_type", "user_id"]
    ).to_pandas()
    exact = ev.groupby("event_type")["user_id"].nunique()
    assert set(est.index) == set(exact.index)
    for t in exact.index:
        err = abs(est[t] - exact[t]) / exact[t]
        assert err < 0.02, f"{t}: est {est[t]} vs exact {exact[t]} (err {err:.3f})"


def test_grouped_hll_register_exactness(ray_session):
    """Register-level pin: per-block sketches built on ARBITRARY splits
    of the input must merge to registers BIT-IDENTICAL to a single-pass
    reference HLL over all hashes (max is associative/commutative — the
    partition-independence HLL's 100-TB merge tree relies on), and the
    distributed q_grouped_hll estimate must equal the reference
    estimate exactly (it is a deterministic function of the registers)."""
    from heroshi_ray.functions.hashing import hash64
    from heroshi_ray.functions.sketch import HyperLogLog
    from heroshi_ray.pipelines import dataops as d

    p = 12
    ev = pq.read_table(
        os.path.join(SF_DIR, "events.parquet"), columns=["event_type", "user_id"]
    ).to_pandas()
    ref = {}
    for t, g in ev.groupby("event_type"):
        h = HyperLogLog(p)
        h.add_hashes(hash64([str(u) for u in g["user_id"]]))
        ref[str(t)] = h

    # simulate blocks: 5 uneven chunks, per-chunk per-type sketches, merge
    merged = {}
    bounds = np.linspace(0, len(ev), 6).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        chunk = ev.iloc[lo:hi]
        for t, g in chunk.groupby("event_type"):
            h = HyperLogLog(p)
            h.add_hashes(hash64([str(u) for u in g["user_id"]]))
            if str(t) in merged:
                merged[str(t)].merge(h)
            else:
                merged[str(t)] = h
    assert set(merged) == set(ref)
    for t in ref:
        np.testing.assert_array_equal(
            merged[t].registers, ref[t].registers, err_msg=t
        )

    est = to_df(d.q_grouped_hll(SF_DIR)).set_index("event_type")["approx_users"]
    for t in ref:
        assert int(est[t]) == int(round(ref[t].estimate())), t


def test_grouped_hll_deterministic(ray_session):
    from heroshi_ray.pipelines import dataops as d

    a = to_df(d.q_grouped_hll(SF_DIR)).sort_values("event_type").reset_index(drop=True)
    b = to_df(d.q_grouped_hll(SF_DIR)).sort_values("event_type").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_compression_stats_exact_and_deterministic(ray_session):
    """ratio_ppm replicates driver-side zlib exactly for every doc, and
    repeated runs are bit-identical."""
    import zlib

    from heroshi_ray.pipelines import dataops as d

    out = to_df(d.q_compression_stats(SF_DIR)).sort_values("doc_id").reset_index(drop=True)
    docs = (
        pq.read_table(os.path.join(SF_DIR, "documents.parquet"), columns=["doc_id", "text"])
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(out) == len(docs)
    sample = docs.sample(50, random_state=7)
    by_id = out.set_index("doc_id")
    for r in sample.itertuples():
        bt = (r.text or "").encode("utf-8")
        comp = len(zlib.compress(bt, 6))
        row = by_id.loc[r.doc_id]
        assert row["raw_len"] == len(bt)
        assert row["comp_len"] == comp
        assert row["ratio_ppm"] == (comp * 1_000_000 // max(len(bt), 1) if bt else 0)
    again = to_df(d.q_compression_stats(SF_DIR)).sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, again)


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


def test_grouped_tdigest_rank_error(ray_session):
    """Per-group t-digest quantiles land within 1.5% RANK error of the
    exact per-group sorted values (t-digest guarantees rank, not value,
    accuracy)."""
    from heroshi_ray.pipelines import dataops as d

    out = to_df(d.q_grouped_tdigest(SF_DIR))
    ev = pq.read_table(
        os.path.join(SF_DIR, "events.parquet"), columns=["event_type", "value"]
    ).to_pandas()
    for t, g in ev.groupby("event_type"):
        vals = np.sort(g["value"].to_numpy())
        sub = out[out["event_type"] == t]
        assert len(sub) == 3, t
        for _, row in sub.iterrows():
            # rank of the approximate value in the exact sorted array
            r = np.searchsorted(vals, row["value_approx"]) / len(vals)
            assert abs(r - row["q"] / 100.0) < 0.015, (
                f"{t} q{row['q']}: approx {row['value_approx']} sits at "
                f"rank {r:.4f}"
            )


def test_grouped_tdigest_deterministic(ray_session):
    from heroshi_ray.pipelines import dataops as d

    a = to_df(d.q_grouped_tdigest(SF_DIR)).sort_values(
        ["event_type", "q"]
    ).reset_index(drop=True)
    b = to_df(d.q_grouped_tdigest(SF_DIR)).sort_values(
        ["event_type", "q"]
    ).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_image_curate_matches_replica(ray_session):
    """The distributed curation gate equals a single-process pandas
    replica of the same rules (metadata gate, caption token range,
    first-image_id-per-phash dedup)."""
    import re

    from heroshi_ray.pipelines import dataops as d

    out = (
        to_df(d.q_image_curate(SF_DIR))
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    corpus = pq.read_table(d._ensure_curate_corpus()).to_pandas()
    ntok = corpus["caption"].map(lambda c: len(re.findall(r"\S+", c)))
    lo = corpus[["w", "h"]].min(axis=1)
    hi = corpus[["w", "h"]].max(axis=1)
    keep = (
        (lo >= 48)
        & (hi * 100 <= 150 * lo)
        & corpus["fmt"].isin(["png", "qpng"])
        & (ntok >= 6)
        & (ntok <= 18)
    )
    rep = corpus.loc[keep, ["image_id", "w", "h", "fmt", "phash"]].copy()
    rep["n_cap_tokens"] = ntok[keep]
    rep = (
        rep.sort_values(["phash", "image_id"], kind="mergesort")
        .drop_duplicates("phash", keep="first")
        .sort_values("image_id")
        .reset_index(drop=True)
    )
    assert len(out) > 0 and len(out) < len(corpus), (
        "gate must have real selectivity"
    )
    # the planted foreign-codec row must be rejected by the fmt gate
    assert "imgforeign" not in set(out["image_id"])
    pd.testing.assert_frame_equal(
        out[["image_id", "w", "h", "fmt", "n_cap_tokens", "phash"]],
        rep[["image_id", "w", "h", "fmt", "n_cap_tokens", "phash"]],
        check_dtype=False,
    )
