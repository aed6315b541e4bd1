"""The distributed near-dup and clustering forks pinned against
independent single-process ground truth.

q_embed_neardup runs its verify/merge steps as map_groups + pair-dedup
shuffles rather than on the driver. These tests recompute the expected
pair sets with plain Python/numpy (same candidate-generation semantics,
no Ray) and assert exact equality — rows AND values — and hold every
size-gated fork (driver vs Dataset labels, DF join, broadcast vs join
graph ranks, containment prefix filter) to the default path's output.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.mark.parametrize("sf_dir", ["/root/testdata/sf0.001", "/root/testdata/sf0.01"])
def test_embed_neardup_ivf_recall_exact(ray_session, sf_dir):
    """IVF-bucketed near-dup == brute-force all-pairs (recall 1.0) on the
    driver data, including the e4-rounded similarity values."""
    from heroshi_ray.functions.ann import as_matrix, l2_normalize
    from heroshi_ray.pipelines.dataops import q_embed_neardup

    got = q_embed_neardup(sf_dir).to_pandas()

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    ids = np.array(t.column("vec_id").to_pylist(), dtype=np.int64)
    mat = l2_normalize(as_matrix(t.column("embedding").to_pylist()).astype(np.float64))
    sims = mat @ mat.T
    iu, ju = np.triu_indices(len(ids), k=1)
    cand = sims[iu, ju] >= 0.45 - 1e-9
    ci, cj = iu[cand], ju[cand]
    s = np.einsum("ij,ij->i", mat[ci], mat[cj])
    keep = s >= 0.45
    expect = sorted(
        (int(min(ids[a], ids[b])), int(max(ids[a], ids[b])), int(round(float(x) * 10000)))
        for a, b, x in zip(ci[keep], cj[keep], s[keep])
    )
    assert list(map(tuple, got.itertuples(index=False))) == expect
    assert len(expect) > 0


def test_embed_neardup_driver_fork_equivalence(ray_session):
    """The driver assign/cell_pairs pass must reproduce the distributed
    explode+shuffle plan exactly (same centroid sample, same e4
    rounding)."""
    from heroshi_ray.pipelines.dataops import q_embed_neardup

    a = q_embed_neardup(SF_DIR).to_pandas()
    b = q_embed_neardup(SF_DIR, force_distributed=True).to_pandas()
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_dedup_clusters_transitive_chain(ray_session, tmp_path):
    """Label propagation must close transitively: v0~v1 and v1~v2 put
    v0,v2 in ONE cluster even though cos(v0,v2) < threshold; v3 is
    isolated and keeps its own id."""
    import pyarrow as pa

    from heroshi_ray.pipelines.dataops import q_dedup_clusters

    def rot(deg):
        r = np.deg2rad(deg)
        v = np.zeros(8, np.float32)
        v[0], v[1] = np.cos(r), np.sin(r)
        return v.tolist()

    # cos(v0,v1)=cos(60°)=0.5 ≥ 0.45; cos(v1,v2)=0.5; cos(v0,v2)=cos(120°)=-0.5
    tbl = pa.table(
        {
            "vec_id": pa.array([10, 20, 30, 99], pa.int64()),
            "embedding": pa.array(
                [rot(0), rot(60), rot(120), [0.0] * 7 + [1.0]],
                pa.list_(pa.float32()),
            ),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))
    out = (
        q_dedup_clusters(str(tmp_path), threshold=0.45)
        .to_pandas()
        .set_index("vec_id")["cluster_id"]
    )
    assert out[10] == out[20] == out[30] == 10  # one transitive cluster, min id
    assert out[99] == 99  # isolated: own id


def test_ngram_df_join_path_equals_broadcast(ray_session):
    """df_broadcast_limit=0 forces the distributed DF hash join +
    groupby(doc) prefix selection; results must be identical (the
    AllPairs prefix lemma holds for any path computing the same DF
    order). broadcast_limit=0 forces the verify through the distributed
    text attach (_attach_pair_texts) instead of the gram-array
    broadcast; it must return the same pairs and values."""
    from heroshi_ray.pipelines.dataops import q_ngram_jaccard

    a = q_ngram_jaccard(SF_DIR).to_pandas()
    b = q_ngram_jaccard(SF_DIR, df_broadcast_limit=0).to_pandas()
    assert a.equals(b)
    assert len(a) > 0
    c = q_ngram_jaccard(SF_DIR, broadcast_limit=0).to_pandas()
    assert a.equals(c)


def _chain_embeddings(tmp_path, n: int):
    """Chain of n vectors where cos(v_i, v_{i+1}) = 0.5 >= 0.45 and all
    non-adjacent cosines are 0: v_i = (e_i + e_{i+1}) / sqrt(2)."""
    import pyarrow as pa

    dim = n + 2
    vecs = []
    for i in range(n):
        v = np.zeros(dim, np.float32)
        v[i], v[i + 1] = 1.0, 1.0
        vecs.append((v / np.sqrt(2)).tolist())
    iso = np.zeros(dim, np.float32)
    iso[dim - 1] = 1.0
    vecs.append(iso.tolist())
    tbl = pa.table(
        {
            "vec_id": pa.array(list(range(100, 100 + n)) + [9999], pa.int64()),
            "embedding": pa.array(vecs, pa.list_(pa.float32())),
        }
    )
    pq.write_table(tbl, str(tmp_path / "embeddings.parquet"))


def test_dedup_clusters_long_chain_log_rounds(ray_session, tmp_path):
    """Pointer doubling must close a diameter-40 chain in O(log n)
    rounds, not O(n): the pre-doubling layout needed ~40 iterations."""
    from heroshi_ray.pipelines.dataops import q_dedup_clusters

    n = 40
    _chain_embeddings(tmp_path, n)
    stats: dict = {}
    out = (
        q_dedup_clusters(str(tmp_path), threshold=0.45, stats=stats)
        .to_pandas()
        .set_index("vec_id")["cluster_id"]
    )
    assert (out.loc[100 : 100 + n - 1] == 100).all()  # one transitive cluster
    assert out[9999] == 9999  # isolated keeps own id
    assert 0 < stats["iters"] <= 8, stats  # log2(40)≈5.3 + slack, not ~40


def test_dedup_clusters_distributed_labels_equal_driver(ray_session, tmp_path):
    """driver_labels_max=0 forces the Dataset-resident label path
    (joins + groupby-Min + doubling self-join); cluster assignment must
    be identical to the driver-vector path, and rounds stay O(log n)."""
    from heroshi_ray.pipelines.dataops import q_dedup_clusters

    n = 24
    _chain_embeddings(tmp_path, n)
    a = (
        q_dedup_clusters(str(tmp_path), threshold=0.45)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    stats: dict = {}
    b = (
        q_dedup_clusters(
            str(tmp_path), threshold=0.45, driver_labels_max=0, stats=stats
        )
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    import pandas as pd

    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    assert 0 < stats["iters"] <= 8, stats


def test_dedup_clusters_distributed_path_sf001(ray_session):
    """Forced-distributed path on the real sf0.001 fixture equals the
    default path row-for-row (the equivalence standard every other
    size-adaptive switch in the repo is held to)."""
    import pandas as pd

    from heroshi_ray.pipelines.dataops import q_dedup_clusters

    a = (
        q_dedup_clusters(SF_DIR)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    b = (
        q_dedup_clusters(SF_DIR, driver_labels_max=0)
        .to_pandas()
        .sort_values("vec_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_pagerank_distributed_path_equals_broadcast(ray_session):
    """force_distributed keeps the rank vector Dataset-resident (the
    100-TB path); both layouts must produce identical int64 fixed-point
    ranks — the arithmetic is exact, so equality is bitwise."""
    import pandas as pd

    from heroshi_ray.pipelines.dataops import q_pagerank

    def norm(res):
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        return df.sort_values("custkey").reset_index(drop=True).astype("int64")

    a = norm(q_pagerank(SF_DIR))  # driver fork (under driver_edges_max)
    b = norm(q_pagerank(SF_DIR, force_distributed=True))
    c = norm(q_pagerank(SF_DIR, driver_edges_max=0))  # broadcast regime
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    pd.testing.assert_frame_equal(a, c, check_exact=True)
    assert len(a) > 0
    # rank mass is conserved up to per-node floor loss: sum <= 10^12,
    # within n_nodes + n_edges units of it
    assert a["pagerank_e12"].sum() <= 10**12


def test_hits_distributed_path_equals_broadcast(ray_session):
    """q_hits' Dataset-resident score-vector path (the 100-TB regime)
    must reproduce the broadcast path bit-for-bit — all arithmetic is
    int64 fixed-point with a global-max rescale, so equality is exact."""
    import pandas as pd

    from heroshi_ray.pipelines.dataops import q_hits

    def norm(res):
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        return df.sort_values("custkey").reset_index(drop=True).astype("int64")

    a = norm(q_hits(SF_DIR))  # driver-combine fork at sf0.001
    b = norm(q_hits(SF_DIR, force_distributed=True))
    c = norm(q_hits(SF_DIR, driver_edges_max=0))  # broadcast mid fork
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    pd.testing.assert_frame_equal(a, c, check_exact=True)
    # rescale invariant: every round tops out at exactly e6
    assert a["auth_e6"].max() == 10**6 and a["hub_e6"].max() == 10**6


def test_opic_distributed_matches_broadcast(ray_session):
    """q_opic's Dataset-resident cash/history path (the 100-TB regime)
    must reproduce the broadcast path bit-for-bit — all arithmetic is
    int64 with floored divisions, so equality is exact; and total cash
    is conserved up to the deterministic flooring losses (history sums
    to <= n_rounds * 10^12, > 90% of it)."""
    import pandas as pd

    from heroshi_ray.pipelines.dataops import q_opic

    def norm(res):
        df = res.to_pandas() if hasattr(res, "to_pandas") else res
        return df.sort_values("custkey").reset_index(drop=True).astype("int64")

    a = norm(q_opic(SF_DIR))  # driver-combine fork at sf0.001
    b = norm(q_opic(SF_DIR, force_distributed=True))
    c = norm(q_opic(SF_DIR, driver_edges_max=0))  # broadcast mid fork
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    pd.testing.assert_frame_equal(a, c, check_exact=True)
    total = int(a["history"].sum())
    assert total <= 3 * 10**12
    assert total > 0.9 * 3 * 10**12  # flooring loses < 10% of the mass
    assert a["history"].nunique() > 1  # the graph actually differentiates


def test_containment_prefix_fork_equivalence(ray_session):
    """The prefix-filtered candidate+verify fast path must reproduce the
    pairwise partial-count plan exactly (same pairs, same cont_e4)."""
    from heroshi_ray.pipelines.dataops import q_containment_neardup

    def norm(r):
        df = r.to_pandas() if hasattr(r, "to_pandas") else r
        return df.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)

    a = norm(q_containment_neardup(SF_DIR))
    b = norm(q_containment_neardup(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    # candidate-overflow guard: when the prefix-filter candidate set
    # outgrows the broadcast bound the fast path must FALL THROUGH to
    # the pairwise plan (not assert/crash) with identical output
    c = norm(q_containment_neardup(SF_DIR, cand_broadcast_limit=1))
    pd.testing.assert_frame_equal(a, c, check_dtype=False, check_exact=True)
