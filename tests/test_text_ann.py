"""Unit tests: ANN kernels (IVF) and the q_ann_knn driver fork."""

from __future__ import annotations

import numpy as np
import pandas as pd

from heroshi_ray.functions.ann import IVFIndex, as_matrix, l2_normalize


def test_ivf_recall():
    rng = np.random.default_rng(1)
    centers = rng.normal(size=(8, 32)) * 4
    pts = np.vstack([c + rng.normal(size=(50, 32)) for c in centers])
    idx = IVFIndex(n_centroids=8).fit(pts)
    # each point's best cell (column 0 of its top-n cells)
    assign = idx.assign_topn(pts, 2)[:, 0]
    assert len(np.unique(assign)) >= 4
    # query near a known center: its top-2 cells contain its neighbours
    q = centers[3]
    probes = set(idx.assign_topn(q[None, :], 2)[0].tolist())
    true_top = np.argsort(-(l2_normalize(pts) @ (q / np.linalg.norm(q))))[:10]
    in_probed = sum(assign[t] in probes for t in true_top)
    assert in_probed >= 8  # high recall with 2 probes on well-separated clusters


def test_as_matrix_shapes():
    m = as_matrix([[1.0, 2.0], [3.0, 4.0]])
    assert m.shape == (2, 2) and m.dtype == np.float32


def test_ann_driver_fork_equivalence(ray_session):
    """The q_ann_knn driver fork (one partial call on a driver-read
    table) must equal the distributed partial+merge plan exactly —
    exact scoring makes the top-k union batching-free."""
    from heroshi_ray.pipelines.dataops import q_ann_knn

    a = q_ann_knn("/root/testdata/sf0.001")
    b = q_ann_knn("/root/testdata/sf0.001", force_distributed=True)
    a = a.to_pandas() if hasattr(a, "to_pandas") else a
    b = b.to_pandas() if hasattr(b, "to_pandas") else b
    pd.testing.assert_frame_equal(
        a.reset_index(drop=True), b.reset_index(drop=True),
        check_dtype=False, check_exact=True,
    )
