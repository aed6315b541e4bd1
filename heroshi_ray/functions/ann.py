"""Similarity-search kernels over embedding columns (list<float>).

- ``as_matrix`` / ``l2_normalize`` — Arrow list column to an (n, d)
  matrix and unit rows, so a batch's cosine similarities are one matmul.
- ``IVFIndex`` — a coarse inverted-file quantizer (seeded k-means-lite,
  fixed iterations). ``fit`` trains the centroids on a sample;
  ``assign_topn`` puts each vector in its n nearest cells, so near
  neighbours share a cell and a Ray Data ``groupby(cell)`` compares
  only within cells.
"""

from __future__ import annotations

import numpy as np


def as_matrix(embeddings) -> np.ndarray:
    """list<float> Arrow column (ChunkedArray/list-of-lists) -> (n, d) f32."""
    if isinstance(embeddings, np.ndarray) and embeddings.ndim == 2:
        return embeddings.astype(np.float32, copy=False)
    return np.asarray([np.asarray(e, dtype=np.float32) for e in embeddings])


def l2_normalize(m: np.ndarray) -> np.ndarray:
    n = np.linalg.norm(m, axis=1, keepdims=True)
    n[n == 0] = 1.0
    return m / n


class IVFIndex:
    """Coarse inverted-file quantizer (seeded k-means, fixed 10 iters)."""

    def __init__(self, n_centroids: int = 16, seed: int = 7, iters: int = 10):
        self.n_centroids = n_centroids
        self.seed = seed
        self.iters = iters
        self.centroids: np.ndarray | None = None

    def fit(self, sample: np.ndarray) -> "IVFIndex":
        rng = np.random.default_rng(self.seed)
        x = l2_normalize(sample.astype(np.float64))
        k = min(self.n_centroids, len(x))
        cent = x[rng.choice(len(x), size=k, replace=False)]
        for _ in range(self.iters):
            assign = np.argmax(x @ cent.T, axis=1)
            for c in range(k):
                mask = assign == c
                if mask.any():
                    v = x[mask].mean(axis=0)
                    cent[c] = v / (np.linalg.norm(v) or 1.0)
        self.centroids = cent
        return self

    def assign_topn(self, mat: np.ndarray, n: int) -> np.ndarray:
        """(rows, n) best cells per vector — multi-assignment for
        bucketed near-dup: two vectors within a tight cosine radius share
        at least one of their top-n cells with high probability."""
        x = l2_normalize(mat.astype(np.float64))
        sims = x @ self.centroids.T
        n = min(n, sims.shape[1])
        return np.argsort(-sims, axis=1, kind="stable")[:, :n].astype(np.int32)
