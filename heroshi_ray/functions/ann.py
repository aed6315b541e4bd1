"""Similarity search over embedding columns (list<float>).

Two paths (both deterministic):

- ``cosine_topk_batch`` — brute-force: per Arrow batch, one numpy matmul
  against a broadcast query matrix; a global top-k merge of per-batch
  partial top-ks. Exact; the baseline and the oracle twin for DuckDB's
  ``list_cosine_similarity``.
- ``IVFIndex`` — the scale path: k-means-lite coarse quantizer (fixed
  iterations, seeded) assigns each vector to a centroid bucket; queries
  probe the ``nprobe`` nearest buckets only. Buckets map to a Ray Data
  ``groupby(bucket)`` layout so a 10^9-vector table shuffles ONCE at
  build and each query touches a few partitions.
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


def cosine_topk_batch(
    mat: np.ndarray, ids: np.ndarray, query: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact cosine top-k of one batch vs one query vector.
    Returns (ids, sims) of the batch's best k (deterministic tie-break:
    higher sim first, then smaller id)."""
    q = query / (np.linalg.norm(query) or 1.0)
    sims = l2_normalize(mat.astype(np.float64)) @ q.astype(np.float64)
    order = np.lexsort((ids, -sims))[:k]
    return ids[order], sims[order]


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

    def assign(self, mat: np.ndarray) -> np.ndarray:
        x = l2_normalize(mat.astype(np.float64))
        return np.argmax(x @ self.centroids.T, axis=1).astype(np.int32)

    def assign_topn(self, mat: np.ndarray, n: int) -> np.ndarray:
        """(rows, n) best cells per vector — multi-assignment for
        bucketed near-dup: two vectors within a tight cosine radius share
        at least one of their top-n cells with high probability."""
        x = l2_normalize(mat.astype(np.float64))
        sims = x @ self.centroids.T
        n = min(n, sims.shape[1])
        return np.argsort(-sims, axis=1, kind="stable")[:, :n].astype(np.int32)

    def probe(self, query: np.ndarray, nprobe: int = 4) -> np.ndarray:
        q = query.astype(np.float64) / (np.linalg.norm(query) or 1.0)
        sims = self.centroids @ q
        return np.argsort(-sims)[:nprobe].astype(np.int32)
