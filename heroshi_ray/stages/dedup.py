"""Exact first-per-key dedup — D1 (SURVEY.md §2.7).

Needed *in addition to* the approximate seen-filter (J1): within one
epoch, candidates for the same surt arrive from many pages and the
cuckoo test-and-set is per-shard-call, so batch-internal duplicates
must be collapsed exactly first.

``_first_per_key`` is the kernel: keep the minimum row per key under
``(key, *tie_cols)``. The crawl calls it on the driver over one epoch's
extracted links. ``dedup_first`` runs the same kernel over a Dataset
for the ``dataops`` analytics: hash-bucket the key into ``n_buckets``
coarse partitions, shuffle ONCE on the bucket id, then drop duplicates
inside each bucket, so the per-group Python overhead is O(B), not
O(#groups).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from ..functions.hashing import hash64

_BUCKET_COL = "__bucket"


def _add_bucket(batch: pa.Table, key: str, n_buckets: int) -> pa.Table:
    b = (hash64(batch.column(key)) % np.uint64(n_buckets)).astype(np.int32)
    return batch.append_column(_BUCKET_COL, pa.array(b, pa.int32()))


def _first_per_key(group: pd.DataFrame, key: str, tie_cols: list[str]) -> pd.DataFrame:
    g = group.sort_values([key, *tie_cols], kind="mergesort")
    return g.drop_duplicates(subset=[key], keep="first")


def dedup_first(
    ds: "ray.data.Dataset",
    key: str = "surt",
    tie_cols: tuple[str, ...] = ("depth", "parent_surt"),
    n_buckets: int = 64,
) -> "ray.data.Dataset":
    """Keep exactly one row per ``key``: the minimum under
    ``(key, *tie_cols)`` lexicographic order — deterministic regardless of
    block arrival order (required for the golden ordering test).

    One shuffle, keyed on ``hash64(key) % n_buckets``.
    """
    tc = list(tie_cols)
    out = (
        ds.map_batches(
            lambda b: _add_bucket(b, key, n_buckets),
            batch_format="pyarrow",
            zero_copy_batch=True,
        )
        .groupby(_BUCKET_COL)
        .map_groups(
            lambda g: _first_per_key(g, key, tc),
            batch_format="pandas",
        )
    )
    return out.drop_columns([_BUCKET_COL])
