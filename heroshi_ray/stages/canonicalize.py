"""Canonicalize stage — M1+M2+M3+M6+M7+M12 fused into ONE map_batches
(SURVEY.md §2.2): parse, RFC 3986 normalize, SURT, scheme/policy filter,
priority score. One fused stage instead of five chained ``ds.filter``
calls keeps each Arrow block in cache and avoids per-stage task overhead.

Input: any table with a ``url`` column (seeds are a 1-col table).
Output: FRONTIER-schema candidate rows (state=pending).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data

from ..functions.urlnorm import canonicalize_batch_arrow
from ..schemas import FRONTIER, STATE_PENDING


def priority_score(depth: np.ndarray) -> np.ndarray:
    """Deterministic priority: shallower pages first (M12). Pluggable via
    the ``priority_fn`` hook; the oracle crawler uses this same function."""
    return 1.0 / (1.0 + depth.astype(np.float64))


def canonicalize_candidates(
    batch: pa.Table,
    *,
    depth_col: str | None = None,
    parent_col: str | None = None,
    max_depth: int = 64,
    now_us: int = 0,
    epoch: int = 0,
    url_filter=None,
    priority_fn=None,
) -> pa.Table:
    """url[, depth, parent_surt] -> FRONTIER candidate rows (malformed and
    non-http(s) rows dropped — canonicalize() rejects them).

    Extension hooks (SURVEY.md §2.9): ``url_filter(urls, hosts, depth) ->
    mask`` prunes candidates (blocklist / mime / custom policy);
    ``priority_fn(depth) -> float array`` replaces the default scoring.
    Both are batch-level (vectorized) so they compose with map_batches."""
    n_in = batch.num_rows
    # vectorized canonicalize: Arrow/RE2 kernels for the common shapes,
    # scalar Python fallback rows stitched in (bit-identical — see
    # functions/urlnorm.canonicalize_batch_arrow)
    canon_arr, surt_arr, host_arr, ok_arr = canonicalize_batch_arrow(
        batch.column("url")
    )
    depth = (
        batch.column(depth_col).to_numpy(zero_copy_only=False).astype(np.int32)
        if depth_col
        else np.zeros(n_in, dtype=np.int32)
    )
    ok_np = np.asarray(ok_arr.to_numpy(zero_copy_only=False), dtype=bool)
    mask = ok_np & (depth <= max_depth)
    if url_filter is not None:
        # hook API is list-based (SURVEY §2.9); materialize only when used
        mask &= np.asarray(
            url_filter(canon_arr.to_pylist(), host_arr.to_pylist(), depth),
            dtype=bool,
        )
    # no parent column: n_in empty strings, i.e. all-zero offsets
    parent_a = (
        batch.column(parent_col)
        if parent_col
        else pa.Array.from_buffers(
            pa.string(), n_in,
            [None, pa.py_buffer(np.zeros(n_in + 1, np.int32)), pa.py_buffer(b"")],
        )
    )
    if not mask.all():
        take = pa.array(np.flatnonzero(mask))
        canon_arr, surt_arr, host_arr, parent_a = (
            a.take(take) for a in (canon_arr, surt_arr, host_arr, parent_a)
        )
        depth = depth[mask]
    n = len(depth)
    score = (priority_fn or priority_score)(depth)
    return pa.table(
        {
            "url": canon_arr,
            "surt": surt_arr,
            "host": host_arr,
            "priority": pa.array(score, pa.float64()),
            "depth": pa.array(depth, pa.int32()),
            "parent_surt": parent_a,
            "discovered_at": pa.array(np.full(n, now_us, dtype=np.int64), pa.timestamp("us")),
            "state": pa.array(np.full(n, STATE_PENDING, dtype=np.uint8), pa.uint8()),
            "retries": pa.array(np.zeros(n, dtype=np.int32), pa.int32()),
            "epoch": pa.array(np.full(n, epoch, dtype=np.int64), pa.int64()),
        },
        schema=FRONTIER,
    )


def canonicalize_dataset(
    ds: "ray.data.Dataset",
    *,
    depth_col: str | None = None,
    parent_col: str | None = None,
    now_us: int = 0,
    epoch: int = 0,
    batch_size: int | None = None,
    url_filter=None,
    priority_fn=None,
) -> "ray.data.Dataset":
    # batch_size=None = one batch per block: parallelism stays equal to the
    # input block count (an explicit batch_size bundles input blocks and
    # can silently serialize a wide stage)
    return ds.map_batches(
        lambda b: canonicalize_candidates(
            b, depth_col=depth_col, parent_col=parent_col, now_us=now_us,
            epoch=epoch, url_filter=url_filter, priority_fn=priority_fn,
        ),
        batch_format="pyarrow",
        batch_size=batch_size,
        zero_copy_batch=True,
    )
