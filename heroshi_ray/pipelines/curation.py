"""End-to-end image+caption corpus production: the composite a user of
the reference would run nightly over a crawled corpus (BASELINE.json:15
schema) to turn raw fetches into training-ready shards.

    read corpus parquet
      -> metadata + caption gates   (LAION-style)
      -> exact phash dedup          (first image_id per phash, one
                                     int64-bucket shuffle)
      -> aspect-ratio bucketing     (q_aspect_bucket's ladder-argmin rule)
      -> WebDataset tar shards, one directory per aspect bucket
         (write_tar_shards partition_col) + manifest Dataset

Everything streams: the gate prunes BEFORE image bytes move anywhere
they aren't needed, the only all-to-all is the phash-bucket dedup
shuffle (int64 keys; bytes ride the shuffle exactly once — at 100 TB
the alternative, a keys-only dedup then a re-join to attach bytes, is
a second full pass over the byte payloads, so carrying them is the
cheaper plan while payloads fit block budgets), and shard writing is
the resumable tmp+rename sink. The gate and dedup rules are pinned by
the composite's replica test (tests/test_curation_pipeline.py), which
checks the surviving id set and bucket assignment against a
single-process replica and round-trips the shards byte-exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

import ray
import ray.data

from ..runtime import default_buckets
from ..sources.tarshards import write_tar_shards

ASPECT_LADDER = (50, 75, 100, 133, 150, 200)


def aspect_bucket_of(w: np.ndarray, h: np.ndarray, ladder=ASPECT_LADDER) -> np.ndarray:
    """Nearest aspect bucket by cross-multiplied |100*w - r*h|, ties to
    the smaller r (q_aspect_bucket's kernel, shared)."""
    lad = np.asarray(ladder, np.int64)
    diff = np.abs(100 * w.astype(np.int64)[:, None] - lad[None, :] * h.astype(np.int64)[:, None])
    return lad[np.argmin(diff, axis=1)]


def curate_to_shards(
    corpus_path: str,
    out_dir: str,
    *,
    min_dim: int = 48,
    max_aspect_e2: int = 150,
    min_cap_tokens: int = 6,
    max_cap_tokens: int = 18,
    samples_per_shard: int = 64,
    ladder=ASPECT_LADDER,
    n_buckets: int | None = None,
) -> "ray.data.Dataset":
    """Run the full curation composite; returns the shard manifest
    Dataset (shard, n_samples, n_bytes, key range, partition=bucket).

    Gate rules (min dimension, integer cross-multiplied max aspect,
    known codec, caption token window) and the dedup (smallest image_id
    per phash) are pinned by the composite's replica test; bucketing
    matches q_aspect_bucket. Shards are PURE per aspect bucket and land under
    ``out_dir/bucket=<r>/`` so a bucketed training loader and a resumed
    run both work per directory."""
    import polars as pl

    B = n_buckets or default_buckets(per_cpu=4, hi=256)
    ds = ray.data.read_parquet(corpus_path)

    def gate(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_numpy(zero_copy_only=False).astype(np.int64)
        h = batch.column("h").to_numpy(zero_copy_only=False).astype(np.int64)
        fmt = batch.column("fmt").to_numpy(zero_copy_only=False)
        lo = np.minimum(w, h)
        hi = np.maximum(w, h)
        ntok = (
            pl.from_arrow(batch.column("caption"))
            .str.count_matches(r"\S+")
            .cast(pl.Int64)
            .to_numpy()
        )
        keep = (
            (lo >= min_dim)
            & (hi * 100 <= max_aspect_e2 * lo)
            & np.isin(fmt, ("png", "qpng"))
            & (ntok >= min_cap_tokens)
            & (ntok <= max_cap_tokens)
        )
        out = batch.filter(pa.array(keep))
        ph = out.column("phash").to_numpy(zero_copy_only=False)
        return out.append_column(
            "__b",
            pa.array((ph.astype(np.uint64) % np.uint64(B)).astype(np.int32), pa.int32()),
        )

    def first_per_phash(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["phash", "image_id"], kind="mergesort")
        return g[~g["phash"].duplicated()].drop(columns="__b")

    def add_bucket(batch: pa.Table) -> pa.Table:
        w = batch.column("w").to_numpy(zero_copy_only=False)
        h = batch.column("h").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "bucket", pa.array(aspect_bucket_of(w, h, ladder), pa.int64())
        )

    curated = (
        ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(first_per_phash, batch_format="pandas")
        .map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
    )
    return write_tar_shards(
        curated,
        out_dir,
        samples_per_shard=samples_per_shard,
        partition_col="bucket",
    )
