"""End-to-end image+caption corpus production: the composite a user of
the reference would run nightly over a crawled corpus (BASELINE.json:15
schema) to turn raw fetches into training-ready shards.

    read corpus parquet
      -> metadata + caption gates   (LAION-style, q_image_curate's rules)
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
the resumable tmp+rename sink. The per-stage kernels are the exact
rules of their standalone oracled/pinned queries; tests pin the
composite's surviving id set and bucket assignment against a
single-process replica, and round-trip the shards byte-exactly.
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

    Gate rules match q_image_curate exactly (min dimension, integer
    cross-multiplied max aspect, known codec, caption token window);
    dedup keeps the smallest image_id per phash; bucketing matches
    q_aspect_bucket. Shards are PURE per aspect bucket and land under
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


def llm_corpus_run(
    sf_dir: str,
    out_dir: str,
    *,
    n_shards: int = 8,
    decon_n: int = 16,
    eval_mod: int = 97,
    driver_docs_max: int = 500_000,
    force_distributed: bool = False,
) -> "ray.data.Dataset":
    """End-to-end TEXT corpus production — the LLM-pretraining twin of
    curate_to_shards (what a user runs nightly to turn a crawled text
    corpus into training-ready shards):

        read documents
          -> Gopher rule gate          (gopher_flags — Rae+'21 A1.1)
          -> LR quality gate           (quality_z > 0 — Brown+'20 A)
          -> exact text dedup          (first doc_id per text, one
                                        hash-bucket shuffle)
          -> benchmark decontamination (drop eval docs AND train docs
                                        sharing a 16-char gram —
                                        GPT-3 App. C shape)
          -> size-rank shard routing   (size_rank_shards, no global
                                        sort)
          -> one parquet file per shard dir (tmp+rename, skip-if-done)
             + manifest Dataset (shard, n_docs, n_tokens, path)

    Every gate kernel is the SAME function its standalone oracled query
    runs, so the composite's survivor set is pinned transitively; the
    composite itself is pinned against a single-process replica and
    re-run idempotency in tests/test_curation_pipeline.py.

    Scale shape: gates stream and prune BEFORE the dedup shuffle (the
    only all-to-all that moves text; int64 bucket keys); the eval-gram
    set is benchmark-sized by definition and rides ray.put; shard
    routing shuffles (doc_id, w) ints only, then text attaches via one
    distributed hash join keyed on doc_id; each shard dir writes
    atomically so a failed run resumes per shard."""
    import os

    import pyarrow.parquet as pq_mod
    import pyarrow.compute as pc

    from ..runtime import join_partitions, tune_join_resources
    from ..stages.dedup import dedup_first
    from .dataops import (
        _batch_distinct_grams,
        _poly_powers,
        _pq,
        gopher_flags,
        quality_z,
        size_rank_shards,
    )

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text", "lang", "source"],
             split=True)

    # -- benchmark gram set (from the RAW corpus, q_decontaminate's rule)
    def eval_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        grams: set[str] = set()
        for i, t in zip(ids, texts):
            if int(i) % eval_mod == 0 and t and len(t) >= decon_n:
                grams.update(
                    t[j : j + decon_n] for j in range(len(t) - decon_n + 1)
                )
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    # distinct across batches: the set is benchmark-bounded and pulled
    # to the driver either way — one set-union replaces the string
    # groupby all-to-all (q_decontaminate's recipe)
    ev_strings = sorted(
        set(
            ds.map_batches(
                eval_grams, batch_format="pyarrow", zero_copy_batch=True
            ).to_pandas()["g"]
        )
    )
    pw = _poly_powers(decon_n)
    _d, ev_hh = _batch_distinct_grams(ev_strings, decon_n, pw)
    ev_ref = ray.put((pa.array(ev_strings, pa.string()), np.unique(ev_hh)))

    def gates(batch: pa.Table) -> pa.Table:
        keep = gopher_flags(batch.column("text")).column("keep").to_numpy(
            zero_copy_only=False
        ).astype(bool)
        keep &= quality_z(batch.column("text")) > 0.0
        # eval docs themselves never enter the training corpus
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        keep &= (ids % eval_mod) != 0
        out = batch.filter(pa.array(keep))
        if out.num_rows == 0:
            return out
        # contamination: any shared 16-gram with the benchmark set —
        # q_decontaminate's vectorized kernel: one codepoint
        # sliding-window hash sweep + one np.isin prefilter, exact
        # string verify only on the sparse hash candidates
        evs, ev_hashes = ray.get(ev_ref)
        texts = out.column("text").to_pylist()
        d, hh = _batch_distinct_grams(texts, decon_n, pw)
        if not len(d):
            return out
        contaminated = np.zeros(len(texts), bool)
        for di in np.unique(d[np.isin(hh, ev_hashes)]):
            t = texts[int(di)]
            grams = list({t[j : j + decon_n] for j in range(len(t) - decon_n + 1)})
            m = pc.is_in(pa.array(grams, pa.string()), value_set=evs)
            if pc.any(m).as_py():
                contaminated[int(di)] = True
        return out.filter(pa.array(~contaminated))

    gated = ds.map_batches(gates, batch_format="pyarrow", zero_copy_batch=True)

    import polars as pl

    os.makedirs(out_dir, exist_ok=True)

    def write_shard(g: pd.DataFrame) -> pd.DataFrame:
        s = int(g["shard"].iloc[0])
        g = g.sort_values("doc_id", kind="mergesort").drop(columns="shard")
        d = os.path.join(out_dir, f"shard={s}")
        os.makedirs(d, exist_ok=True)
        path = os.path.join(d, "part-0.parquet")
        # resumable: skip a finished shard only if its content matches
        # THIS run (same doc_id set in the same order) — a stale shard
        # from a different corpus/params is rewritten, so manifest and
        # on-disk parquet can never disagree
        reuse = False
        if os.path.exists(path):
            try:
                old = (
                    pq_mod.read_table(path, columns=["doc_id"])
                    .column("doc_id")
                    .to_numpy()
                )
                reuse = np.array_equal(old, g["doc_id"].to_numpy())
            except Exception:
                reuse = False
        if not reuse:
            tmp = path + ".tmp"
            pq_mod.write_table(pa.Table.from_pandas(g, preserve_index=False), tmp)
            os.replace(tmp, path)
        n_tok = int(
            pl.from_pandas(g["text"]).str.split(" ").list.len().sum()
        )
        return pd.DataFrame(
            {
                "shard": [s],
                "n_docs": [len(g)],
                "n_tokens": [n_tok],
                "path": [path],
            }
        )

    docs_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows
    if docs_rows <= driver_docs_max and not force_distributed:
        # driver fork: survivors are gate-bounded; the first-per-text
        # dedup, size-rank routing and shard writes run through the
        # SAME kernels in one driver pass — the streaming plan's text
        # dedup shuffle + rank shuffle + repartition + hash join were
        # four all-to-alls of fixed cost at this scale. Streaming plan
        # unchanged above the gate; forks equivalence-tested.
        from ..stages.dedup import _first_per_key

        sdf = gated.to_pandas()
        frames = []
        if len(sdf):
            sdf = _first_per_key(sdf, "text", ["doc_id"])
            w = (
                pl.from_pandas(sdf["text"])
                .str.split(" ")
                .list.len()
                .cast(pl.Int64)
                .to_numpy()
            )
            order = np.lexsort((sdf["doc_id"].to_numpy(), -w))
            shard = np.empty(len(sdf), np.int64)
            shard[order] = np.arange(len(sdf), dtype=np.int64) % n_shards
            sdf = sdf.assign(shard=shard)
            frames = [
                write_shard(g) for _, g in sdf.groupby("shard", sort=True)
            ]
        man = (
            pd.concat(frames, ignore_index=True)
            if frames
            else pd.DataFrame(
                {
                    "shard": pd.Series(dtype=np.int64),
                    "n_docs": pd.Series(dtype=np.int64),
                    "n_tokens": pd.Series(dtype=np.int64),
                    "path": pd.Series(dtype=object),
                }
            )
        )
        return pa.Table.from_pandas(man, preserve_index=False)

    deduped = dedup_first(
        gated, key="text", tie_cols=("doc_id",), n_buckets=default_buckets()
    ).materialize()

    # -- shard routing on ints, text re-attached by one hash join
    def toklen(batch: pa.Table) -> pa.Table:
        w = (
            pl.from_arrow(batch.column("text"))
            .str.split(" ")
            .list.len()
            .cast(pl.Int64)
            .to_numpy()
        )
        return pa.table(
            {"doc_id": batch.column("doc_id"), "w": pa.array(w, pa.int64())}
        )

    lens = deduped.map_batches(toklen, batch_format="pyarrow",
                               zero_copy_batch=True)
    routed = size_rank_shards(lens, n_shards)
    tune_join_resources()
    nparts = join_partitions(8)
    sharded = deduped.repartition(nparts).join(
        routed.select_columns(["doc_id", "shard"]).repartition(nparts),
        join_type="inner",
        num_partitions=nparts,
        on=("doc_id",),
    )

    return sharded.groupby("shard").map_groups(write_shard,
                                               batch_format="pandas")
