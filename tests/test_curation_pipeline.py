"""End-to-end curation composite (gate -> phash dedup -> aspect bucket
-> partitioned tar shards): survivor set + bucket assignment pinned
against a single-process replica, byte-exact round-trip, bucket-pure
shards, idempotent re-run."""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from heroshi_ray.fixtures import make_corpus
from heroshi_ray.pipelines.curation import (
    ASPECT_LADDER,
    aspect_bucket_of,
    curate_to_shards,
)
from heroshi_ray.sources.tarshards import read_tar_shards


@pytest.fixture(scope="module")
def corpus() -> pa.Table:
    base = make_corpus(120, seed=9)
    # plant exact phash duplicates: copies of the first 10 rows under
    # LARGER image_ids (dedup must keep the original smaller id)
    dup = base.slice(0, 10).to_pydict()
    dup["image_id"] = [f"zzz-dup{i:04d}" for i in range(10)]
    return pa.concat_tables([base, pa.table(dup, schema=base.schema)])


def _replica(df: pd.DataFrame) -> pd.DataFrame:
    """Single-process replica of the composite's survivor set."""
    ntok = df["caption"].str.split().str.len().fillna(0).astype(int)
    lo = np.minimum(df["w"], df["h"]).astype(np.int64)
    hi = np.maximum(df["w"], df["h"]).astype(np.int64)
    keep = (
        (lo >= 48)
        & (hi * 100 <= 150 * lo)
        & df["fmt"].isin(["png", "qpng"])
        & (ntok >= 6)
        & (ntok <= 18)
    )
    sub = df[keep].sort_values(["phash", "image_id"], kind="mergesort")
    sub = sub[~sub["phash"].duplicated()].copy()
    sub["bucket"] = aspect_bucket_of(
        sub["w"].to_numpy(), sub["h"].to_numpy(), ASPECT_LADDER
    )
    return sub


def test_curate_to_shards_end_to_end(ray_session, corpus, tmp_path):
    src = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, src)
    out = str(tmp_path / "shards")

    manifest = curate_to_shards(
        src, out, samples_per_shard=16
    ).to_pandas()
    expected = _replica(corpus.to_pandas())
    assert len(expected) > 0 and len(expected) < corpus.num_rows

    # manifest accounting
    assert manifest["n_samples"].sum() == len(expected)
    assert (manifest["partition"] != "").all()
    for row in manifest.itertuples():
        assert os.path.getsize(os.path.join(out, row.shard)) == row.n_bytes
        assert row.shard.startswith(f"bucket={row.partition}{os.sep}")

    # planted duplicates dropped, originals kept
    back = read_tar_shards(out).to_pandas()
    assert not back["image_id"].str.startswith("zzz-dup").any()
    assert set(back["image_id"]) == set(expected["image_id"])

    # byte-exact round-trip of every surviving payload + metadata
    orig = corpus.to_pandas().set_index("image_id")
    back_i = back.set_index("image_id")
    for iid in back_i.index:
        assert back_i.loc[iid, "bytes"] == orig.loc[iid, "bytes"]
        assert back_i.loc[iid, "caption"] == orig.loc[iid, "caption"]
        assert back_i.loc[iid, "phash"] == orig.loc[iid, "phash"]

    # bucket purity: every shard dir holds only rows whose replica
    # bucket equals the dir's partition value
    exp_bucket = expected.set_index("image_id")["bucket"]
    for row in manifest.itertuples():
        shard_ds = read_tar_shards(
            os.path.join(out, os.path.dirname(row.shard))
        ).to_pandas()
        assert (
            exp_bucket.loc[shard_ds["image_id"]].astype(str)
            == row.partition
        ).all()

    # idempotent re-run: same manifest, no shard rewritten
    files = {
        row.shard: os.path.getmtime(os.path.join(out, row.shard))
        for row in manifest.itertuples()
    }
    manifest2 = curate_to_shards(src, out, samples_per_shard=16).to_pandas()
    assert manifest2["n_samples"].sum() == len(expected)
    for row in manifest2.itertuples():
        assert os.path.getmtime(os.path.join(out, row.shard)) == files[row.shard]
