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


def test_llm_corpus_run_matches_replica_and_resumes(ray_session, tmp_path):
    """The text-corpus composite must equal a single-process replica of
    the composed rules (shared gate kernels, first-per-text dedup,
    eval-gram decontamination, size-rank routing), write readable
    per-shard parquet, and skip finished shards on re-run."""
    from heroshi_ray.pipelines.curation import llm_corpus_run
    from heroshi_ray.pipelines.dataops import gopher_flags, quality_z

    sf = "/root/testdata/sf0.001"
    out = str(tmp_path / "corpus_run")
    man = (
        llm_corpus_run(sf, out)
        .to_pandas()
        .sort_values("shard")
        .reset_index(drop=True)
    )

    # ---- single-process replica ----
    t = pq.read_table(os.path.join(sf, "documents.parquet"))
    df = t.to_pandas().sort_values("doc_id").reset_index(drop=True)
    keep = (
        gopher_flags(pa.array(df["text"])).column("keep")
        .to_numpy(zero_copy_only=False)
        .astype(bool)
    )
    keep &= quality_z(pa.array(df["text"])) > 0.0
    keep &= (df["doc_id"].to_numpy() % 97) != 0
    ev_grams = set()
    for _, r in df[df["doc_id"] % 97 == 0].iterrows():
        s = r["text"]
        ev_grams.update(s[j : j + 16] for j in range(max(len(s) - 16 + 1, 0)))
    surv = df[keep].copy()
    surv = surv[
        surv["text"].map(
            lambda s: not any(
                s[j : j + 16] in ev_grams
                for j in range(max(len(s) - 16 + 1, 0))
            )
        )
    ]
    surv = surv.sort_values(["text", "doc_id"]).drop_duplicates("text")
    w = surv["text"].str.split(" ").str.len().astype("int64")
    order = np.lexsort((surv["doc_id"].to_numpy(), -w.to_numpy()))
    shard = pd.Series(
        np.arange(len(surv), dtype=np.int64) % 8,
        index=surv.index[order],
    )
    surv["shard"] = shard
    exp = (
        surv.assign(w=w)
        .groupby("shard")
        .agg(n_docs=("doc_id", "size"), n_tokens=("w", "sum"))
        .reset_index()
    )

    got = man[["shard", "n_docs", "n_tokens"]].astype("int64")
    pd.testing.assert_frame_equal(got, exp.astype("int64"), check_exact=True)

    # written shards round-trip: union of files == survivor set
    back = pd.concat([pq.read_table(p).to_pandas() for p in man["path"]])
    assert set(back["doc_id"]) == set(surv["doc_id"])
    assert (
        back.sort_values("doc_id")["text"].tolist()
        == surv.sort_values("doc_id")["text"].tolist()
    )

    # resume: second run over the same out_dir rewrites nothing
    mtimes = {p: os.path.getmtime(p) for p in man["path"]}
    man2 = llm_corpus_run(sf, out).to_pandas().sort_values("shard")
    pd.testing.assert_frame_equal(
        man2.reset_index(drop=True), man.reset_index(drop=True)
    )
    assert {p: os.path.getmtime(p) for p in man2["path"]} == mtimes


def test_llm_corpus_run_streaming_fork_equivalence(ray_session, tmp_path):
    """force_distributed routes the dedup/routing/join/write through the
    streaming plans; the manifest and written shards must be identical
    to the driver fork."""
    import pandas as pd

    from heroshi_ray.pipelines.curation import llm_corpus_run

    sf = "/root/testdata/sf0.001"
    out_a = str(tmp_path / "drv")
    out_b = str(tmp_path / "dist")
    a = llm_corpus_run(sf, out_a).to_pandas().sort_values("shard").reset_index(drop=True)
    b = (
        llm_corpus_run(sf, out_b, force_distributed=True)
        .to_pandas()
        .sort_values("shard")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(
        a.drop(columns="path"), b.drop(columns="path"), check_dtype=False
    )
    for pa_, pb_ in zip(a["path"], b["path"]):
        da = pq.read_table(pa_).to_pandas().sort_values("doc_id").reset_index(drop=True)
        db = pq.read_table(pb_).to_pandas().sort_values("doc_id").reset_index(drop=True)
        pd.testing.assert_frame_equal(da, db[da.columns], check_dtype=False)
