"""PNG codec roundtrip, qpng PSNR band, phash stability, hashing determinism."""

from __future__ import annotations

import numpy as np
import pytest

from heroshi_ray.functions.hashing import hash64
from heroshi_ray.functions.image import (
    decode_image,
    encode_image,
    hamming64,
    phash64,
    png_decode,
    png_encode,
    psnr,
    quantize6,
)


def smooth_image(rng, h, w):
    yy, xx = np.mgrid[0:h, 0:w]
    base = (
        128
        + 80 * np.sin(xx / w * 3.1 + rng.uniform(0, 6))
        + 60 * np.cos(yy / h * 2.3 + rng.uniform(0, 6))
    )
    px = np.stack([base + rng.uniform(-9, 9), base * 0.8, 255 - base * 0.5], axis=2)
    return np.clip(px, 0, 255).astype(np.uint8)


def test_png_roundtrip_exact():
    rng = np.random.default_rng(1)
    for h, w in [(8, 8), (32, 48), (64, 33)]:
        px = rng.integers(0, 256, size=(h, w, 3), dtype=np.uint8)
        assert np.array_equal(png_decode(png_encode(px)), px)


def test_qpng_psnr_band():
    rng = np.random.default_rng(2)
    px = smooth_image(rng, 48, 64)
    out = decode_image(encode_image(px, "qpng"), "qpng")
    p = psnr(px, out)
    assert 40.0 <= p <= 60.0, p
    assert np.array_equal(out, quantize6(px))


def test_psnr_identity_inf():
    px = np.zeros((8, 8, 3), dtype=np.uint8)
    assert psnr(px, px) == float("inf")


def test_phash_stable_and_robust():
    rng = np.random.default_rng(3)
    px = smooth_image(rng, 64, 64)
    h1 = phash64(px)
    assert h1 == phash64(px)
    assert isinstance(h1, int)
    # quantization barely moves the hash
    h2 = phash64(quantize6(px))
    assert hamming64([h1], [h2])[0] <= 4
    # a very different image is far
    h3 = phash64(smooth_image(np.random.default_rng(99), 64, 64))
    assert hamming64([h1], [h3])[0] >= 8


def test_unknown_fmt():
    # jpeg became a real codec in r4; webp remains the honest stub
    with pytest.raises(NotImplementedError):
        decode_image(b"xx", "webp")
    with pytest.raises(ValueError):
        decode_image(b"xx", "jpeg")


def test_hash64_deterministic():
    a = hash64(["http://x/", "http://y/"])
    b = hash64(["http://x/", "http://y/"])
    assert a.dtype == np.uint64
    assert np.array_equal(a, b)
    assert a[0] != a[1]


def test_codec_oracle_cache_keyed_by_sf_dir(ray_session, tmp_path):
    """The part-keyed codec corpus is built from sf_dir's part table, so
    two dirs with different part keys below 96 must not share its cache."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_codec_decode

    counts = []
    for name, keys in (("a", [0, 1, 2, 3, 200]), ("b", list(range(8)))):
        d = tmp_path / name
        d.mkdir()
        pq.write_table(
            pa.table({"p_partkey": pa.array(keys, pa.int64())}), d / "part.parquet"
        )
        counts.append(q_codec_decode(str(d)).count())
    assert counts == [4, 8]

def test_alignment_score_stage_matches_pure_composition(ray_session):
    """AlignmentScoreStage through Ray == composing the pure embedding
    functions without Ray, exactly (same ops, same order)."""
    import numpy as np
    import pyarrow as pa

    import ray
    from heroshi_ray.fixtures import make_corpus
    from heroshi_ray.pipelines.dataops import q_caption_align
    from heroshi_ray.stages.multimodal import (
        AlignmentScoreStage,
        ImageFeatureStage,
        image_embed64,
        make_align_proj,
        text_embed64,
    )

    corpus = make_corpus(48, seed=11)
    got = (
        ray.data.from_arrow(corpus)
        .map_batches(
            AlignmentScoreStage,
            batch_format="pyarrow",
            batch_size=16,
            concurrency=2,
        )
        .to_pandas()
        .set_index("image_id")["align_e4"]
    )

    feats = np.asarray(
        ImageFeatureStage()(corpus).column("features").to_pylist(), np.float64
    )
    iv = image_embed64(feats, make_align_proj())
    tv = text_embed64(corpus.column("caption").to_pylist())
    want = np.round(np.sum(iv * tv, axis=1) * 10_000).astype(np.int64)
    ids = corpus.column("image_id").to_pylist()
    assert len(got) == len(ids)
    for i, w in zip(ids, want):
        assert got[i] == w, i
    # scores are bounded cosines
    assert got.abs().max() <= 10_000

    # the query wrapper flags at the threshold
    df = q_caption_align("/root/testdata/sf0.001").to_pandas()
    assert set(df.columns) == {"image_id", "align_e4", "keep"}
    assert ((df["keep"] == 1) == (df["align_e4"] >= 0)).all()


def test_clip_retrieval_eval_matches_replica(ray_session):
    """The distributed partial-top-k retrieval eval must equal a no-Ray
    replica that ranks the FULL similarity matrix (same embeddings,
    same (cosine desc, image_id asc) tie-break)."""
    import numpy as np
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import (
        _ensure_corpus64,
        q_clip_retrieval_eval,
    )
    from heroshi_ray.stages.multimodal import (
        ImageFeatureStage,
        image_embed64,
        make_align_proj,
        text_embed64,
    )

    out = q_clip_retrieval_eval("/root/testdata/sf0.001").to_pandas()

    t = pq.read_table(_ensure_corpus64())
    ids = np.asarray(t.column("image_id").to_pylist())
    order = np.argsort(ids)
    n_q = 24
    qidx = order[:n_q]
    qv = text_embed64([t.column("caption")[int(i)].as_py() for i in qidx])
    feats = np.asarray(
        ImageFeatureStage()(t).column("features").to_pylist(), np.float64
    )
    iv = image_embed64(feats, make_align_proj())
    sims = qv @ iv.T
    rank = np.lexsort((ids[None, :].repeat(n_q, 0), -sims), axis=1)
    for _, row in out.iterrows():
        k = int(row["k"])
        hits = sum(
            ids[qidx[qi]] in set(ids[rank[qi, :k]]) for qi in range(n_q)
        )
        assert row["hits"] == hits and row["n_queries"] == n_q
        assert row["recall_e4"] == hits * 10_000 // n_q


def test_phash_clusters_matches_union_find(ray_session):
    """Distributed label propagation over the phash pair graph must
    equal a brute-force union-find on the same verified pairs, and the
    planted near-dup pairs must land in shared clusters."""
    from heroshi_ray.pipelines.dataops import (
        q_phash_clusters,
        q_phash_neardup,
    )

    out = q_phash_clusters("/root/testdata/sf0.001").to_pandas()
    pairs = q_phash_neardup("/root/testdata/sf0.001").to_pandas()
    assert len(pairs) > 0  # the fixture plants near-dups

    parent: dict[str, str] = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for _, r in pairs.iterrows():
        ra, rb = find(r["image_a"]), find(r["image_b"])
        if ra != rb:
            lo, hi = sorted((ra, rb))
            parent[hi] = lo

    got = dict(zip(out["image_id"], out["cluster_id"]))
    for iid, cid in got.items():
        assert cid == (find(iid) if iid in parent else iid)
    # every cluster id is its own representative (lexicographic min)
    for iid, cid in got.items():
        assert got[cid] == cid and cid <= iid


def test_dominant_color_matches_pure_decode(ray_session):
    """Actor-pool color binning must equal the pure decode_image
    composition, and the integer mean/bin rule must hold exactly."""
    import numpy as np
    import pyarrow.parquet as pq

    from heroshi_ray.functions.image import decode_image
    from heroshi_ray.pipelines.dataops import _ensure_corpus64, q_dominant_color

    out = (
        q_dominant_color("/root/testdata/sf0.001")
        .to_pandas()
        .set_index("image_id")
    )
    t = pq.read_table(_ensure_corpus64())
    assert len(out) == t.num_rows
    for iid, blob, fmt in zip(
        t.column("image_id").to_pylist()[:16],
        t.column("bytes").to_pylist()[:16],
        t.column("fmt").to_pylist()[:16],
    ):
        px = decode_image(blob, fmt).astype(np.int64)
        n = px.shape[0] * px.shape[1]
        m = px.reshape(n, 3).sum(axis=0) // n
        row = out.loc[iid]
        assert (row[["mean_r", "mean_g", "mean_b"]].to_numpy() == m).all()
        q = m >> 6
        assert row["color_bin"] == q[0] * 16 + q[1] * 4 + q[2]
    assert out["color_bin"].nunique() > 1
