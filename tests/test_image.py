"""PNG codec roundtrip, qpng PSNR band, phash stability, hashing determinism."""

from __future__ import annotations

import numpy as np
import pytest

from heroshi_ray.functions.hashing import hash64
from heroshi_ray.functions.image import (
    decode_image,
    encode_image,
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
    assert bin((h1 ^ h2) & (1 << 64) - 1).count("1") <= 4
    # a very different image is far
    h3 = phash64(smooth_image(np.random.default_rng(99), 64, 64))
    assert bin((h1 ^ h3) & (1 << 64) - 1).count("1") >= 8


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
