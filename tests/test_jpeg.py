"""Baseline-JPEG codec tests (functions/jpeg.py, new in r4).

Covers: roundtrip PSNR floors per subsampling mode, odd (non-multiple-
of-8/16) dimensions, grayscale frames, DRI/restart-marker resync,
byte-stuffing in the entropy stream, marker-level structure, rejection
of progressive frames, determinism, and the corpus integration —
strict-decode phash parity and the per-row PSNR>=40dB corpus invariant
(pipelines/verify.py) over real jpeg and gif bytes.
"""

from __future__ import annotations

import numpy as np
import pytest

from heroshi_ray.fixtures import _pixels, make_corpus_pair
from heroshi_ray.functions.image import decode_image, encode_image, phash64, psnr
from heroshi_ray.functions.jpeg import ZIGZAG, jpeg_decode, jpeg_encode


def _img(seed: int, h: int, w: int) -> np.ndarray:
    return _pixels(np.random.default_rng(seed), h, w)


# ------------------------------------------------------------ roundtrip --
@pytest.mark.parametrize("h,w", [(32, 32), (48, 64), (33, 45), (8, 8), (17, 9)])
def test_roundtrip_444_psnr_floor(h, w):
    px = _img(h * 100 + w, h, w)
    dec = jpeg_decode(jpeg_encode(px, quality=95, subsample="444"))
    assert dec.shape == px.shape
    assert psnr(px, dec) >= 42.0


@pytest.mark.parametrize("h,w", [(32, 32), (48, 64), (33, 45), (16, 24)])
def test_roundtrip_420_psnr_floor(h, w):
    px = _img(h * 100 + w + 7, h, w)
    dec = jpeg_decode(jpeg_encode(px, quality=92, subsample="420"))
    assert dec.shape == px.shape
    assert psnr(px, dec) >= 30.0


def test_flat_image_lossless():
    px = np.full((24, 24, 3), 128, np.uint8)
    dec = jpeg_decode(jpeg_encode(px, quality=90))
    assert np.array_equal(dec, px)


def test_quality_monotone():
    px = _img(5, 48, 48)
    p = [
        psnr(px, jpeg_decode(jpeg_encode(px, quality=q)))
        for q in (50, 75, 95)
    ]
    assert p[0] < p[1] < p[2]


def test_determinism():
    px = _img(9, 40, 40)
    assert jpeg_encode(px, 90) == jpeg_encode(px, 90)


# --------------------------------------------------------- marker level --
def test_marker_structure():
    px = _img(11, 32, 48)
    data = jpeg_encode(px, 90)
    assert data[:2] == b"\xFF\xD8" and data[-2:] == b"\xFF\xD9"
    assert data[2:4] == b"\xFF\xE0" and data[6:11] == b"JFIF\x00"
    # SOF0 present with the right dimensions
    i = data.find(b"\xFF\xC0")
    assert i > 0
    import struct

    _, prec, fh, fw, nc = struct.unpack_from(">HBHHB", data, i + 2)
    assert (prec, fh, fw, nc) == (8, 32, 48, 3)


def test_byte_stuffing_roundtrip():
    # dense high-frequency content reliably produces 0xFF entropy bytes;
    # the stream must contain stuffed FF00 pairs and still decode
    rng = np.random.default_rng(0)
    px = rng.integers(0, 256, (48, 48, 3), dtype=np.uint8)
    data = jpeg_encode(px, quality=95)
    scan = data[data.find(b"\xFF\xDA") :]
    assert b"\xFF\x00" in scan
    dec = jpeg_decode(data)
    assert dec.shape == px.shape  # noise content: no PSNR claim, no crash


def test_restart_markers():
    px = _img(13, 40, 56)
    plain = jpeg_decode(jpeg_encode(px, 95))
    for sub, ri in (("444", 3), ("420", 2), ("444", 1)):
        data = jpeg_encode(px, 95 if sub == "444" else 92, sub, restart_interval=ri)
        assert b"\xFF\xDD" in data  # DRI segment
        assert any(bytes([0xFF, 0xD0 + k]) in data for k in range(8))
        dec = jpeg_decode(data)
        assert psnr(px, dec) >= 30.0
    # restart path must agree with the no-restart path bit-exactly on 444
    again = jpeg_decode(jpeg_encode(px, 95, "444", restart_interval=5))
    assert np.array_equal(plain, again)


def test_grayscale():
    px = _img(17, 24, 40)
    data = jpeg_encode(px, 95, gray=True)
    dec = jpeg_decode(data)
    y = 0.299 * px[:, :, 0] + 0.587 * px[:, :, 1] + 0.114 * px[:, :, 2]
    yimg = np.clip(np.round(np.stack([y, y, y], axis=2)), 0, 255).astype(np.uint8)
    assert dec.shape == yimg.shape
    assert psnr(yimg, dec) >= 42.0
    # all three output channels identical
    assert np.array_equal(dec[:, :, 0], dec[:, :, 1])


def test_progressive_rejected():
    px = _img(19, 16, 16)
    data = bytearray(jpeg_encode(px, 90))
    data[data.find(b"\xFF\xC0") + 1] = 0xC2
    with pytest.raises(ValueError, match="progressive"):
        jpeg_decode(bytes(data))


def test_truncated_rejected():
    px = _img(21, 32, 32)
    data = jpeg_encode(px, 90)
    with pytest.raises(ValueError):
        jpeg_decode(data[: len(data) // 2])


def test_zigzag_is_the_t81_order():
    # spot-check the first diagonal walk of Figure 5
    assert ZIGZAG[:10].tolist() == [0, 1, 8, 16, 9, 2, 3, 10, 17, 24]


# ------------------------------------------------------- fmt integration --
def test_encode_decode_image_jpeg_fmt():
    px = _img(23, 48, 32)
    blob = encode_image(px, "jpeg")
    dec = decode_image(blob, "jpeg")
    assert psnr(px, dec) >= 42.0
    dec420 = decode_image(encode_image(px, "jpeg420"), "jpeg420")
    assert psnr(px, dec420) >= 30.0


def test_corpus_pair_fixture_mixed_formats():
    corpus, ref = make_corpus_pair(48, seed=321, jpeg_frac=0.25)
    fmts = set(corpus.column("fmt").to_pylist())
    assert fmts == {"png", "qpng", "jpeg"}
    # stored phash is the phash of the DECODED lossy payload
    for i in range(corpus.num_rows):
        if corpus.column("fmt")[i].as_py() != "jpeg":
            continue
        px = decode_image(
            corpus.column("bytes")[i].as_py(), "jpeg"
        )
        assert phash64(px) == corpus.column("phash")[i].as_py()
        break
    else:
        pytest.fail("no jpeg row in fixture")


def test_make_corpus_default_unchanged():
    # jpeg_frac defaults to 0.0 and must leave the r1-r3 corpus
    # byte-identical (golden tests pin it)
    from heroshi_ray.fixtures import make_corpus

    t = make_corpus(8, seed=123)
    assert set(t.column("fmt").to_pylist()) <= {"png", "qpng"}


def _verify_corpus_pair(tmp_path, **kw):
    """Write a mixed-format corpus to parquet under tmp_path and run the
    per-row corpus invariant over it against its lossless reference
    twin (real jpeg/gif decode inside the verifier's actor pool)."""
    import pyarrow.parquet as pq
    import ray

    from heroshi_ray.pipelines.verify import verify_corpus

    corpus, ref = make_corpus_pair(96, **kw)
    path = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, path)
    return verify_corpus(ray.data.read_parquet(path), ref).to_pandas()


def test_q_jpeg_decode_invariant(ray_session, tmp_path):
    """Every row of the mixed png/qpng/jpeg corpus passes the per-row
    invariant (PSNR>=40 lossy / byte-equal png, caption equal) against
    the lossless reference twin."""
    out = _verify_corpus_pair(tmp_path, seed=321, jpeg_frac=0.25)
    assert len(out) == 96
    assert bool(out["passed"].all())
    assert bool(out["found"].all()) and bool(out["caption_equal"].all())


def test_strict_decode_stage_jpeg():
    """Strict decode over the jpeg corpus: decode_image raises on bad
    bytes (no fallback), and the recomputed phash equals the stored
    column on every row."""
    corpus, _ = make_corpus_pair(96, seed=321, jpeg_frac=0.25)
    blobs = corpus.column("bytes").to_pylist()
    fmts = corpus.column("fmt").to_pylist()
    recomputed = [phash64(decode_image(b, f)) for b, f in zip(blobs, fmts)]
    assert len(recomputed) == 96
    assert recomputed == corpus.column("phash").to_pylist()


# ------------------------------------------------------------------ gif --
def test_gif_lossless_exact_palette():
    from heroshi_ray.functions.gif import gif_decode, gif_encode

    px = np.zeros((20, 30, 3), np.uint8)
    px[5:15, 5:25] = [200, 30, 90]
    px[8:12, 10:20] = [10, 220, 180]
    dec, delays = gif_decode(gif_encode(px))
    assert np.array_equal(dec[0], px) and delays == [0]


def test_gif_adaptive_psnr_floor():
    from heroshi_ray.functions.gif import gif_decode, gif_encode

    rng = np.random.default_rng(31)
    for _ in range(6):
        px = _pixels(rng, int(rng.integers(24, 65)), int(rng.integers(24, 65)))
        dec, _ = gif_decode(gif_encode(px))
        assert psnr(px, dec[0]) >= 42.0


def test_gif_animation_and_max_frames():
    from heroshi_ray.functions.gif import gif_decode, gif_encode

    rng = np.random.default_rng(33)
    base = _pixels(rng, 24, 32)
    frames = np.stack([np.roll(base, 3 * i, axis=1) for i in range(5)])
    enc = gif_encode(frames, delay_cs=7)
    dec, delays = gif_decode(enc)
    assert dec.shape == frames.shape and delays == [7] * 5
    assert min(psnr(frames[i], dec[i]) for i in range(5)) >= 42.0
    dec2, _ = gif_decode(enc, max_frames=2)
    assert dec2.shape[0] == 2 and np.array_equal(dec2[1], dec[1])


def test_gif_interlaced_decode():
    """Hand-build an interlaced frame: permute rows into pass order,
    set the interlace flag, and check the decoder restores raster
    order."""
    import struct as _struct

    from heroshi_ray.functions.gif import (
        _INTERLACE_PASSES,
        gif_decode,
        gif_encode,
    )

    px = np.zeros((16, 8, 3), np.uint8)
    px[:, :, 0] = (np.arange(16)[:, None] * 16).astype(np.uint8)
    enc = bytearray(gif_encode(px))
    # rebuild: encode a row-permuted image, then mark it interlaced
    order = np.concatenate(
        [np.arange(s, 16, st) for s, st in _INTERLACE_PASSES]
    )
    permuted = px[order]
    enc2 = bytearray(gif_encode(permuted))
    i = enc2.find(b"\x2C")
    enc2[i + 9] |= 0x40  # image-descriptor interlace flag
    dec, _ = gif_decode(bytes(enc2))
    assert np.array_equal(dec[0], px)


def test_gif_fmt_integration_and_errors():
    from heroshi_ray.functions.gif import gif_decode

    px = _img(41, 32, 24)
    dec = decode_image(encode_image(px, "gif"), "gif")
    assert psnr(px, dec) >= 42.0
    with pytest.raises(ValueError):
        gif_decode(b"nope")
    with pytest.raises(ValueError):
        gif_decode(encode_image(px, "gif")[:40])


def test_q_gif_decode_invariant(ray_session, tmp_path):
    """The same per-row invariant over a png/qpng/jpeg/gif corpus."""
    out = _verify_corpus_pair(tmp_path, seed=654, jpeg_frac=0.15, gif_frac=0.2)
    assert len(out) == 96
    assert bool(out["passed"].all())
