"""Image payload codecs + perceptual hash + PSNR (SURVEY.md §2.2 M8–M10).

The sandbox has no PIL / imageio (SURVEY.md §7.6), so the corpus formats
are hand-rolled from public specs with only stdlib ``zlib`` + numpy:

- ``"png"``  — a real, minimal PNG (RGB8, filter 0). Lossless:
  ``decode(encode(px)) == px`` byte-exact. Any standards-compliant PNG
  reader can open these files.
- ``"qpng"`` — the "lossy" format required to exercise the PSNR≥40dB
  branch of the per-row invariant (BASELINE.json:15): pixels quantized to
  6 bits/channel (v -> (v & ~3) | 2) then PNG-encoded. Decoding returns
  the quantized pixels, so PSNR vs the original sits in the ~42–48 dB
  band for smooth content.

All functions are batch-friendly: encode/decode work on one image (the
payload column is variable-shaped), phash/psnr are vectorized numpy.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    return (
        struct.pack(">I", len(payload))
        + tag
        + payload
        + struct.pack(">I", zlib.crc32(tag + payload) & 0xFFFFFFFF)
    )


def png_encode(px: np.ndarray, level: int = 6) -> bytes:
    """Encode HxWx3 uint8 pixels as a minimal RGB8 PNG (filter type 0)."""
    if px.dtype != np.uint8 or px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("png_encode expects HxWx3 uint8")
    h, w = px.shape[:2]
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 2, 0, 0, 0)  # bitdepth 8, color 2 (RGB)
    # prepend filter byte 0 per scanline, vectorized
    raw = np.empty((h, 1 + w * 3), dtype=np.uint8)
    raw[:, 0] = 0
    raw[:, 1:] = px.reshape(h, w * 3)
    idat = zlib.compress(raw.tobytes(), level)
    return _PNG_SIG + _chunk(b"IHDR", ihdr) + _chunk(b"IDAT", idat) + _chunk(b"IEND", b"")


def png_decode(data: bytes) -> np.ndarray:
    """Decode a PNG produced by :func:`png_encode` (RGB8, filter 0 only)."""
    if data[:8] != _PNG_SIG:
        raise ValueError("not a PNG")
    pos = 8
    w = h = None
    idat = []
    n = len(data)
    while pos + 8 <= n:
        (length,) = struct.unpack_from(">I", data, pos)
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        pos += 12 + length
        if tag == b"IHDR":
            w, h, depth, color = struct.unpack_from(">IIBB", payload)
            if depth != 8 or color != 2:
                raise ValueError("png_decode supports RGB8 only")
        elif tag == b"IDAT":
            idat.append(payload)
        elif tag == b"IEND":
            break
    if w is None:
        raise ValueError("missing IHDR")
    raw = np.frombuffer(zlib.decompress(b"".join(idat)), dtype=np.uint8)
    stride = 1 + w * 3
    raw = raw.reshape(h, stride)
    if np.any(raw[:, 0] != 0):
        raise ValueError("png_decode supports filter 0 only")
    return raw[:, 1:].reshape(h, w, 3).copy()


def quantize6(px: np.ndarray) -> np.ndarray:
    """6 bits/channel quantization with half-step reconstruction value."""
    return ((px & 0xFC) | 0x02).astype(np.uint8)


def encode_image(px: np.ndarray, fmt: str) -> bytes:
    if fmt == "png":
        return png_encode(px)
    if fmt == "qpng":
        return png_encode(quantize6(px))
    if fmt == "jpeg":
        # corpus lossy format #2: baseline JFIF at q95 4:4:4, which keeps
        # PSNR vs the source comfortably above the 40 dB invariant floor
        from .jpeg import jpeg_encode

        return jpeg_encode(px, quality=95, subsample="444")
    if fmt == "jpeg420":
        # the common web layout (2x2 chroma subsampling); decode-tested
        # but kept out of the >=40 dB invariant corpus
        from .jpeg import jpeg_encode

        return jpeg_encode(px, quality=92, subsample="420")
    if fmt == "gif":
        # corpus lossy format #3: GIF89a with a 256-color adaptive
        # palette (functions/gif.py) — worst-case ~48 dB on fixture
        # content, above the 40 dB invariant floor; exact-palette
        # images roundtrip losslessly
        from .gif import gif_encode

        return gif_encode(px)
    raise ValueError(f"unknown fmt {fmt!r}")


def decode_image(data: bytes, fmt: str) -> np.ndarray:
    """``bytes`` + ``fmt`` -> HxWx3 uint8 pixels (M8)."""
    if fmt in ("png", "qpng"):
        return png_decode(data)
    if fmt in ("jpeg", "jpeg420", "jpg"):
        # real baseline-JPEG decoder (pure numpy, functions/jpeg.py)
        from .jpeg import jpeg_decode

        return jpeg_decode(data)
    if fmt == "gif":
        # real GIF87a/89a decoder (functions/gif.py); first frame
        from .gif import gif_decode

        return gif_decode(data, max_frames=1)[0][0]
    raise NotImplementedError(
        f"decoder for fmt {fmt!r} requires an image library not present in this "
        "sandbox; plug a real codec in here (webp/...)"
    )


_BIT_WEIGHTS = (np.uint64(1) << np.arange(64, dtype=np.uint64))[::-1]


def phash64(px: np.ndarray) -> int:
    """64-bit average-hash: 8x8 grayscale block means thresholded on their
    mean, bits packed row-major (bit 63 = top-left), reinterpreted int64 (M9)."""
    h, w = px.shape[:2]
    gray = px.astype(np.float64).mean(axis=2)
    # block-mean resize to 8x8 via integer bin edges (works for any h,w >= 8)
    ye = (np.arange(9) * h) // 8
    xe = (np.arange(9) * w) // 8
    blocks = np.empty((8, 8), dtype=np.float64)
    for i in range(8):
        rows = gray[ye[i] : ye[i + 1]]
        for j in range(8):
            blocks[i, j] = rows[:, xe[j] : xe[j + 1]].mean()
    bits = (blocks >= blocks.mean()).astype(np.uint64).ravel()
    val = np.uint64(np.sum(bits * _BIT_WEIGHTS, dtype=np.uint64))
    return int(val.astype(np.int64))


def psnr(a: np.ndarray, b: np.ndarray) -> float:
    """Peak signal-to-noise ratio in dB between two uint8 images."""
    if a.shape != b.shape:
        return 0.0
    diff = a.astype(np.float64) - b.astype(np.float64)
    mse = float(np.mean(diff * diff))
    if mse == 0.0:
        return float("inf")
    return 10.0 * np.log10(255.0 * 255.0 / mse)
