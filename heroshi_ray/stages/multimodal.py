"""Multimodal column stages — images as opaque ``binary`` columns with
typed metadata, processed by actor-pool ``map_batches``.

The sandbox ships no image libraries (SURVEY.md §7.6), so:
- PNG/QPNG/GIF decode + resize are REAL (pure numpy/zlib codecs);
- baseline JPEG decode is REAL (functions/jpeg.py — pure-numpy ITU-T
  T.81 sequential-DCT codec, 4:4:4/4:2:0/grayscale, DRI/RSTn);
- WebP decode remains a STUB behind a clearly-marked
  ``NotImplementedError`` raise with a deterministic-fake fallback
  flag — the Ray-side plumbing (schema, batch size, actor signature,
  output layout) is real and tested.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from ..functions.image import decode_image, phash64, png_encode


def block_mean_resize(px: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Deterministic block-mean downscale (any size -> out_h x out_w):
    two np.add.reduceat passes (rows then cols) + one divide — O(h*w)
    vectorized, no per-output-pixel Python. Empty segments (upscaling,
    ye[i]==ye[i+1]) follow reduceat's single-element rule, which equals
    the old max(lo+1, hi) slice semantics; uint8 sums are exact in
    float64, so results are bit-identical to the loop version."""
    h, w = px.shape[:2]
    ye = (np.arange(out_h + 1) * h) // out_h
    xe = (np.arange(out_w + 1) * w) // out_w
    rcnt = np.maximum(ye[1:] - ye[:-1], 1).astype(np.float64)
    ccnt = np.maximum(xe[1:] - xe[:-1], 1).astype(np.float64)
    rsum = np.add.reduceat(px.astype(np.float64), ye[:-1], axis=0)
    csum = np.add.reduceat(rsum, xe[:-1], axis=1)
    out = csum / (rcnt[:, None, None] * ccnt[None, :, None])
    return np.clip(out, 0, 255).astype(np.uint8)


class ImageDecodeStage:
    """bytes+fmt -> decoded metadata (+ optional re-encoded thumbnail).

    Real for "png"/"qpng"/"jpeg". Other formats: raise (strict=True) or emit a
    deterministic fake gray image sized from metadata (strict=False) so
    scale tests of the plumbing run without codecs.
    """

    def __init__(self, thumb: int | None = 8, strict: bool = False):
        self.thumb = thumb
        self.strict = strict

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        out_w = np.empty(len(blobs), np.int32)
        out_h = np.empty(len(blobs), np.int32)
        ph = np.empty(len(blobs), np.int64)
        thumbs: list[bytes | None] = []
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            try:
                px = decode_image(b, f)
            except (ValueError, NotImplementedError):
                if self.strict:
                    raise
                # deterministic fake: flat gray at the declared size
                px = np.full((hs[i], ws[i], 3), 128, np.uint8)
            out_h[i], out_w[i] = px.shape[0], px.shape[1]
            ph[i] = phash64(px)
            if self.thumb:
                thumbs.append(
                    png_encode(block_mean_resize(px, self.thumb, self.thumb))
                )
            else:
                thumbs.append(None)
        cols = {
            "image_id": batch.column("image_id"),
            "decoded_w": pa.array(out_w, pa.int32()),
            "decoded_h": pa.array(out_h, pa.int32()),
            "phash_recomputed": pa.array(ph, pa.int64()),
        }
        if self.thumb:
            cols["thumb_png"] = pa.array(thumbs, pa.binary())
        return pa.table(cols)


class ImageFeatureStage:
    """bytes+fmt -> compact image feature vector (REAL, pure numpy):
    per-channel 8-bin histograms (normalized) + per-channel mean/std,
    30 floats total. The embedding-extraction shape of the pipeline —
    a batched model would slot in behind the same actor-pool interface
    (weights loaded once in ``__init__``)."""

    N_BINS = 8

    def __init__(self, strict: bool = False):
        self.strict = strict
        self.edges = np.linspace(0, 256, self.N_BINS + 1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        ws = batch.column("w").to_pylist()
        hs = batch.column("h").to_pylist()
        feats: list[list[float]] = []
        for i, (b, f) in enumerate(zip(blobs, fmts)):
            try:
                px = decode_image(b, f)
            except (ValueError, NotImplementedError):
                if self.strict:
                    raise
                px = np.full((hs[i], ws[i], 3), 128, np.uint8)
            v = []
            npx = px.shape[0] * px.shape[1]
            for c in range(3):
                hist, _ = np.histogram(px[:, :, c], bins=self.edges)
                v.extend((hist / npx).astype(np.float32).tolist())
                v.append(float(px[:, :, c].mean() / 255.0))
                v.append(float(px[:, :, c].std() / 255.0))
            feats.append(v)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "features": pa.array(feats, pa.list_(pa.float32())),
            }
        )


# ------------------------------------------------- image-text alignment ---
ALIGN_DIM = 64


def text_embed64(captions, dim: int = ALIGN_DIM) -> np.ndarray:
    """Deterministic caption embedding: hashed char-3-gram bag with the
    sign trick (feature hashing — Weinberger et al., "Feature hashing
    for large scale multitask learning", ICML 2009), L2-normalized.
    Vectorized: ONE hash64 call over the batch's flattened gram list,
    then a segment scatter-add — no per-gram Python hashing."""
    from ..functions.hashing import hash64

    grams: list[str] = []
    bounds = [0]
    for c in captions:
        c = f" {c.lower()} "
        grams.extend(c[i : i + 3] for i in range(max(len(c) - 2, 1)))
        bounds.append(len(grams))
    out = np.zeros((len(captions), dim), np.float64)
    if grams:
        h = hash64(grams)
        d = (h % np.uint64(dim)).astype(np.int64)
        sign = np.where((h >> np.uint64(32)) & np.uint64(1), 1.0, -1.0)
        row = np.repeat(
            np.arange(len(captions)), np.diff(np.asarray(bounds, np.int64))
        )
        np.add.at(out, (row, d), sign)
    n = np.linalg.norm(out, axis=1, keepdims=True)
    return out / np.where(n == 0, 1.0, n)


def image_embed64(feats: np.ndarray, proj: np.ndarray) -> np.ndarray:
    """Project the 30-float histogram/moment features through the model
    matrix and L2-normalize."""
    v = feats @ proj
    n = np.linalg.norm(v, axis=1, keepdims=True)
    return v / np.where(n == 0, 1.0, n)


def make_align_proj(seed: int = 0x0A11C4, dim: int = ALIGN_DIM) -> np.ndarray:
    """The alignment 'model': a fixed seeded Gaussian projection from
    the 30-dim image features into the shared space. A trained CLIP
    image tower slots in behind the same (load-once, batch-matmul)
    interface."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal((30, dim)).astype(np.float64)


class AlignmentScoreStage:
    """CLIP-score-shaped image-text alignment over the corpus schema:
    embed image (feature extract -> projection) and caption (hashed
    3-gram bag) into a shared space, score = cosine, emitted as e4
    fixed-point. The batched-model-inference stage shape: weights
    (projection matrix) load once per actor in ``__init__``; ``__call__``
    is two matmuls + a rowwise dot per batch. Real CLIP towers replace
    ``make_align_proj``/``text_embed64`` behind the same interface
    (Radford et al. 2021's score is the same cosine; LAION's curation
    gate keeps pairs above a threshold — Schuhmann et al. 2021 §2.2)."""

    def __init__(self, seed: int = 0x0A11C4):
        self.proj = make_align_proj(seed)
        self._feat = ImageFeatureStage()

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats_tbl = self._feat(batch)
        feats = np.asarray(feats_tbl.column("features").to_pylist(), np.float64)
        iv = image_embed64(feats, self.proj)
        tv = text_embed64(batch.column("caption").to_pylist())
        cos = np.sum(iv * tv, axis=1)
        return pa.table(
            {
                "image_id": batch.column("image_id"),
                "align_e4": pa.array(
                    np.round(cos * 10_000).astype(np.int64), pa.int64()
                ),
            }
        )
