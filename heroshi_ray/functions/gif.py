"""GIF87a/89a codec in pure numpy + stdlib — the third REAL image
payload format (after PNG and baseline JPEG), from the public
GIF89a specification (CompuServe, 1990) and the LZW scheme it mandates
(variable-width codes, clear/EOI, max 12 bits).

Scope:
- decode: global + local color tables, multiple image frames
  (animation), interlaced frames (the 8/8/4/2 row passes), Graphic
  Control Extensions (transparency index + frame delay; disposal
  "keep" semantics — each frame composites over the previous canvas),
  other extensions skipped by sub-block walking;
- encode: one or more full-size frames, either an EXACT palette (when
  a frame has <= 256 distinct colors the roundtrip is LOSSLESS) or a
  256-color adaptive palette fallback (lossy, documented in tests).

The LZW inner loops are per-code Python over numpy-backed buffers —
same performance stance as the JPEG entropy coder (engine-level
parallelism comes from the actor pool, not this loop; a frame's code
stream is inherently sequential).
"""

from __future__ import annotations

import struct

import numpy as np

_GIF89 = b"GIF89a"


# ------------------------------------------------------------------ LZW --
def _lzw_decode(data: bytes, min_code_size: int, n_expected: int) -> np.ndarray:
    """Decode a GIF LZW code stream -> uint8 index array."""
    clear = 1 << min_code_size
    eoi = clear + 1
    # dictionary: list of bytes strings (python bytes append is fine at
    # 4096 entries max)
    out = bytearray()
    table: list[bytes] = [bytes([i]) for i in range(clear)] + [b"", b""]
    code_size = min_code_size + 1
    acc = 0
    nbits = 0
    prev: bytes | None = None
    for byte in data:
        acc |= byte << nbits
        nbits += 8
        while nbits >= code_size:
            code = acc & ((1 << code_size) - 1)
            acc >>= code_size
            nbits -= code_size
            if code == clear:
                table = [bytes([i]) for i in range(clear)] + [b"", b""]
                code_size = min_code_size + 1
                prev = None
                continue
            if code == eoi:
                return np.frombuffer(bytes(out), dtype=np.uint8)[:n_expected]
            if prev is None:
                entry = table[code]
            elif code < len(table):
                entry = table[code]
                table.append(prev + entry[:1])
            elif code == len(table):
                entry = prev + prev[:1]
                table.append(entry)
            else:
                raise ValueError("gif: LZW code out of range")
            out += entry
            prev = entry
            if len(table) == (1 << code_size) and code_size < 12:
                code_size += 1
            if len(out) >= n_expected:
                return np.frombuffer(bytes(out), dtype=np.uint8)[:n_expected]
    raise ValueError("gif: LZW stream ended without EOI / enough pixels")


def _lzw_encode(indices: np.ndarray, min_code_size: int) -> bytes:
    """Encode uint8 indices as a GIF LZW code stream."""
    clear = 1 << min_code_size
    eoi = clear + 1
    out = bytearray()
    acc = 0
    nbits = 0
    code_size = min_code_size + 1

    def emit(code: int):
        nonlocal acc, nbits
        acc |= code << nbits
        nbits += code_size
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8

    table: dict[bytes, int] = {bytes([i]): i for i in range(clear)}
    next_code = eoi + 1
    emit(clear)
    w = b""
    for px in indices.tobytes():
        wk = w + bytes([px])
        if wk in table:
            w = wk
            continue
        emit(table[w])
        if next_code < 4096:
            table[wk] = next_code
            next_code += 1
            if next_code - 1 == (1 << code_size) and code_size < 12:
                code_size += 1
        else:
            emit(clear)
            table = {bytes([i]): i for i in range(clear)}
            next_code = eoi + 1
            code_size = min_code_size + 1
        w = bytes([px])
    if w:
        emit(table[w])
    emit(eoi)
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


# -------------------------------------------------------------- palette --
def adaptive_palette(px: np.ndarray) -> np.ndarray:
    """256-entry adaptive palette: the 256 most frequent 15-bit
    (5 bits/channel) color buckets, each represented by its integer
    mean color. Fully vectorized (bincount + scatter-add)."""
    flat = px.reshape(-1, 3).astype(np.int64)
    key = (flat[:, 0] >> 3 << 10) | (flat[:, 1] >> 3 << 5) | (flat[:, 2] >> 3)
    counts = np.bincount(key, minlength=1 << 15)
    top = np.argsort(counts)[::-1][:256]
    top = top[counts[top] > 0]
    pal = np.zeros((256, 3), np.uint8)
    for c in range(3):
        sums = np.bincount(key, weights=flat[:, c], minlength=1 << 15)
        pal[: len(top), c] = np.round(
            sums[top] / np.maximum(counts[top], 1)
        ).astype(np.uint8)
    return pal


def _nearest_index(flat: np.ndarray, pal: np.ndarray, n_pal: int) -> np.ndarray:
    """Vectorized nearest-palette-entry mapping (squared L2)."""
    d = (
        flat.astype(np.int64)[:, None, :] - pal[None, :n_pal, :].astype(np.int64)
    )
    return np.argmin((d * d).sum(axis=2), axis=1).astype(np.uint8)


def _quantize(px: np.ndarray):
    """(h,w,3) -> (indices uint8, palette). Exact palette when the image
    has <=256 distinct colors; else a 256-color adaptive palette
    (top-frequency 15-bit buckets) with vectorized nearest mapping."""
    h, w = px.shape[:2]
    flat = px.reshape(-1, 3)
    colors, inv = np.unique(flat, axis=0, return_inverse=True)
    if len(colors) <= 256:
        pal = np.zeros((256, 3), np.uint8)
        pal[: len(colors)] = colors
        return inv.astype(np.uint8).reshape(h, w), pal
    pal = adaptive_palette(px)
    idx = _nearest_index(flat, pal, 256)
    return idx.reshape(h, w), pal


# --------------------------------------------------------------- encode --
def gif_encode(frames: np.ndarray, delay_cs: int = 4) -> bytes:
    """(h,w,3) or (n,h,w,3) uint8 RGB -> GIF89a bytes. Each frame gets
    its own LOCAL color table (exact when <=256 distinct colors)."""
    if frames.dtype != np.uint8:
        raise ValueError("gif_encode expects uint8")
    if frames.ndim == 3:
        frames = frames[None]
    if frames.ndim != 4 or frames.shape[3] != 3:
        raise ValueError("gif_encode expects (h,w,3) or (n,h,w,3)")
    n, h, w = frames.shape[:3]
    out = bytearray()
    out += _GIF89
    # logical screen descriptor, no global color table
    out += struct.pack("<HHBBB", w, h, 0x00, 0, 0)
    if n > 1:
        # Netscape looping extension
        out += b"\x21\xFF\x0BNETSCAPE2.0\x03\x01\x00\x00\x00"
    for i in range(n):
        idx, pal = _quantize(frames[i])
        if n > 1:
            out += b"\x21\xF9" + struct.pack("<BBHBB", 4, 0x04, delay_cs, 0, 0)
        # image descriptor with a 256-entry local color table
        out += b"\x2C" + struct.pack("<HHHHB", 0, 0, w, h, 0x80 | 0x07)
        out += pal.astype(np.uint8).tobytes()
        out += bytes([8])  # LZW min code size
        stream = _lzw_encode(idx.reshape(-1), 8)
        for off in range(0, len(stream), 255):
            chunk = stream[off : off + 255]
            out += bytes([len(chunk)]) + chunk
        out += b"\x00"
    out += b"\x3B"  # trailer
    return bytes(out)


# --------------------------------------------------------------- decode --
_INTERLACE_PASSES = ((0, 8), (4, 8), (2, 4), (1, 2))


def _deinterlace(rows: np.ndarray) -> np.ndarray:
    h = rows.shape[0]
    order = np.concatenate(
        [np.arange(start, h, step) for start, step in _INTERLACE_PASSES]
    )
    out = np.empty_like(rows)
    out[order] = rows
    return out


def gif_decode(data: bytes, max_frames: int | None = None):
    """GIF bytes -> ((n,h,w,3) uint8 RGB frames, delays_cs list).

    Frames composite over the previous canvas (disposal "keep"),
    respecting per-frame offsets and transparency."""
    try:
        return _gif_decode(data, max_frames)
    except (struct.error, IndexError) as e:
        raise ValueError(f"gif: malformed stream ({e})") from e


def _gif_decode(data: bytes, max_frames: int | None):
    if data[:6] not in (b"GIF87a", b"GIF89a"):
        raise ValueError("not a GIF")
    w, h, flags, _bg, _ar = struct.unpack_from("<HHBBB", data, 6)
    pos = 13
    gct = None
    if flags & 0x80:
        size = 2 << (flags & 0x07)
        gct = np.frombuffer(data, np.uint8, size * 3, pos).reshape(-1, 3)
        pos += size * 3
    canvas = np.zeros((h, w, 3), np.uint8)
    frames = []
    delays = []
    transparent = None
    delay = 0
    while pos < len(data):
        b0 = data[pos]
        pos += 1
        if b0 == 0x3B:  # trailer
            break
        if b0 == 0x21:  # extension
            label = data[pos]
            pos += 1
            if label == 0xF9:  # graphic control
                blk = data[pos + 1 : pos + 1 + data[pos]]
                gflags, delay, tidx = struct.unpack("<BHB", blk[:4])
                transparent = tidx if (gflags & 0x01) else None
                pos += 1 + data[pos]
                pos += 1  # terminator
            else:  # skip sub-blocks
                while data[pos] != 0:
                    pos += 1 + data[pos]
                pos += 1
            continue
        if b0 != 0x2C:
            raise ValueError(f"gif: unexpected block 0x{b0:02x}")
        fx, fy, fw, fh, iflags = struct.unpack_from("<HHHHB", data, pos)
        pos += 9
        pal = gct
        if iflags & 0x80:
            size = 2 << (iflags & 0x07)
            pal = np.frombuffer(data, np.uint8, size * 3, pos).reshape(-1, 3)
            pos += size * 3
        if pal is None:
            raise ValueError("gif: frame without color table")
        min_code = data[pos]
        pos += 1
        stream = bytearray()
        while data[pos] != 0:
            ln = data[pos]
            stream += data[pos + 1 : pos + 1 + ln]
            pos += 1 + ln
        pos += 1
        idx = _lzw_decode(bytes(stream), min_code, fw * fh).reshape(fh, fw)
        if iflags & 0x40:
            idx = _deinterlace(idx)
        rgb = pal[np.minimum(idx, len(pal) - 1)]
        region = canvas[fy : fy + fh, fx : fx + fw]
        if transparent is not None:
            mask = idx != transparent
            region[mask] = rgb[mask]
        else:
            region[:, :] = rgb
        frames.append(canvas.copy())
        delays.append(int(delay))
        if max_frames is not None and len(frames) >= max_frames:
            break
    if not frames:
        raise ValueError("gif: no image data")
    return np.stack(frames), delays
