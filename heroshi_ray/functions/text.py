"""Text-analysis primitives for large-scale training-data pipelines:
token counting, shingling, MinHash, SimHash.

All functions are batch-vectorized (operate on lists/arrays, return
numpy arrays) so they drop straight into ``map_batches`` bodies; the
stateful pieces (stopword sets, permutation tables) live at module
level or in stage ``__init__``.
"""

from __future__ import annotations

import zlib

import numpy as np

# ---------------------------------------------------------------- tokens
STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on with as by".split()
)


def token_count_ws(texts: list[str]) -> np.ndarray:
    """Whitespace token count (matches SQL string_split semantics)."""
    return np.array([len(t.split()) if t and t.strip() else 0 for t in texts], np.int64)


def shingles(text: str, k: int = 3) -> set[int]:
    """Word k-shingles hashed to 32-bit ints."""
    words = text.lower().split()
    if len(words) < k:
        return {zlib.crc32(" ".join(words).encode())} if words else set()
    return {
        zlib.crc32(" ".join(words[i : i + k]).encode()) for i in range(len(words) - k + 1)
    }


# ---------------------------------------------------------------- minhash
class MinHasher:
    """n_perm universal-hash MinHash over 32-bit shingle sets (public
    Broder '97 construction): h_i(x) = (a_i*x + b_i) mod p."""

    _P = np.uint64((1 << 61) - 1)

    def __init__(self, n_perm: int = 64, seed: int = 1234):
        rng = np.random.default_rng(seed)
        self.a = rng.integers(1, int(self._P), size=n_perm, dtype=np.uint64)
        self.b = rng.integers(0, int(self._P), size=n_perm, dtype=np.uint64)
        self.n_perm = n_perm

    def signature(self, shingle_set: set[int]) -> np.ndarray:
        if not shingle_set:
            return np.full(self.n_perm, np.iinfo(np.uint32).max, dtype=np.uint32)
        x = np.fromiter(shingle_set, dtype=np.uint64, count=len(shingle_set))
        # (n_perm, n_shingles) without overflow: work in python-object-free u64 mod p
        vals = (self.a[:, None] * x[None, :] + self.b[:, None]) % self._P
        return (vals.min(axis=1) & np.uint64(0xFFFFFFFF)).astype(np.uint32)

    def signatures(
        self, sets: list, chunk_shingles: int = 1 << 16
    ) -> np.ndarray:
        """Batch form of :meth:`signature`, bit-identical (unit-tested):
        shingle sets concat into one flat uint64 array, ONE
        (n_perm, N) universal-hash pass per ~chunk_shingles-bounded doc
        group, per-doc mins via ONE np.minimum.reduceat — replaces a
        per-doc numpy call whose fixed cost dominates thousands of
        small docs. The chunk bound keeps the uint64 temp ~32 MB so
        repeated chunks reuse warm allocator pages (one huge temp pays
        ~2 s of first-touch page faults per worker); the multiply/add/
        mod run in place for the same reason. Empty sets get the
        all-0xFFFFFFFF signature, as in signature()."""
        n = len(sets)
        out = np.full((n, self.n_perm), np.iinfo(np.uint32).max, np.uint32)
        lens = np.array([len(s) for s in sets], np.int64)
        idxs = np.flatnonzero(lens)
        i = 0
        while i < len(idxs):
            j, tot = i, 0
            while j < len(idxs) and (
                tot == 0 or tot + lens[idxs[j]] <= chunk_shingles
            ):
                tot += int(lens[idxs[j]])
                j += 1
            grp = idxs[i:j]
            flat = np.fromiter(
                (x for g in grp for x in sets[g]),
                dtype=np.uint64,
                count=int(lens[grp].sum()),
            )
            vals = self.a[:, None] * flat[None, :]
            vals += self.b[:, None]
            vals %= self._P
            starts = np.concatenate(([0], np.cumsum(lens[grp])[:-1]))
            mins = np.minimum.reduceat(vals, starts, axis=1)
            out[grp] = (mins & np.uint64(0xFFFFFFFF)).astype(np.uint32).T
            i = j
        return out

    def bands(self, sig: np.ndarray, n_bands: int = 16) -> list[int]:
        """LSH band keys: crc of each band's bytes (rows = n_perm/n_bands)."""
        rows = self.n_perm // n_bands
        return [
            zlib.crc32(sig[i * rows : (i + 1) * rows].tobytes()) for i in range(n_bands)
        ]


def jaccard(a: set[int], b: set[int]) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


# ---------------------------------------------------------------- simhash
_SIMHASH_BITS = 64


def simhash64(texts: list[str], k: int = 2) -> np.ndarray:
    """64-bit SimHash over word k-grams (Charikar '02): sum signed bit
    votes of feature hashes, sign -> bit."""
    out = np.empty(len(texts), np.int64)
    shifts = np.arange(64, dtype=np.uint64)
    weights = np.uint64(1) << shifts
    for i, t in enumerate(texts):
        words = t.lower().split() if t else []
        feats = (
            [" ".join(words[j : j + k]) for j in range(max(1, len(words) - k + 1))]
            if words
            else []
        )
        if not feats:
            out[i] = 0
            continue
        hs = np.fromiter(
            (
                zlib.crc32(f.encode()) | (zlib.crc32(f[::-1].encode()) << 32)
                for f in feats
            ),
            np.uint64,
            len(feats),
        )
        # one (F, 64) bit matrix per doc: votes_j = #set - #unset on bit j
        nset = ((hs[:, None] >> shifts) & np.uint64(1)).sum(axis=0)
        out[i] = int(
            weights[2 * nset > len(feats)].sum(dtype=np.uint64).astype(np.int64)
        )
    return out
