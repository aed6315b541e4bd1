"""Cuckoo filter — approximate membership with delete (SURVEY.md §1.2).

Why cuckoo over Bloom (BASELINE.json:6 "bloom/cuckoo URL-seen"): it
supports deletion (``delete_many``), which a Bloom filter cannot, and
reaches ~95% load factor with a comparable false-positive rate. Crash
recovery does not need deletion: resume reloads the last committed
snapshot, so the keys of an aborted epoch are never in the filter.
Public design: Fan et al., "Cuckoo Filter: Practically Better Than
Bloom" (CoNEXT'14).

Layout: ``buckets`` is an (m, 4) uint16 array, 0 = empty slot,
fingerprints are 16-bit non-zero. With 4 slots and 16-bit fingerprints
the false-positive rate is ~ 8/2^16 ≈ 1.2e-4, under the ≤1e-3 design
point (BASELINE.md). ~2 bytes/key ⇒ a 10^10-key seen set ≈ 20 GiB
split over 64 shards ≈ 320 MiB/shard — one shard per actor.

Keys are uint64 hashes (``functions.hashing.hash64``); the filter never
sees strings. ``contains_many`` is fully vectorized; ``add_many`` /
``add_if_absent_many`` vectorize the probe and fall back to a scalar
loop only for insertion/eviction of genuinely-new keys.
"""

from __future__ import annotations

import io
import json

import numpy as np

_MUL = np.uint64(0x5BD1E995)  # Murmur-ish odd multiplier for fp -> index perturbation
_MAX_KICKS = 500


class CuckooFilter:
    def __init__(self, capacity: int, seed: int = 0x9E3779B9):
        # size for ~95% max load factor, power-of-two buckets
        m = 1
        need = max(16, int(capacity / 4 / 0.95) + 1)
        while m < need:
            m <<= 1
        self.m = m
        self.mask = np.uint64(m - 1)
        self.buckets = np.zeros((m, 4), dtype=np.uint16)
        self.count = 0
        self._rng = np.random.default_rng(seed)

    # -- key decomposition -------------------------------------------------
    def _fp_index(self, keys: np.ndarray):
        keys = keys.astype(np.uint64, copy=False)
        fp = (keys >> np.uint64(48)).astype(np.uint16)
        fp = np.where(fp == 0, np.uint16(1), fp)
        i1 = (keys & self.mask).astype(np.uint64)
        i2 = (i1 ^ (fp.astype(np.uint64) * _MUL)) & self.mask
        return fp, i1, i2

    @staticmethod
    def _alt(i: np.uint64, fp: np.uint16, mask: np.uint64) -> np.uint64:
        return (i ^ (np.uint64(fp) * _MUL)) & mask

    # -- queries -----------------------------------------------------------
    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        fp, i1, i2 = self._fp_index(np.asarray(keys))
        b1 = self.buckets[i1]  # (n,4) gather
        b2 = self.buckets[i2]
        f = fp[:, None]
        return ((b1 == f).any(axis=1)) | ((b2 == f).any(axis=1))

    # -- mutation ----------------------------------------------------------
    def _insert_one(self, fp: int, i1: int, i2: int) -> bool:
        for idx in (i1, i2):
            row = self.buckets[idx]
            empties = np.flatnonzero(row == 0)
            if empties.size:
                row[empties[0]] = fp
                self.count += 1
                return True
        # evict
        idx = i1 if (self._rng.integers(2) == 0) else i2
        cur = np.uint16(fp)
        for _ in range(_MAX_KICKS):
            slot = int(self._rng.integers(4))
            cur, self.buckets[idx, slot] = self.buckets[idx, slot], cur
            idx = int(self._alt(np.uint64(idx), cur, self.mask))
            row = self.buckets[idx]
            empties = np.flatnonzero(row == 0)
            if empties.size:
                row[empties[0]] = cur
                self.count += 1
                return True
        raise RuntimeError("cuckoo filter full (resize shard count)")

    def add_if_absent_many(self, keys: np.ndarray) -> np.ndarray:
        """Atomic test-and-set per key. Returns a bool mask: True where the
        key was NEW (now added), False where it was (probably) already
        present. Duplicate keys within one call are admitted once.

        Bulk fast path: new keys are first deduplicated on (i1, fp) —
        same pair = same filter identity — then placed slot-by-slot with
        vectorized scatter (4 passes over the two candidate buckets);
        only keys whose buckets are full fall back to the eviction loop.
        """
        keys = np.asarray(keys, dtype=np.uint64)
        fp, i1, i2 = self._fp_index(keys)
        present = self.contains_many(keys)
        out = ~present
        if not out.any():
            return out
        idx = np.flatnonzero(out)
        # in-call dedup on filter identity (i1, fp): keep first occurrence
        ident = (i1[idx] << np.uint64(16)) | fp[idx].astype(np.uint64)
        uniq, first = np.unique(ident, return_index=True)
        dup_mask = np.ones(len(idx), dtype=bool)
        dup_mask[first] = False
        out[idx[dup_mask]] = False
        pend = idx[first]  # rows to actually insert (unique identities)
        pending = np.ones(len(pend), dtype=bool)
        for bucket_arr in (i1, i2):
            for slot in range(4):
                if not pending.any():
                    break
                rows = bucket_arr[pend]
                free = self.buckets[rows, slot] == 0
                cand = pending & free
                if not cand.any():
                    continue
                # one claimant per bucket: first occurrence of each row id
                cidx = np.flatnonzero(cand)
                _, keep = np.unique(rows[cidx], return_index=True)
                win = cidx[keep]
                self.buckets[rows[win], slot] = fp[pend[win]]
                self.count += len(win)
                pending[win] = False
        for j in pend[pending]:  # rare: both buckets full -> eviction path
            self._insert_one(int(fp[j]), int(i1[j]), int(i2[j]))
        return out

    def add_many(self, keys: np.ndarray) -> None:
        self.add_if_absent_many(keys)

    def delete_many(self, keys: np.ndarray) -> np.ndarray:
        """Remove one copy of each key. Returns mask of keys actually found."""
        keys = np.asarray(keys, dtype=np.uint64)
        fp, i1, i2 = self._fp_index(keys)
        out = np.zeros(len(keys), dtype=bool)
        for j in range(len(keys)):
            f = fp[j]
            for idx in (int(i1[j]), int(i2[j])):
                row = self.buckets[idx]
                hits = np.flatnonzero(row == f)
                if hits.size:
                    row[hits[0]] = 0
                    self.count -= 1
                    out[j] = True
                    break
        return out

    @property
    def load_factor(self) -> float:
        return self.count / (self.m * 4)

    # -- persistence (checkpoint blobs) ------------------------------------
    # A snapshot is sparse: it costs what the filter holds, not its
    # capacity. It is an uncompressed .npz of the bucket count ``m``, the
    # indices of the non-empty buckets, their 4-slot rows, ``count`` and
    # the eviction-RNG state (so a restore replays the exact kick
    # sequence an uninterrupted run would have produced).
    def to_bytes(self) -> bytes:
        idx = np.flatnonzero(self.buckets.view(np.uint64))
        rng_state = json.dumps(self._rng.bit_generator.state).encode()
        buf = io.BytesIO()
        np.savez(
            buf,
            m=np.int64(self.m),
            idx=idx,
            rows=self.buckets[idx],
            count=np.int64(self.count),
            rng=np.frombuffer(rng_state, dtype=np.uint8),
        )
        return buf.getvalue()

    @classmethod
    def from_bytes(cls, data: bytes) -> "CuckooFilter":
        with np.load(io.BytesIO(data)) as z:
            m = int(z["m"])
            idx, rows = z["idx"], z["rows"]
            count = int(z["count"])
            rng_state = json.loads(z["rng"].tobytes().decode())
        obj = cls.__new__(cls)
        obj.m = m
        obj.mask = np.uint64(m - 1)
        # written, not lazily zero-mapped: page faults here stay in the
        # load instead of landing in the next inserts
        obj.buckets = np.empty((m, 4), dtype=np.uint16)
        obj.buckets.fill(0)
        obj.buckets[idx] = rows
        obj.count = count
        obj._rng = np.random.default_rng()
        obj._rng.bit_generator.state = rng_state
        return obj
