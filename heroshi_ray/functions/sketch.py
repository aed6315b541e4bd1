"""Mergeable sketches for 10^10-scale reporting (SURVEY.md §2.5 G5).

HyperLogLog (Flajolet et al. '07, dense 2^p registers): each map task
emits ONE serialized sketch per batch; a tiny final stage merges them —
the shuffle moves kilobytes instead of the key column. Deterministic
given deterministic input hashing (SipHash64).
"""

from __future__ import annotations

import numpy as np


class HyperLogLog:
    def __init__(self, p: int = 14):
        if not 4 <= p <= 18:
            raise ValueError("p in [4,18]")
        self.p = p
        self.m = 1 << p
        self.registers = np.zeros(self.m, dtype=np.uint8)

    def add_hashes(self, keys: np.ndarray) -> None:
        """keys: uint64 hashes (already well-mixed)."""
        keys = np.asarray(keys, dtype=np.uint64)
        idx = (keys >> np.uint64(64 - self.p)).astype(np.int64)
        rest = keys << np.uint64(self.p)  # remaining bits, top-aligned
        # rank = position of first 1-bit in the remaining 64-p bits, 1-based
        nz = rest != 0
        lead = np.full(len(keys), 64 - self.p + 1, dtype=np.uint8)
        if nz.any():
            r = rest[nz]
            # clz via float64 exponent: floor(log2) is exact for the top
            # 53 bits; a ±1 rank slip on 2^53-boundary values is far below
            # HLL's inherent error and fully deterministic
            bl = np.floor(np.log2(r.astype(np.float64))).astype(np.int64) + 1
            lead[nz] = np.clip(64 - bl + 1, 1, 64 - self.p + 1).astype(np.uint8)
        np.maximum.at(self.registers, idx, lead)

    def merge(self, other: "HyperLogLog") -> "HyperLogLog":
        if other.p != self.p:
            raise ValueError("p mismatch")
        np.maximum(self.registers, other.registers, out=self.registers)
        return self

    def estimate(self) -> float:
        m = float(self.m)
        alpha = 0.7213 / (1 + 1.079 / m)
        inv = np.ldexp(1.0, -self.registers.astype(np.int64))
        e = alpha * m * m / inv.sum()
        if e <= 2.5 * m:
            zeros = int((self.registers == 0).sum())
            if zeros:
                e = m * np.log(m / zeros)  # linear counting
        return float(e)

    def to_bytes(self) -> bytes:
        return bytes([self.p]) + self.registers.tobytes()

    @classmethod
    def from_bytes(cls, b: bytes) -> "HyperLogLog":
        h = cls(b[0])
        h.registers = np.frombuffer(b[1:], dtype=np.uint8).copy()
        return h


class TDigest:
    """Mergeable quantile sketch (Dunning & Ertl, "Computing extremely
    accurate quantiles using t-digests", 2019 — k1 scale function):
    values collapse into <= O(delta) weighted centroids whose allowed
    width shrinks toward the tails, so p99/p999 stay sharp while the
    sketch is kilobytes. Deterministic: build sorts the input, merge
    concatenates centroid lists in (mean, weight) order and re-runs the
    same greedy compression — no RNG anywhere, so a distributed merge
    tree gives the same digest for the same multiset regardless of
    block boundaries ONLY up to centroid layout; the estimate is what
    must be stable, and tests pin rank error vs exact."""

    __slots__ = ("delta", "means", "weights")

    def __init__(self, delta: int = 200,
                 means: np.ndarray | None = None,
                 weights: np.ndarray | None = None):
        self.delta = delta
        self.means = means if means is not None else np.empty(0, np.float64)
        self.weights = weights if weights is not None else np.empty(0, np.float64)

    # k1 scale: k(q) = delta/(2*pi) * asin(2q - 1)
    def _k(self, q: np.ndarray) -> np.ndarray:
        return self.delta / (2 * np.pi) * np.arcsin(np.clip(2 * q - 1, -1, 1))

    def _compress(self, means: np.ndarray, weights: np.ndarray) -> None:
        order = np.lexsort((weights, means))
        means, weights = means[order], weights[order]
        total = weights.sum()
        out_m: list[float] = []
        out_w: list[float] = []
        acc_w = 0.0
        cur_m, cur_w = means[0], weights[0]
        q_left = 0.0
        k_left = float(self._k(np.array([q_left]))[0])
        for m, w in zip(means[1:], weights[1:]):
            q_right = (acc_w + cur_w + w) / total
            if float(self._k(np.array([q_right]))[0]) - k_left <= 1.0:
                cur_m = (cur_m * cur_w + m * w) / (cur_w + w)
                cur_w += w
            else:
                out_m.append(cur_m)
                out_w.append(cur_w)
                acc_w += cur_w
                q_left = acc_w / total
                k_left = float(self._k(np.array([q_left]))[0])
                cur_m, cur_w = m, w
        out_m.append(cur_m)
        out_w.append(cur_w)
        self.means = np.asarray(out_m, np.float64)
        self.weights = np.asarray(out_w, np.float64)

    @classmethod
    def from_values(cls, values: np.ndarray, delta: int = 200) -> "TDigest":
        d = cls(delta)
        v = np.asarray(values, np.float64)
        if len(v):
            d._compress(v, np.ones(len(v), np.float64))
        return d

    def merge(self, other: "TDigest") -> "TDigest":
        if not len(other.means):
            return self
        if not len(self.means):
            self.means, self.weights = other.means, other.weights
            return self
        self._compress(
            np.concatenate([self.means, other.means]),
            np.concatenate([self.weights, other.weights]),
        )
        return self

    def quantile(self, q: float) -> float:
        """Midpoint-interpolated quantile estimate."""
        if not len(self.means):
            return float("nan")
        if len(self.means) == 1:
            return float(self.means[0])
        w = self.weights
        total = w.sum()
        # cumulative weight at centroid midpoints
        cum = np.cumsum(w) - w / 2
        target = q * total
        if target <= cum[0]:
            return float(self.means[0])
        if target >= cum[-1]:
            return float(self.means[-1])
        i = int(np.searchsorted(cum, target)) - 1
        frac = (target - cum[i]) / (cum[i + 1] - cum[i])
        return float(self.means[i] + frac * (self.means[i + 1] - self.means[i]))

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        return self.means, self.weights
