"""A-SEEN — the sharded URL-seen set as a Ray actor pool (SURVEY.md §2.3).

Replaces heroshi's manager-side visited set ([UPSTREAM-M], reference
unavailable) per BASELINE.json:6: "sharded cuckoo-filter URL-seen set
held in actor pools". Keys are ``hash64(surt)``; shard routing is
``key % n_shards`` so every map_batches task on every node agrees.

Exactly-once admission: ``check_and_add`` is an atomic test-and-set
*inside one shard actor* (actor = serialized mailbox), and epoch-level
exact dedup (stages.dedup) guarantees one candidate per surt per epoch,
so no two tasks ever race on the same key with both winning.

False positives (prob ~1.2e-4 per lookup) mean a URL is *skipped*,
never fetched twice — safe for crawl semantics; documented as bounded
URL loss (BASELINE.md).
"""

from __future__ import annotations

import os

import numpy as np

import ray

from ..functions.hashing import hash64
from .cuckoo import CuckooFilter


def idem_token(payload: bytes) -> bytes:
    """Retry-stable idempotency token: blake2b over (task identity,
    payload). Inside a Ray task the task id is STABLE ACROSS RETRIES,
    so a retried task replays its original admission answer; on the
    driver there is no retry, so a random salt makes every call a
    fresh operation. Content alone must NOT be the token — two
    legitimate calls with identical key content would replay the first
    answer and re-admit already-seen keys (reproduced in review).
    Residual caveat: two identical-content batches within ONE task
    share a token; that requires a block to contain >=2 bit-identical
    batches, and the consequence is bounded to double-admission of
    rows that were exact duplicates anyway."""
    import hashlib

    tid = None
    try:
        tid = ray.get_runtime_context().get_task_id()
    except Exception:
        tid = None
    salt = bytes.fromhex(tid) if tid else os.urandom(16)
    return hashlib.blake2b(salt + payload, digest_size=16).digest()


@ray.remote(num_cpus=0.1)
class SeenShard:
    """One cuckoo-filter shard. ~2 bytes/key: size capacity per shard so
    n_shards × capacity covers the frontier scale (64 shards × 160M keys
    ≈ 10^10 URLs at ~320 MiB/shard).

    Admission is IDEMPOTENT under Ray task retries: callers pass a
    content-derived ``token`` per (batch, shard) call; the shard records
    the answer and replays it if the same token asks again (a retried
    map task would otherwise find its keys already inserted and silently
    drop every row). The replay log spans the epoch, so a retry finds
    its answer however many other calls came between: it is cleared at
    the checkpoint ``save`` (after a commit, epoch resume covers
    retries) and at ``load``, which replaces the state its answers
    refer to."""

    def __init__(self, capacity: int):
        self.cf = CuckooFilter(capacity)
        self._replay: dict[bytes, np.ndarray] = {}

    def check_and_add(self, keys: np.ndarray, token: bytes | None = None) -> np.ndarray:
        if token is not None:
            hit = self._replay.get(token)
            if hit is not None:
                return hit
        res = self.cf.add_if_absent_many(keys)
        if token is not None:
            self._replay[token] = res
        return res

    def contains(self, keys: np.ndarray) -> np.ndarray:
        return self.cf.contains_many(keys)

    def save(self, path: str) -> dict:
        tmp = path + ".tmp"
        with open(tmp, "wb") as f:
            f.write(self.cf.to_bytes())
        os.replace(tmp, path)
        self._replay.clear()  # commit point: epoch resume now covers retries
        return self.stats()

    def load(self, path: str) -> int:
        with open(path, "rb") as f:
            self.cf = CuckooFilter.from_bytes(f.read())
        self._replay.clear()  # answers referred to the replaced filter
        return self.cf.count

    def stats(self) -> dict:
        return {"count": self.cf.count, "load_factor": self.cf.load_factor}


class SeenSet:
    """Driver-side handle bundle for the shard pool. The handle list is
    closure-captured by map_batches tasks (Ray serializes actor handles)."""

    def __init__(self, n_shards: int = 8, capacity_per_shard: int = 1 << 20):
        self.n_shards = n_shards
        self.shards = [SeenShard.remote(capacity_per_shard) for _ in range(n_shards)]

    # ---- batch-level ops (usable from driver or inside tasks) ----------
    @staticmethod
    def _route(shards, surts) -> tuple[np.ndarray, np.ndarray]:
        keys = hash64(surts)
        return keys, (keys % np.uint64(len(shards))).astype(np.int64)

    @staticmethod
    def check_and_add_keys(shards, keys: np.ndarray, poll: bool = False) -> np.ndarray:
        """Test-and-set for PRE-HASHED uint64 keys: route key % n_shards,
        ONE RPC per shard actually touched (retry-stable ``idem_token``
        each), results scattered back to input order. ``poll=True`` waits
        with non-blocking ray.wait + sleep instead of ray.get — the hot
        flagship gate uses it because a map task blocking in ray.get
        releases its CPU slot and the raylet backfills it with a fresh
        worker (import storm; see GateAndCap docstring)."""
        out = np.zeros(len(keys), dtype=bool)
        if not len(keys):
            return out
        shard_ids = keys % np.uint64(len(shards))
        refs, idxs = [], []
        for s in np.unique(shard_ids):
            idx = np.flatnonzero(shard_ids == s)
            tok = idem_token(keys[idx].tobytes())
            refs.append(shards[int(s)].check_and_add.remote(keys[idx], tok))
            idxs.append(idx)
        if poll:
            import time as _time

            pending = list(refs)
            while pending:
                _, pending = ray.wait(
                    pending, num_returns=len(pending), timeout=0
                )
                if pending:
                    _time.sleep(0.002)
        for idx, res in zip(idxs, ray.get(refs)):
            out[idx] = res
        return out

    def check_and_add(self, surts) -> np.ndarray:
        """Test-and-set a list of surts across the pool; returns bool mask
        (True = new). Hashes then delegates to ``check_and_add_keys``
        (the single copy of the routing/token/scatter logic)."""
        if len(surts) == 0:
            return np.zeros(0, dtype=bool)
        return SeenSet.check_and_add_keys(self.shards, hash64(surts))

    def contains(self, surts) -> np.ndarray:
        if len(surts) == 0:
            return np.zeros(0, dtype=bool)
        keys, shard_ids = self._route(self.shards, surts)
        out = np.zeros(len(surts), dtype=bool)
        refs, idxs = [], []
        for s in np.unique(shard_ids):
            idx = np.flatnonzero(shard_ids == s)
            refs.append(self.shards[int(s)].contains.remote(keys[idx]))
            idxs.append(idx)
        for idx, res in zip(idxs, ray.get(refs)):
            out[idx] = res
        return out

    # ---- checkpoint ----------------------------------------------------
    def save(self, ckpt_dir: str, epoch: int) -> list[dict]:
        """Snapshot every shard; returns each shard's ``stats()`` as of
        the snapshot."""
        os.makedirs(ckpt_dir, exist_ok=True)
        paths = [
            os.path.join(ckpt_dir, f"seen-e{epoch}-s{i}.npz")
            for i in range(self.n_shards)
        ]
        return ray.get([s.save.remote(p) for s, p in zip(self.shards, paths)])

    def load(self, ckpt_dir: str, epoch: int) -> None:
        paths = [
            os.path.join(ckpt_dir, f"seen-e{epoch}-s{i}.npz")
            for i in range(self.n_shards)
        ]
        ray.get([s.load.remote(p) for s, p in zip(self.shards, paths)])

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
