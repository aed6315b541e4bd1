"""Deterministic 64-bit hashing, vectorized (seen-set keys, shard routing).

``hash64`` must be stable across processes and nodes (actor shards and
map_batches tasks must agree on routing), so Python's salted ``hash()``
is out. Backend: polars' xxhash-based ``Series.hash`` with a pinned
seed — C/Rust-speed, deterministic within a polars version, and
Arrow-NATIVE: an Arrow string column hashes without a ``to_pylist``
round-trip (7-8x faster than the previous pandas SipHash path on the
gate's hot columns). All hash consumers are per-run state (cuckoo
fingerprints, shard routing, bucket ids) or share this function on both
sides of a comparison (the oracle crawler imports it), so a polars
upgrade changing values is a fresh-run event, not a correctness one —
checkpoints record only their own run's admissions.
"""

from __future__ import annotations

import numpy as np
import polars as pl
import pyarrow as pa

_SEED = 0x5EED5EED


def hash64(values) -> np.ndarray:
    """uint64 hash of an iterable / numpy / Arrow array of strings (or
    ints), vectorized. Arrow inputs are hashed zero-conversion."""
    if isinstance(values, (pa.Array, pa.ChunkedArray)):
        s = pl.from_arrow(values)
    elif isinstance(values, pl.Series):
        s = values
    else:
        s = pl.Series(values)
    return s.hash(seed=_SEED).to_numpy()


def hash_sentinel() -> tuple[int, str]:
    """Probe value for cross-node hash agreement: (hash64 of a fixed
    string, polars version)."""
    return int(hash64(["heroshi-hash-probe"])[0]), pl.__version__


_UNIFORM_CHECKED = False


def assert_uniform_hashing() -> None:
    """Verify every alive node computes the same ``hash64`` for a fixed
    sentinel. polars' xxhash is only deterministic within a polars
    version — a cluster with heterogeneous worker versions would
    silently split seen-set shard routing and dedup bucket ids within a
    single run. One num_cpus=0 probe task per node, run once at
    pipeline setup (cost: one tiny RPC per node)."""
    global _UNIFORM_CHECKED
    if _UNIFORM_CHECKED:
        return
    import ray
    from ray.util.scheduling_strategies import NodeAffinitySchedulingStrategy

    if not ray.is_initialized():
        return  # standalone import context; checked again under Ray
    expected = hash_sentinel()

    @ray.remote(num_cpus=0)
    def _probe():
        from heroshi_ray.functions.hashing import hash_sentinel as _hs

        return _hs()

    refs = [
        _probe.options(
            scheduling_strategy=NodeAffinitySchedulingStrategy(
                node_id=n["NodeID"], soft=True
            )
        ).remote()
        for n in ray.nodes()
        if n.get("Alive")
    ]
    got = ray.get(refs)
    bad = sorted({tuple(g) for g in got if tuple(g) != expected})
    _UNIFORM_CHECKED = True
    if bad:
        raise RuntimeError(
            f"hash64 disagrees across nodes: driver={expected}, "
            f"divergent workers={bad} — pin polars to ONE version "
            "cluster-wide before running (shard routing and dedup "
            "buckets would silently split)."
        )
