"""Cluster-aware sizing knobs.

Shuffle bucket counts must scale with the cluster, not be frozen
literals: a fixed 16-bucket groupby caps parallelism on a 256-node
cluster, and 512 buckets on a laptop is pure overhead. Every pipeline
takes an explicit ``n_buckets`` override; ``default_buckets()`` is the
resolved default (2 buckets per CPU, clamped).
"""

from __future__ import annotations


def cluster_cpus(fallback: int = 8) -> int:
    try:
        import ray

        if ray.is_initialized():
            return int(ray.cluster_resources().get("CPU", fallback)) or fallback
    except Exception:
        pass
    return fallback


def default_buckets(per_cpu: int = 2, lo: int = 8, hi: int = 256) -> int:
    """Shuffle width for bucketed groupby stages: proportional to the
    cluster's CPU count, clamped to [lo, hi]. Bucket count only affects
    partitioning (never results), so scaling it is always safe."""
    return max(lo, min(hi, cluster_cpus() * per_cpu))


def tune_join_resources(num_cpus_per_partition: float = 0.05) -> None:
    """Cap the CPU reservation of Ray's hash-join aggregator actors.

    By default each aggregator reserves min(1, (CPU/2)/partitions) CPUs,
    so two chained joins at 8 partitions on a 4-CPU node reserve EVERY
    core and the map stages feeding them can never schedule — a
    real observed deadlock (a two-join plan run after the schedule
    pipeline).
    The engine's join aggregators are lightweight concat+hash stages;
    a nominal reservation lets maps and aggregators share cores. Call
    before building any Dataset.join plan (idempotent)."""
    try:
        from ray.data import DataContext

        ctx = DataContext.get_current()
        ctx.join_operator_actor_num_cpus_per_partition_override = (
            num_cpus_per_partition
        )
    except Exception:
        pass


def join_partitions(hi: int = 16) -> int:
    """Hash-join partition count proportional to the cluster (each
    partition is an aggregator actor — more than ~1 per core is waste)."""
    return max(2, min(hi, cluster_cpus()))


# ---------------------------------------------------------------------
# Per-worker-process stage cache: the task-mode twin of an actor pool.
#
# Ray Data actor pools are created at EXECUTION start and torn down at
# its end — a map_batches(Cls, concurrency=...) costs ~1-1.7 s of actor
# spin-up per execution (measured) regardless of data size. A crawl
# epoch runs two such stages (fetch, FusedExtractor), so at small epoch
# sizes the spin-up IS the epoch. Worker *processes*, by contrast, persist across
# executions; caching the constructed stage instance per process gives
# the same build-state-once semantics with ~0.13 s fixed cost, and the
# cache survives every epoch of the crawl loop.
#
# Actor pools remain the right physical plan when the epoch batch is
# large (isolation, autoscaling, per-stage num_cpus): callers switch on
# batch size (CrawlConfig.stateful_mode="auto").
_STAGE_CACHE: dict = {}


def task_stage(cls, ctor_kwargs: dict | None = None, volatile: dict | None = None):
    """Wrap an actor-pool stage class as a plain map_batches function.

    The instance is constructed once per worker process (keyed on the
    class + ctor kwargs) and reused across executions/epochs.
    ``volatile`` attrs (e.g. the simulated epoch clock) are assigned on
    the cached instance before each batch — they vary per epoch and must
    not fragment the cache key."""
    ctor_kwargs = ctor_kwargs or {}
    volatile = volatile or {}
    key = (
        cls.__module__,
        cls.__qualname__,
        tuple(sorted((k, repr(v)) for k, v in ctor_kwargs.items())),
    )

    def fn(batch):
        inst = _STAGE_CACHE.get(key)
        if inst is None:
            inst = _STAGE_CACHE[key] = cls(**ctor_kwargs)
        for k, v in volatile.items():
            setattr(inst, k, v)
        return inst(batch)

    fn.__name__ = f"task_{cls.__name__}"
    return fn


def sorted_block_offsets(sorted_ds, per_block_value):
    """Block refs + EXCLUSIVE prefix offsets of a per-block int reduce
    over a materialized range-sorted Dataset — the distributed
    row-number / prefix-sum core of q_pack_sequences (per-block token
    sums -> global token offsets). Its correctness rests on a subtle
    invariant: ``to_arrow_refs()`` returns blocks in
    the range-sort's key order, so the cumsum of per-block values IS
    each block's global offset. The metadata round ships one int per
    block to the driver, never rows."""
    import numpy as np
    import ray

    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _val(block) -> int:
        return int(per_block_value(block))

    vals = ray.get([_val.remote(r) for r in refs])
    offsets = np.concatenate([[0], np.cumsum(vals)[:-1]]).astype(np.int64)
    return refs, offsets


def arrow_blocks(ds) -> list:
    """Materialize a Dataset's blocks as NON-EMPTY pyarrow Tables.

    ``to_arrow_refs()`` hands back whatever block format the last
    operator produced — a native hash join or a pandas map_groups can
    surface ``pd.DataFrame`` blocks (observed after a two-join plan at
    sf0.01/32cpu), and downstream
    ``pa.concat_tables`` then dies on ``.num_rows``. One shared
    normalization point instead of per-call-site defensiveness."""
    import pandas as pd
    import pyarrow as pa

    import ray

    out = []
    for b in ray.get(ds.to_arrow_refs()):
        if isinstance(b, pd.DataFrame):
            b = pa.Table.from_pandas(b, preserve_index=False)
        if b.num_rows:
            out.append(b)
    return out
