"""Relational operator pipelines over the driver testdata tables —
the DuckDB-oracled twins (SURVEY.md §5.3).

Each function takes ``sf_dir`` and returns a Dataset / Arrow table whose
column NAMES match the oracle SQL exactly (the driver hashes values after
sorting columns by name). Float aggregates are rounded on BOTH sides so
summation order can't break the value hash.

Patterns exercised (with their 100-TB rationale):
- partial aggregation inside map_batches before the groupby shuffle
  (q_groupby_host) — the combiner pattern;
- bucketed vectorized per-group top-k (q_topk_per_host) and first-per-key
  dedup (q_dedup_first) — O(buckets) Python calls, not O(groups);
- broadcast hash join (q_small_qty_revenue) — ``ray.put`` the small
  side once, probe per batch, no shuffle;
- column pruning at the read for every query.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..runtime import arrow_blocks, default_buckets, join_partitions, tune_join_resources
from ..stages.dedup import dedup_first

ROUND = 6


def _pq(sf_dir: str, name: str, columns=None):
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns
    )


# ---------------------------------------------------------------- G2 ----
def q_groupby_host(sf_dir: str):
    """Per-key count + mean with PARTIAL aggregation before the shuffle:
    each batch emits one (user_id, cnt, sm) row per key, the groupby then
    moves only partials — the combiner pattern that keeps a 100-TB
    groupby's shuffle proportional to #keys, not #rows."""
    ds = _pq(sf_dir, "events", columns=["user_id", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        # exact integer partials (value has 2-decimal precision): summing
        # int cents is order-independent, so the final avg is bit-identical
        # across any shuffle order AND matches the SQL twin exactly
        df["cents"] = (df["value"] * 100).round().astype("int64")
        g = df.groupby("user_id", sort=False)["cents"].agg(["count", "sum"]).reset_index()
        return pa.table(
            {
                "user_id": pa.array(g["user_id"], pa.int64()),
                "cnt": pa.array(g["count"], pa.int64()),
                "sm": pa.array(g["sum"], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("cnt", alias_name="n"), Sum("sm", alias_name="sm"))
    )

    def finish(batch: pa.Table) -> pa.Table:
        # final rollup is one row per key — Python's correctly-rounded
        # round() here (pc.round is not correctly rounded to decimal and
        # diverges from SQL ROUND at representation boundaries)
        sm = batch.column("sm").to_numpy(zero_copy_only=False).astype(np.float64)
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.float64)
        # SQL ROUND replica, bit-exact vs DuckDB: floor(x*1e6 + 0.5) / 1e6
        x = sm / 100.0 / n
        avg = pa.array(np.floor(x * 1e6 + 0.5) / 1e6, pa.float64())
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "n": batch.column("n"),
                "avg_value": avg,
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ---------------------------------------------------------------- K1 ----
def q_topk_per_host(sf_dir: str, k: int = 3, n_buckets: int | None = None):
    """Per-key top-k, bucketed: shuffle on hash(user)%B, vectorized
    sort+cumcount per bucket. B scales with the cluster (runtime.py)."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "value", "event_id"], ascending=[True, False, True],
                          kind="mergesort")
        return g[g.groupby("user_id", sort=False).cumcount() < k]

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(topk, batch_format="pandas")
        .drop_columns(["__b"])
    )


# ---------------------------------------------------------------- K2 ----
def q_global_topk(sf_dir: str, n: int = 100):
    """Global top-n WITHOUT a whole-table sort: per-block partial top-n
    inside map_batches (each block keeps at most n rows), then one tiny
    driver-side merge of <= n*blocks rows — the shuffle-free pattern a
    100-TB top-100 needs (a range-shuffle sort to keep 100 rows is the
    anti-pattern)."""
    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])
    keys = [("o_totalprice", "descending"), ("o_orderkey", "ascending")]

    def partial(batch: pa.Table) -> pa.Table:
        idx = pc.sort_indices(batch, sort_keys=keys)[:n]
        return batch.take(idx)

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
    blocks = arrow_blocks(parts)
    if not blocks:
        return parts
    merged = pa.concat_tables(blocks, promote_options="none")
    return merged.take(pc.sort_indices(merged, sort_keys=keys)[:n])


# ---------------------------------------------------------------- D1 ----
def q_dedup_first(sf_dir: str):
    ds = _pq(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_linenumber", "l_quantity"],
    )
    return dedup_first(
        ds, key="l_orderkey",
        tie_cols=("l_linenumber", "l_partkey", "l_quantity"),
        n_buckets=default_buckets(),
    )


# ---------------------------------------------------------------- M2 ----
def q_string_norm(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def norm(batch: pa.Table) -> pa.Table:
        t = pc.utf8_lower(pc.utf8_trim_whitespace(batch.column("text")))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "text_norm": t,
                "n_chars_norm": pc.cast(pc.utf8_length(t), pa.int64()),
            }
        )

    return ds.map_batches(norm, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------- scalar ---
def q_json_extract(sf_dir: str):
    ds = _pq(sf_dir, "events", columns=["event_id", "props"])

    def ext(batch: pa.Table) -> pa.Table:
        vals = []
        for p in batch.column("props").to_pylist():
            try:
                v = json.loads(p).get("k")
            except (TypeError, ValueError):
                v = None
            vals.append(None if v is None else str(v))
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "k_val": pa.array(vals, pa.string()),
            }
        )

    return ds.map_batches(ext, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- G3 ----
def q_window_count(sf_dir: str):
    """Hourly tumbling-window counts over the event stream (the epoch
    rollup shape): floor ts to hour per batch, partial-count, tiny final
    groupby."""
    ds = _pq(sf_dir, "events", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        hour = pc.floor_temporal(batch.column("ts"), unit="hour")
        df = pd.DataFrame({"hour": hour.to_pandas()})
        g = df.groupby("hour", sort=False).size().reset_index(name="cnt")
        return pa.table(
            {
                "hour": pa.array(g["hour"], pa.timestamp("us")),
                "cnt": pa.array(g["cnt"], pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hour")
        .aggregate(Sum("cnt", alias_name="n"))
    )


# ------------------------------------------------------ sliding window --
def q_sliding_window(sf_dir: str):
    """1-hour windows sliding every 30 minutes over the event stream:
    each event lands in exactly the two half-hour-grid windows covering
    it, emitted and partial-counted inside map_batches (combiner), then
    one tiny groupby over window starts. The streaming-window shape with
    overlap — no self-join, no range shuffle."""
    ds = _pq(sf_dir, "events", columns=["ts"])
    W = 1_800_000_000  # 30 min in us

    def partial(batch: pa.Table) -> pa.Table:
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        w0 = (us // W) * W
        wins = np.concatenate([w0, w0 - W])
        u, c = np.unique(wins, return_counts=True)
        return pa.table(
            {
                "win_start": pa.array(u, pa.timestamp("us")),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("win_start")
        .aggregate(Sum("cnt", alias_name="n"))
    )


# ------------------------------------------------------------ sessions --
def q_sessionize(sf_dir: str, gap_minutes: int = 30):
    """Session windows over the event stream (streaming-shaped workload,
    ray_guide 'Streaming-shaped workloads'): partition by user, sort by
    (ts, event_id) within partition, new session when gap > 30min.
    One bucketed shuffle; per-bucket body is vectorized pandas."""
    B = default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    gap = pd.Timedelta(minutes=gap_minutes)

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        new_user = g["user_id"].ne(g["user_id"].shift())
        gap_hit = g["ts"].diff() > gap
        new_sess = (new_user | gap_hit)
        out = (
            pd.DataFrame({"user_id": g["user_id"], "new_s": new_sess.astype(np.int64)})
            .groupby("user_id", sort=False)["new_s"].sum().reset_index()
        )
        return out.rename(columns={"new_s": "n_sessions"})

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(sessions, batch_format="pandas")
    )


def q_running_sum(sf_dir: str):
    """Ordered window prefix aggregate: cumulative per-user spend over
    the event stream (SUM OVER PARTITION BY ... ORDER BY). Same layout
    as sessionize — ONE bucketed shuffle on hash(user)%B, per-bucket
    body is a vectorized sort + groupby cumsum; no global sort, no
    driver-side state. Money in cents (int64) so the prefix sums are
    bit-exact under any execution order."""
    B = default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def cumsum(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        cents = (g["value"] * 100).round().astype("int64")
        run = cents.groupby(g["user_id"]).cumsum()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64"),
                "user_id": g["user_id"].astype("int64"),
                "run_sum_e2": run.astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(cumsum, batch_format="pandas")
    )


def q_grouped_count_distinct(sf_dir: str, n_salts: int | None = None):
    """Grouped COUNT(DISTINCT): distinct users per event type. Salted
    layout (the 100-TB shape, now the only path): groups are per event
    TYPE — a handful — so an unsalted groupby funnels the whole user
    set of a type into ONE aggregator. Instead:

      per-batch unique (type, user) pairs (combiner; the shuffle moves
      deduped pairs, never raw events)
        → groupby (event_type, __salt=user%B): per-salt vectorized
          nunique — per-group fan-in is |users|/B, skew-proof
        → groupby(event_type).Sum — B tiny count rows per type.

    Exact because salts partition users into disjoint ranges, so
    per-salt distinct counts sum to the global distinct count. This is
    q_count_distinct's two-level layout with the type key carried
    through; the old single-groupby path is equivalence-covered by the
    DuckDB oracle twin."""
    from ray.data.aggregate import Sum

    B = n_salts or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_type", "user_id"])

    def pairs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        u = df.drop_duplicates(["event_type", "user_id"])
        salt = (u["user_id"].to_numpy().astype(np.uint64) % np.uint64(B)).astype(
            np.int32
        )
        return pa.table(
            {
                "event_type": pa.array(u["event_type"], pa.string()),
                "user_id": pa.array(u["user_id"], pa.int64()),
                "__salt": pa.array(salt, pa.int32()),
            }
        )

    def nunique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "event_type": [g["event_type"].iloc[0]],
                "n_users": np.array([g["user_id"].nunique()], np.int64),
            }
        )

    return (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["event_type", "__salt"])
        .map_groups(nunique, batch_format="pandas")
        .groupby("event_type")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def q_mode_per_key(sf_dir: str):
    """Mode / argmax-per-group: each user's most frequent event type
    (ties broken by type name, deterministic). Layout: per-batch partial
    (user, type, n) counts (combiner) → multi-key groupby sum — the
    only shuffle, key-bounded at |users|·|types| — → per-user argmax in
    a second map_groups whose input is already the aggregated table, so
    the argmax pass moves |users|·|types| tiny rows, never events."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "user_id": pa.array(g["user_id"], pa.int64()),
                "event_type": pa.array(g["event_type"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "n", "event_type"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        top = g.drop_duplicates("user_id", keep="first")
        return pd.DataFrame(
            {
                "user_id": top["user_id"].astype("int64"),
                "top_type": top["event_type"],
                "n": top["n"].astype("int64"),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["user_id", "event_type"])
        .aggregate(Sum("n", alias_name="n"))
        .groupby("user_id")
        .map_groups(argmax, batch_format="pandas")
    )


def q_small_qty_revenue(sf_dir: str, broadcast_limit: int = 500_000):
    """TPC-H-Q17-shaped correlated aggregate filter: revenue from
    lineitems whose quantity is below 20% of their part's average
    quantity. Two passes over ONE pruned table: pass 1 = per-part
    (sum_qty, cnt) combiner groupby (key-bounded, |parts| rows); pass 2
    keeps rows with 5*qty*cnt < sum_qty — the integer-exact form of
    qty < 0.2*avg, immune to float-division order — then global sum
    partials. The driver holds one output row.

    Pass 2 is size-adaptive on |parts|:
    - small: broadcast the per-part map (ray.put) and probe inside
      map_batches — lineitem streams with zero extra shuffles;
    - large: distributed hash join lineitem ⋈ per-part partials on
      l_partkey, same integer predicate applied
      per joined batch — nothing |parts|-sized touches the driver.
    Both paths are equivalence-tested (tests/test_queries_oracle.py)."""
    from ray.data.aggregate import Sum

    li = _pq(sf_dir, "lineitem", columns=["l_partkey", "l_quantity"])

    def p_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["q"] = df["l_quantity"].round().astype("int64")
        g = df.groupby("l_partkey", sort=False).agg(
            s=("q", "sum"), n=("q", "size")
        ).reset_index()
        return pa.table(
            {
                "l_partkey": pa.array(g["l_partkey"], pa.int64()),
                "s": pa.array(g["s"].astype("int64"), pa.int64()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    per_part_ds = (
        li.map_batches(p_partial, batch_format="pyarrow")
        .groupby("l_partkey")
        .aggregate(Sum("s", alias_name="s"), Sum("n", alias_name="n"))
        .materialize()
    )
    n_parts = per_part_ds.count()
    li2 = _pq(sf_dir, "lineitem", columns=["l_partkey", "l_quantity", "l_extendedprice"])

    def finalize(parts: pd.DataFrame) -> pa.Table:
        return pa.table(
            {
                "revenue_e2": pa.array([int(parts["revenue_e2"].sum())], pa.int64()),
                "n": pa.array([int(parts["n"].sum())], pa.int64()),
            }
        )

    if n_parts <= broadcast_limit:
        per_part = per_part_ds.to_pandas().set_index("l_partkey")
        pp_ref = ray.put(per_part)

        def probe(batch: pa.Table) -> pa.Table:
            p = ray.get(pp_ref)
            df = batch.to_pandas()
            q = df["l_quantity"].round().astype("int64")
            j = df[["l_partkey"]].join(p, on="l_partkey")
            keep = (5 * q * j["n"].to_numpy()) < j["s"].to_numpy()
            cents = (df.loc[keep, "l_extendedprice"] * 100).round().astype("int64")
            return pa.table(
                {
                    "revenue_e2": pa.array([int(cents.sum())], pa.int64()),
                    "n": pa.array([int(keep.sum())], pa.int64()),
                }
            )

        return finalize(li2.map_batches(probe, batch_format="pyarrow").to_pandas())

    # distributed pass 2: hash join lineitem ⋈ per-part partials, then
    # the same integer predicate per joined batch → one partial row per
    # block → driver sums O(blocks) rows
    tune_join_resources()
    li2 = li2.materialize()
    n_li = li2.count()
    if n_li == 0:
        return finalize(pd.DataFrame({"revenue_e2": [], "n": []}))
    li2 = li2.repartition(max(1, min(join_partitions(), n_li // 4096)))
    per_part_rp = per_part_ds.repartition(
        max(1, min(join_partitions(), n_parts // 4096))
    )
    joined = li2.join(
        per_part_rp, join_type="inner", num_partitions=join_partitions(),
        on=("l_partkey",),
    )

    def probe_joined(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        q = df["l_quantity"].round().astype("int64")
        keep = (5 * q * df["n"].to_numpy()) < df["s"].to_numpy()
        cents = (df.loc[keep, "l_extendedprice"] * 100).round().astype("int64")
        return pa.table(
            {
                "revenue_e2": pa.array([int(cents.sum())], pa.int64()),
                "n": pa.array([int(keep.sum())], pa.int64()),
            }
        )

    return finalize(joined.map_batches(probe_joined, batch_format="pyarrow").to_pandas())


# ------------------------------------------------------------ distinct --
def q_count_distinct(sf_dir: str, n_buckets: int | None = None):
    """Exact distinct count, two-level: per-batch partial unique
    (combiner) -> bucketed groupby on hash(key)%B with a per-bucket
    unique count -> Sum of per-bucket counts. Buckets hold disjoint key
    ranges, so the sum is exact; the only thing that ever reaches the
    driver is <= B count rows — never the distinct key set itself (at
    100 TB the distinct set is itself huge)."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "lineitem", columns=["l_orderkey"])

    def partial(batch: pa.Table) -> pa.Table:
        u = np.unique(batch.column("l_orderkey").to_numpy(zero_copy_only=False))
        b = (u.astype(np.uint64) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {"l_orderkey": pa.array(u, pa.int64()), "__b": pa.array(b, pa.int32())}
        )

    def bucket_count(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [g["l_orderkey"].nunique()]})

    counts = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(bucket_count, batch_format="pandas")
        .to_pandas()
    )
    return pa.table({"n_distinct": pa.array([int(counts["n"].sum())], pa.int64())})


# ------------------------------------------------------ pricing summary --
def q_pricing_summary(sf_dir: str):
    """TPC-H-Q1-shaped multi-aggregate with a ship-date predicate:
    filter + per-batch partial aggregation (combiner) + tiny final
    groupby. All money math in scaled int64 (cents / e4 / e6), so the
    result is bit-exact under any summation order AND matches the SQL
    twin exactly — the engineering rule for oracle-checked aggregates."""
    ds = _pq(
        sf_dir, "lineitem",
        columns=[
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax", "l_shipdate",
        ],
    )
    cutoff = pd.Timestamp("1998-09-01")

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["l_shipdate"] <= cutoff]
        if not len(df):
            return pa.table(
                {
                    "l_returnflag": pa.array([], pa.string()),
                    "l_linestatus": pa.array([], pa.string()),
                    "sum_qty": pa.array([], pa.int64()),
                    "sum_base_e2": pa.array([], pa.int64()),
                    "sum_disc_e4": pa.array([], pa.int64()),
                    "sum_charge_e6": pa.array([], pa.int64()),
                    "cnt": pa.array([], pa.int64()),
                }
            )
        qty = df["l_quantity"].round().astype("int64")
        base = (df["l_extendedprice"] * 100).round().astype("int64")
        disc = (df["l_discount"] * 100).round().astype("int64")
        tax = (df["l_tax"] * 100).round().astype("int64")
        df2 = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "sum_qty": qty,
                "sum_base_e2": base,
                "sum_disc_e4": base * (100 - disc),
                "sum_charge_e6": base * (100 - disc) * (100 + tax),
                "cnt": 1,
            }
        )
        g = df2.groupby(["l_returnflag", "l_linestatus"], sort=False).sum().reset_index()
        return pa.Table.from_pandas(g, preserve_index=False)

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty", alias_name="sum_qty"),
            Sum("sum_base_e2", alias_name="sum_base_e2"),
            Sum("sum_disc_e4", alias_name="sum_disc_e4"),
            Sum("sum_charge_e6", alias_name="sum_charge_e6"),
            Sum("cnt", alias_name="n"),
        )
    )


# ------------------------------------------------------------ asof join --
def q_asof_join(sf_dir: str):
    """As-of join (SURVEY.md 'As-of / range join' pattern): for every
    'click' event, the most recent 'view' value by the same user at or
    before it. One bucketed shuffle on hash(user)%B; per bucket a
    vectorized ``pd.merge_asof`` over the sorted group."""
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type", "value"])

    # hoisted: one modulus for every task regardless of mid-run cluster
    # resizes (default_buckets reads live CPU state)
    n_bkt = np.uint64(default_buckets())

    def add_bucket(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("event_type"), value_set=pa.array(["click", "view"])
        )
        b = batch.filter(keep)
        bk = (
            b.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % n_bkt
        ).astype(np.int32)
        return b.append_column("__b", pa.array(bk, pa.int32()))

    def asof(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == "click"][["event_id", "user_id", "ts"]]
        right = g[g["event_type"] == "view"][["user_id", "ts", "value"]]
        if not len(left):
            return pd.DataFrame(
                {"event_id": pd.Series(dtype="int64"),
                 "user_id": pd.Series(dtype="int64"),
                 "view_value": pd.Series(dtype="float64")}
            )
        left = left.sort_values("ts", kind="mergesort")
        right = right.sort_values("ts", kind="mergesort")
        j = pd.merge_asof(left, right, on="ts", by="user_id", direction="backward")
        return pd.DataFrame(
            {"event_id": j["event_id"], "user_id": j["user_id"],
             "view_value": j["value"]}
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(asof, batch_format="pandas")
    )


# ----------------------------------------------------------- range join --
RANGE_BANDS = [0.0, 1000.0, 5000.0, 20000.0, 75000.0, 150000.0, 300000.0]


def q_range_join(sf_dir: str):
    """Range (interval) join: each order matched to the price band whose
    [lo, hi) interval contains its total price. The band table is tiny —
    broadcast the sorted boundaries once and resolve the interval with a
    vectorized searchsorted per batch; the fact table never shuffles.
    This is the general small-interval-table range-join layout (the
    other named variant, as-of, is q_asof_join)."""
    bounds = np.array(RANGE_BANDS, dtype=np.float64)
    bounds_ref = ray.put(bounds)
    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_totalprice"])

    def band(batch: pa.Table) -> pa.Table:
        b = ray.get(bounds_ref)
        price = batch.column("o_totalprice").to_numpy(zero_copy_only=False)
        idx = np.searchsorted(b, price, side="right") - 1
        keep = idx >= 0  # price below the first band has no match (inner join)
        return pa.table(
            {
                "o_orderkey": batch.column("o_orderkey").filter(pa.array(keep)),
                "o_totalprice": batch.column("o_totalprice").filter(pa.array(keep)),
                "band_id": pa.array(idx[keep].astype(np.int64), pa.int64()),
            }
        )

    return ds.map_batches(band, batch_format="pyarrow", zero_copy_batch=True)


# ----------------------------------------------------------- percentiles --
def q_percentiles(sf_dir: str, qs: tuple = (50, 90, 99), n_buckets: int | None = None):
    """Exact per-group percentiles (p50/p90/p99 of event value): one
    bucketed shuffle on hash(user)%B, per-bucket vectorized sort +
    index pick. The deterministic rule — value at sorted index
    floor((n-1)*q/100) — is pinned in integer math on BOTH sides so the
    DuckDB twin (row_number pick) hash-matches bit-for-bit. Values in
    scaled int64 cents. At 100 TB the per-group state is the group's
    value vector only (no global sort); for groups too large to sort in
    one task, swap the per-group kernel for a t-digest / two-pass
    histogram — the surrounding layout is unchanged."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, gg in g.groupby("user_id", sort=False):
            gg = gg.sort_values(["value", "event_id"], kind="mergesort")
            v = (gg["value"].to_numpy() * 100).round().astype(np.int64)
            n = len(v)
            rows.append(
                (uid, *(int(v[(n - 1) * q // 100]) for q in qs))
            )
        return pd.DataFrame(
            rows, columns=["user_id"] + [f"p{q}_e2" for q in qs]
        ).astype("int64")

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pick, batch_format="pandas")
    )


# ---------------------------------------------------- stratified sample --
def q_stratified_sample(sf_dir: str, n_per: int = 20):
    """Deterministic stratified sample: exactly n rows per stratum
    (mktsegment), chosen by a keyed-hash order so the pick is stable
    across runs, partitioning and cluster size. Layout: per-block
    partial top-n per stratum inside map_batches, then one tiny
    groupby(stratum) merge — the sample never depends on block
    boundaries and no full shuffle of the table happens. The hash rule
    ((key*2654435761) % 1000003) is SQL-expressible, so the DuckDB twin
    hash-checks the exact row set."""
    ds = _pq(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["__h"] = (df["c_custkey"].to_numpy() * 2654435761) % 1000003
        df = df.sort_values(["__h", "c_custkey"], kind="mergesort")
        df = df.groupby("c_mktsegment", sort=False).head(n_per)
        return pa.Table.from_pandas(df, preserve_index=False)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["__h", "c_custkey"], kind="mergesort").head(n_per)
        return g.drop(columns=["__h"])

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("c_mktsegment")
        .map_groups(final, batch_format="pandas")
    )


# ----------------------------------------------------------------- pivot --
def q_pivot(sf_dir: str):
    """Pivot (long → wide) aggregate: one row per user with per-
    event-type counts as columns. Combiner layout: each batch emits at
    most one row per (user) with the counts already pivoted, the
    groupby then Sums fixed int64 columns — the shuffle moves
    |users| x |types| integers, never event rows, and adding a type is
    adding a column, not a shuffle."""
    from ray.data.aggregate import Sum

    types = ["click", "error", "purchase", "signup", "view"]
    ds = _pq(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["user_id", "event_type"], sort=False)
            .size()
            .unstack(fill_value=0)
            .reindex(columns=types, fill_value=0)
            .reset_index()
        )
        return pa.table(
            {"user_id": pa.array(g["user_id"], pa.int64())}
            | {f"n_{t}": pa.array(g[t].astype("int64"), pa.int64()) for t in types}
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(*[Sum(f"n_{t}", alias_name=f"n_{t}") for t in types])
    )


# -------------------------------------------------- filter aggregate ----
def q_filter_agg(sf_dir: str):
    """TPC-H-Q6-shaped scan-filter-aggregate: one streaming pass, each
    batch reduced to a single partial (revenue_e4, n) row, tiny final
    sum — the cheapest distributed query shape and the yardstick for
    read-side column pruning (only 4 of 11 lineitem columns leave
    storage). Money math in scaled int64 so the result is bit-exact
    under any summation order and matches the SQL twin."""
    ds = _pq(
        sf_dir, "lineitem",
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        d2 = (df["l_discount"] * 100).round().astype("int64")
        m = (
            (df["l_shipdate"] >= lo)
            & (df["l_shipdate"] < hi)
            & (d2 >= 5)
            & (d2 <= 7)
            & (df["l_quantity"] < 24)
        )
        e2 = (df.loc[m, "l_extendedprice"] * 100).round().astype("int64")
        return pa.table(
            {
                "revenue_e4": pa.array([int((e2 * d2[m]).sum())], pa.int64()),
                "n": pa.array([int(m.sum())], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return pa.table(
        {
            "revenue_e4": pa.array([int(parts["revenue_e4"].sum())], pa.int64()),
            "n": pa.array([int(parts["n"].sum())], pa.int64()),
        }
    )


# --------------------------------------------------- min-max scale ------
def q_minmax_scale(sf_dir: str):
    """Global min-max feature scaling to fixed-point [0, 10000] -- the
    two-pass normalization step of a feature pipeline. Pass 1 is a
    per-batch (min, max) combiner (two ints reach the driver); pass 2
    re-maps the scan with the constants closed over -- no shuffle at
    all, and the pattern holds at any scale because only two int64s
    ever leave the aggregate. Integer floor division keeps the engine
    and the DuckDB twin (`// greatest(mx-mn, 1)`) bit-identical."""
    ds = _pq(sf_dir, "events", columns=["event_id", "value"])

    def mm(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        if len(v) == 0:
            return pa.table({"mn": pa.array([], pa.int64()), "mx": pa.array([], pa.int64())})
        return pa.table(
            {"mn": pa.array([int(v.min())], pa.int64()),
             "mx": pa.array([int(v.max())], pa.int64())}
        )

    parts = ds.map_batches(mm, batch_format="pyarrow").to_pandas()
    mn, mx = int(parts["mn"].min()), int(parts["mx"].max())
    span = max(1, mx - mn)

    def scale(batch: pa.Table) -> pa.Table:
        v = np.round(batch.column("value").to_numpy() * 100).astype(np.int64)
        s = (v - mn) * 10000 // span
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "scaled_e4": pa.array(s, pa.int64()),
            }
        )

    return ds.map_batches(scale, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------------------ cube ------
def q_cube(sf_dir: str):
    """CUBE grouping sets over (returnflag, linestatus): counts + exact
    quantity sums (int64 e2) at all four levels, subtotal keys coalesced
    to 'ALL'. One combiner pass + one groupby at the FINEST grouping
    only; the three coarser sets re-aggregate the <= |R|x|S| fine rows
    on the driver — the fact table is read once."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df2 = pd.DataFrame(
            {
                "l_returnflag": df["l_returnflag"],
                "l_linestatus": df["l_linestatus"],
                "n_rows": 1,
                "qty_e2": (df["l_quantity"] * 100).round().astype("int64"),
            }
        )
        g = (
            df2.groupby(["l_returnflag", "l_linestatus"], sort=False)
            .sum()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    fine = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n_rows", alias_name="n_rows"),
                   Sum("qty_e2", alias_name="qty_e2"))
        .to_pandas()  # <= |flags| x |statuses| rows
    )
    by_flag = (
        fine.groupby("l_returnflag", as_index=False)[["n_rows", "qty_e2"]]
        .sum()
        .assign(l_linestatus="ALL")
    )
    by_status = (
        fine.groupby("l_linestatus", as_index=False)[["n_rows", "qty_e2"]]
        .sum()
        .assign(l_returnflag="ALL")
    )
    total = pd.DataFrame(
        [{"l_returnflag": "ALL", "l_linestatus": "ALL",
          "n_rows": fine["n_rows"].sum(), "qty_e2": fine["qty_e2"].sum()}]
    )
    out = pd.concat([fine, by_flag, by_status, total], ignore_index=True)
    out = out.sort_values(["l_returnflag", "l_linestatus"], kind="mergesort")
    return pa.table(
        {
            "l_returnflag": pa.array(out["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(out["l_linestatus"], pa.string()),
            "n_rows": pa.array(out["n_rows"].astype("int64"), pa.int64()),
            "qty_e2": pa.array(out["qty_e2"].astype("int64"), pa.int64()),
        }
    )


# ----------------------------------------------------- inter-arrival ----
def q_interarrival(sf_dir: str, n_buckets: int | None = None):
    """Per-user inter-event-gap statistics (count / sum / max of the
    microsecond deltas between consecutive events) — the arrival-process
    feature a recrawl scheduler or session model derives per host/user.

    One bucketed shuffle on hash(user) % B (a bucket holds every row of
    its users), then a vectorized per-bucket body: one mergesort by
    (user, ts) + one diff — O(buckets) Python calls, not O(users). The
    gap aggregates are order-insensitive ints, so any tie order between
    equal timestamps leaves the result unchanged (and bit-equal to the
    SQL lag() twin)."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts"], kind="mergesort")
        d = g.groupby("user_id", sort=False)["ts"].diff()
        us = (d.dt.total_seconds() * 1e6).round()
        out = (
            pd.DataFrame({"user_id": g["user_id"], "gap": us})
            .dropna()
            .groupby("user_id", sort=False)["gap"]
            .agg(["count", "sum", "max"])
            .reset_index()
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64"),
                "n_gaps": out["count"].astype("int64"),
                "sum_gap_us": out["sum"].astype("int64"),
                "max_gap_us": out["max"].astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(gaps, batch_format="pandas")
    )


# ----------------------------------------------------------- ntile ------
def q_ntile(sf_dir: str, buckets: int = 10):
    """Global NTILE(buckets) over (value, event_id) — the exact global
    ranking / row_number primitive (quantile bucketing for stratified
    training splits). No window function exists in Ray Data; the
    distributed layout:

    1. one distributed range sort on (value, event_id) — the only
       all-to-all, and the key set IS the payload (2 columns);
    2. one metadata round: a tiny task per sorted block returns its row
       count (ints to the driver, never rows), cumsum -> block offsets;
    3. one attach round: per-block tasks append
       rank = offset + arange, bucket = DuckDB's NTILE split (the
       first ``n % buckets`` buckets get the extra row) — embarrassingly
       parallel, order preserved by construction.

    Exactly the textbook distributed row_number (sort + partition
    offsets); ties impossible because event_id is unique."""
    ds = _pq(sf_dir, "events", columns=["event_id", "value"])
    n_total = ds.count()
    if n_total == 0:
        return pa.table(
            {"event_id": pa.array([], pa.int64()),
             "bucket": pa.array([], pa.int64())}
        )
    from ..runtime import sorted_block_offsets

    sorted_ds = ds.sort(["value", "event_id"]).materialize()
    refs, offsets = sorted_block_offsets(sorted_ds, lambda b: b.num_rows)

    base = n_total // buckets
    extra = n_total % buckets
    # rank r (0-based) -> bucket: first `extra` buckets hold base+1 rows
    cut = extra * (base + 1)

    @ray.remote
    def _attach(block: pa.Table, off: int) -> pa.Table:
        if block.num_rows == 0:
            return pa.table(
                {"event_id": pa.array([], pa.int64()),
                 "bucket": pa.array([], pa.int64())}
            )
        r = off + np.arange(block.num_rows, dtype=np.int64)
        b = np.where(
            r < cut,
            r // (base + 1),
            extra + (r - cut) // max(base, 1),
        ) + 1
        return pa.table(
            {
                "event_id": block.column("event_id"),
                "bucket": pa.array(b.astype(np.int64), pa.int64()),
            }
        )

    out_refs = [_attach.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


def q_retention(sf_dir: str, week_us: int = 604_800_000_000):
    """Cohort retention analysis (the engagement matrix every
    product/telemetry pipeline computes): users are cohorted by their
    FIRST event week; n_users counts distinct users of cohort c active
    again at week offset k. Output (cohort_week, week_offset, n_users).

    Layout: one bucketed shuffle on user_id % B co-locates each user's
    events; inside a bucket everything is vectorized pandas — distinct
    (user, week) pairs, per-user min week, offset join — and each bucket
    emits cohort-offset PARTIAL counts, so the final groupby moves
    O(cohorts x offsets x B) tiny rows. The week is computed by integer
    floor division of the raw int64 microseconds (exact twin of DuckDB's
    floor(epoch/604800))."""
    from ray.data.aggregate import Sum

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        wk = ts // week_us
        uw = np.unique(np.stack([u, wk], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(uw[:, 0], pa.int64()),
                "wk": pa.array(uw[:, 1], pa.int64()),
                "__b": pa.array((uw[:, 0] % n_bkt).astype(np.int32), pa.int32()),
            }
        )

    def bucket_counts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["user_id", "wk"])
        first = g.groupby("user_id", sort=False)["wk"].transform("min")
        out = (
            pd.DataFrame(
                {
                    "cohort_week": first.astype("int64"),
                    "week_offset": (g["wk"] - first).astype("int64"),
                }
            )
            .groupby(["cohort_week", "week_offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )
        out["n_users"] = out["n_users"].astype("int64")
        return out

    return (
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(bucket_counts, batch_format="pandas")
        .groupby(["cohort_week", "week_offset"])
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def _flag_users(sf_dir: str, thr_e2: int = 15_000):
    """Shared core for the set-op queries: ONE scan of events emitting
    per-batch (user, in_a, in_b) partials — side A = big clicks, side B
    = big purchases — then one max-combine groupby. INTERSECT / EXCEPT
    read off the two flags; neither side is ever materialized as its own
    pass (the naive plan scans the fact table twice and shuffles two key
    sets; this shuffles one)."""
    from ray.data.aggregate import Max

    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "value"])

    def flags(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        v2 = (df["value"] * 100).round().astype("int64")
        big = v2 > thr_e2
        a = (df["event_type"] == "click") & big
        b = (df["event_type"] == "purchase") & big
        keep = a | b
        if not keep.any():
            return pa.table(
                {"user_id": pa.array([], pa.int64()),
                 "in_a": pa.array([], pa.int64()),
                 "in_b": pa.array([], pa.int64())}
            )
        g = (
            pd.DataFrame(
                {
                    "user_id": df.loc[keep, "user_id"].astype("int64"),
                    "in_a": a[keep].astype("int64"),
                    "in_b": b[keep].astype("int64"),
                }
            )
            .groupby("user_id", sort=False)
            .max()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(flags, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Max("in_a", alias_name="in_a"), Max("in_b", alias_name="in_b"))
    )


def q_intersect_users(sf_dir: str):
    """INTERSECT set op (§2.7): users with a big click AND a big
    purchase — single-scan flag layout, see _flag_users."""
    return _flag_users(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "user_id": b.filter(
                    pc.and_(
                        pc.equal(b.column("in_a"), 1), pc.equal(b.column("in_b"), 1)
                    )
                ).column("user_id")
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_except_users(sf_dir: str):
    """EXCEPT set op (§2.7): users with a big click but NO big
    purchase — same single-scan flag layout."""
    return _flag_users(sf_dir).map_batches(
        lambda b: pa.table(
            {
                "user_id": b.filter(
                    pc.and_(
                        pc.equal(b.column("in_a"), 1), pc.equal(b.column("in_b"), 0)
                    )
                ).column("user_id")
            }
        ),
        batch_format="pyarrow",
        zero_copy_batch=True,
    )


def q_corr_stats(sf_dir: str, hour_us: int = 3_600_000_000):
    """Per-type correlation sufficient statistics: n, Σx, Σy, Σxy, Σx²,
    Σy² for x = value (e2 int) and y = hour-of-day — the integer-exact
    decomposition of Pearson correlation / covariance (the feature-
    correlation pass of a feature-selection pipeline). Pure combiner:
    each batch emits one row per type, the groupby moves |types| x
    blocks rows, correlation itself is derivable downstream from the
    six sums without any float having crossed the shuffle."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_type", "value", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        x = (df["value"] * 100).round().astype("int64")
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        y = pd.Series((us % (24 * hour_us)) // hour_us, index=df.index).astype("int64")
        g = (
            pd.DataFrame(
                {
                    "event_type": df["event_type"],
                    "n": 1,
                    "sum_x": x,
                    "sum_y": y,
                    "sum_xy": x * y,
                    "sum_x2": x * x,
                    "sum_y2": y * y,
                }
            )
            .groupby("event_type", sort=False)
            .sum()
            .reset_index()
        )
        for c in ("n", "sum_x", "sum_y", "sum_xy", "sum_x2", "sum_y2"):
            g[c] = g[c].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_x", alias_name="sum_x"),
            Sum("sum_y", alias_name="sum_y"),
            Sum("sum_xy", alias_name="sum_xy"),
            Sum("sum_x2", alias_name="sum_x2"),
            Sum("sum_y2", alias_name="sum_y2"),
        )
    )


def q_skew_join(sf_dir: str, n_salts: int | None = None, force_salted: bool = False):
    """Skewed-key join with SALTING (the hot-key pattern the 100-TB
    plan calls for): enrich every event with its type's global count.
    The join key has |types| = a handful of distinct values, the
    classic death of a hash join — every row of a hot key lands in one
    partition. Two plans, equivalence-tested:

    - default: the dim side is tiny by construction (one row per type),
      so it broadcasts via ray.put and the probe is a map-side numpy
      lookup — zero shuffle, the correct plan whenever the dim fits;
    - ``force_salted``: the textbook salted shuffle join for when BOTH
      sides are too big to broadcast — the fact side appends
      __salt = hash(row) % S, the dim side replicates each row S times,
      and the distributed hash join runs on (event_type, __salt) with
      S x |types| evenly-sized partitions instead of |types| hot ones.

    Output (event_id, event_type, type_n), oracled against the plain
    SQL join."""
    from ray.data.aggregate import Sum

    S = n_salts or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "event_type"])

    def cnt_partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("event_type", sort=False).size().reset_index(name="type_n")
        g["type_n"] = g["type_n"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    stats = (
        ds.map_batches(cnt_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(Sum("type_n", alias_name="type_n"))
        .to_pandas()
    )  # |types| rows

    if not force_salted:
        tmap_ref = ray.put(
            (
                pa.array(stats["event_type"].tolist(), pa.string()),
                stats["type_n"].to_numpy().astype(np.int64),
            )
        )

        def probe(batch: pa.Table) -> pa.Table:
            # map-side lookup as ONE kernel: index_in against the
            # broadcast key array, then a numpy gather of the counts
            types_arr, counts = ray.get(tmap_ref)
            idx = pc.index_in(
                batch.column("event_type"), value_set=types_arr
            ).to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "event_id": batch.column("event_id"),
                    "event_type": batch.column("event_type"),
                    "type_n": pa.array(counts[idx], pa.int64()),
                }
            )

        return ds.map_batches(probe, batch_format="pyarrow", zero_copy_batch=True)

    # salted shuffle join: fact side salts, dim side replicates S times
    tune_join_resources()
    nparts = join_partitions()

    def add_salt(batch: pa.Table) -> pa.Table:
        e = batch.column("event_id").to_numpy(zero_copy_only=False).astype(np.uint64)
        return batch.append_column(
            "__salt", pa.array((e % np.uint64(S)).astype(np.int32), pa.int32())
        )

    fact = ds.map_batches(add_salt, batch_format="pyarrow", zero_copy_batch=True)
    dim = ray.data.from_pandas(
        pd.DataFrame(
            {
                "event_type": np.repeat(stats["event_type"].to_numpy(), S),
                "type_n": np.repeat(stats["type_n"].to_numpy().astype(np.int64), S),
                "__salt": np.tile(np.arange(S, dtype=np.int32), len(stats)),
            }
        )
    ).repartition(max(2, min(nparts, (len(stats) * S) // 64 + 1)))
    n_fact = fact.count()
    joined = fact.repartition(max(2, min(nparts, n_fact // 4096 + 1))).join(
        dim,
        join_type="inner",
        on=("event_type", "__salt"),
        num_partitions=nparts,
    )
    return joined.select_columns(["event_id", "event_type", "type_n"])


def q_funnel(sf_dir: str):
    """Ordered conversion funnel (signup -> click -> purchase) counted
    on per-user FIRST timestamps: a user converts at stage k iff their
    earliest stage-k event comes strictly after their earliest
    stage-(k-1) event. One combiner pass emits per-user min-µs per
    stage (missing stage = i64 max sentinel, exact under Min), one
    user-key groupby, then a vectorized three-comparison count —
    the product-analytics shape that usually hides a triple self-join.
    Output (stage, n_users), 3 rows."""
    from ray.data.aggregate import Min

    SENT = np.int64(2**62)
    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "ts"])

    def mins(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        us = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        out = {}
        for stage, et in (("t1", "signup"), ("t2", "click"), ("t3", "purchase")):
            t = np.where(df["event_type"].to_numpy() == et, us, SENT)
            out[stage] = pd.Series(t, index=df.index)
        g = (
            pd.DataFrame({"user_id": df["user_id"].astype("int64"), **out})
            .groupby("user_id", sort=False)
            .min()
            .reset_index()
        )
        return pa.Table.from_pandas(g, preserve_index=False)

    per_user = (
        ds.map_batches(mins, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(
            Min("t1", alias_name="t1"),
            Min("t2", alias_name="t2"),
            Min("t3", alias_name="t3"),
        )
    )

    def stage_partial(batch: pa.Table) -> pa.Table:
        t1 = batch.column("t1").to_numpy(zero_copy_only=False)
        t2 = batch.column("t2").to_numpy(zero_copy_only=False)
        t3 = batch.column("t3").to_numpy(zero_copy_only=False)
        s1 = t1 < SENT
        s2 = s1 & (t2 < SENT) & (t2 > t1)
        s3 = s2 & (t3 < SENT) & (t3 > t2)
        return pa.table(
            {
                "stage": pa.array(["s1_signup", "s2_click", "s3_purchase"], pa.string()),
                "n_users": pa.array(
                    [int(s1.sum()), int(s2.sum()), int(s3.sum())], pa.int64()
                ),
            }
        )

    from ray.data.aggregate import Sum

    return (
        per_user.map_batches(stage_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("stage")
        .aggregate(Sum("n_users", alias_name="n_users"))
    )


def q_collect_values(sf_dir: str, max_events: int = 40):
    """Grouped COLLECT / array_agg (the per-key list materialization
    training pipelines use to assemble per-user histories): for each
    user with at most ``max_events`` qualifying events, the
    comma-joined ASCENDING list of event ids. Determinism comes from
    the explicit sort inside the bucket (array_agg without an order is
    unhashable); the small-list gate bounds the row payload the way a
    real history assembler caps sequence length.

    Layout: one bucketed shuffle on user % B; per bucket a vectorized
    pandas sort + groupby-join — O(B) Python calls. The joined string
    is exactly DuckDB's string_agg(... ORDER BY), so the twin
    hash-matches."""
    n_bkt = default_buckets()
    ds = _pq(sf_dir, "events", columns=["user_id", "event_id", "event_type"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["event_type"] == "purchase"]
        return pa.table(
            {
                "user_id": pa.array(df["user_id"].astype("int64"), pa.int64()),
                "event_id": pa.array(df["event_id"].astype("int64"), pa.int64()),
                "__b": pa.array(
                    (df["user_id"].to_numpy() % n_bkt).astype(np.int32), pa.int32()
                ),
            }
        )

    def collect(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"], kind="mergesort")
        out = (
            g.groupby("user_id", sort=False)["event_id"]
            .agg(lambda s: ",".join(str(x) for x in s))
            .reset_index(name="event_ids")
        )
        sizes = g.groupby("user_id", sort=False).size().reset_index(name="n")
        out = out.merge(sizes, on="user_id")
        out = out[out["n"] <= max_events].drop(columns=["n"])
        return out

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(collect, batch_format="pandas")
    )


def q_late_events(sf_dir: str, allowed_lateness_us: int = 86_400_000_000):
    """Watermark-based late-event detection (the streaming-ingest
    semantics batch engines replay): arrival order is a PER-USER upload
    replay — (user_id, event_id) — the pattern of devices syncing whole
    histories one source at a time, which is what actually produces
    late data; the watermark trails the running max event-time by the
    allowed lateness, and an event is LATE iff it arrives after the
    watermark passed its timestamp. Output (event_id, late_by_us) for
    the late arrivals. (Arrival by bare event_id is vacuous on this
    fixture — events are generated time-ordered — so the replay order
    is also the only semantics with observable output.)

    The distributed layout generalizes the q_ntile/q_pack_sequences
    block-offset core from prefix-SUM to prefix-MAX — the same ONE
    range sort + per-block scalar metadata round + embarrassingly
    parallel attach, because running max is associative: each block
    needs only the EXCLUSIVE max of all earlier blocks (one int64 per
    block to the driver, np.maximum.accumulate across them), then a
    vectorized in-block exclusive running max finishes locally. The
    DuckDB twin is MAX(...) OVER (ORDER BY ... ROWS BETWEEN UNBOUNDED
    PRECEDING AND 1 PRECEDING)."""
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "ts"])

    def to_us(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "ts_us": batch.column("ts").cast(pa.int64()),
            }
        )

    sorted_ds = (
        ds.map_batches(to_us, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["user_id", "event_id"])
        .materialize()
    )
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _blockmax(block: pa.Table) -> int:
        if block.num_rows == 0:
            return -(2**62)
        return int(pc.max(block.column("ts_us")).as_py())

    maxima = np.array(ray.get([_blockmax.remote(r) for r in refs]), np.int64)
    # exclusive prefix max of block maxima: block i sees the max of
    # blocks 0..i-1; the first block sees -inf
    incoming = np.concatenate(
        [[-(2**62)], np.maximum.accumulate(maxima)[:-1]]
    ).astype(np.int64)

    out_schema = pa.schema([("event_id", pa.int64()), ("late_by_us", pa.int64())])

    @ray.remote
    def _attach(block: pa.Table, prefix_max: int) -> pa.Table:
        if block.num_rows == 0:
            return out_schema.empty_table()
        ts = block.column("ts_us").to_numpy(zero_copy_only=False)
        run = np.maximum.accumulate(ts)
        # exclusive running max: earlier rows in this block + prefix
        excl = np.concatenate([[prefix_max], run[:-1]])
        excl = np.maximum(excl, prefix_max)
        wm = excl - allowed_lateness_us
        late = ts < wm
        if not late.any():
            return out_schema.empty_table()
        return pa.table(
            {
                "event_id": block.column("event_id").filter(pa.array(late)),
                "late_by_us": pa.array((wm - ts)[late], pa.int64()),
            }
        )

    out_refs = [_attach.remote(r, int(m)) for r, m in zip(refs, incoming)]
    return ray.data.from_arrow_refs(out_refs)


def q_window_dedup(sf_dir: str, window_us: int = 86_400_000_000):
    """Windowed dedup: first event per (user, event_type) per tumbling
    window (the dedup semantics of a streaming ingest that suppresses
    repeats within a day but lets keys reappear across windows —
    exact dedup's time-scoped cousin). One bucketed shuffle on
    user % B co-locates each user's events; per bucket a vectorized
    sort + drop_duplicates on (user, type, window) keeps the earliest
    (ts, event_id) row. Output (user_id, event_type, window_id,
    event_id)."""
    n_bkt = default_buckets()
    ds = _pq(sf_dir, "events", columns=["user_id", "event_type", "event_id", "ts"])

    def prep(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": pa.array(u, pa.int64()),
                "event_type": batch.column("event_type"),
                "event_id": batch.column("event_id"),
                "ts_us": pa.array(ts, pa.int64()),
                "window_id": pa.array(ts // window_us, pa.int64()),
                "__b": pa.array((u % n_bkt).astype(np.int32), pa.int32()),
            }
        )

    def first_per_window(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["user_id", "event_type", "window_id", "ts_us", "event_id"],
            kind="mergesort",
        )
        out = g.drop_duplicates(["user_id", "event_type", "window_id"], keep="first")
        return out[["user_id", "event_type", "window_id", "event_id"]]

    return (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(first_per_window, batch_format="pandas")
    )


# ------------------------------------------- value-distribution (round 3) --
def q_p99_outliers(sf_dir: str, q: int = 99):
    """Per-event-type p99 outlier filter (the tail-clipping gate data
    cleaning runs before normalization): events whose value exceeds
    their type's exact 99th percentile. Unlike q_percentiles (which
    sorts each group's VALUE VECTOR in one task), the threshold here is
    computed from a distributed VALUE HISTOGRAM, which is the layout
    that still works when one group holds billions of rows:

    1. combiner: per-batch (event_type, v_e2) -> partial count — the
       shuffle moves per-batch distinct-value vocabularies, not rows;
    2. ONE groupby(type) co-locates each type's partials; the per-type
       task merges duplicate values and walks the cumulative counts to
       the exact index floor((n-1)*q/100) — the SAME integer rule
       q_percentiles pins, reproduced over (value, count) pairs,
       duplicates included;
    3. thresholds (|event types| rows) broadcast; one streaming filter
       pass emits the outliers. No row-level all-to-all anywhere."""
    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["v_e2"] = (df["value"] * 100).round().astype("int64")
        g = (
            df.groupby(["event_type", "v_e2"], sort=False)
            .size()
            .reset_index(name="cnt")
        )
        g["cnt"] = g["cnt"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        # g = ALL partial (v_e2, cnt) rows of one event type (distinct-
        # value scale); merge duplicates, then walk the cumulative
        # counts to the exact index — one task per type, ONE all-to-all
        # total (the two-stage groupby([type,v]) -> groupby(type) chain
        # this fuses spent a second shuffle for nothing)
        et = g["event_type"].iloc[0]
        g = (
            g.groupby("v_e2", sort=True)["cnt"].sum().reset_index(name="n")
        )
        c = g["n"].to_numpy(dtype=np.int64)
        n = int(c.sum())
        idx = (n - 1) * q // 100
        pos = int(np.searchsorted(np.cumsum(c), idx + 1))
        return pd.DataFrame({"event_type": [et], "thr": [int(g["v_e2"].iloc[pos])]})

    th = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(pick, batch_format="pandas")
        .to_pandas()  # |event types| rows — tiny
    )
    thr = {t: int(v) for t, v in zip(th["event_type"], th["thr"])}
    thr_ref = ray.put(thr)

    def flag(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        tm = ray.get(thr_ref)
        v = (df["value"] * 100).round().astype("int64")
        keep = v.to_numpy() > df["event_type"].map(tm).to_numpy()
        out = pd.DataFrame(
            {
                "event_id": df["event_id"][keep].astype("int64"),
                "event_type": df["event_type"][keep],
                "v_e2": v[keep],
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


def q_dense_rank(sf_dir: str):
    """DENSE_RANK() OVER (PARTITION BY event_type ORDER BY v_e2) for
    every event — the exact grouped ranking window, distributed. The
    q_ntile/q_late_events block-offset core generalized from prefix-SUM
    and prefix-MAX to prefix-DISTINCT-COUNT with partition resets:

    1. ONE range sort on (event_type, v_e2) — the only all-to-all, and
       the sort key IS the payload;
    2. metadata round: each sorted block returns its per-type distinct
       counts plus its boundary (type, value) pairs — a few ints/strings
       per block, never rows. The driver cumsums distinct counts per
       type, subtracting one when a value straddles two blocks (the
       block's first value equals its predecessor's last);
    3. attach round, embarrassingly parallel: each block computes local
       dense ranks vectorized (change-flag cumsum reset at type
       boundaries) and adds its type's global offset.

    Dense rank is order-associative the same way sum/max are — a
    block's contribution is its distinct count, corrected at the seam —
    so the pattern holds at any block count; ties NEED no tiebreak
    because equal (type, value) rows get equal rank by definition."""
    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def prep(batch: pa.Table) -> pa.Table:
        v = pc.round(pc.multiply(batch.column("value"), 100.0))
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "event_type": batch.column("event_type"),
                "v_e2": v.cast(pa.int64()),
            }
        )

    sorted_ds = (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .sort(["event_type", "v_e2"])
        .materialize()
    )
    refs = sorted_ds.to_arrow_refs()

    @ray.remote
    def _meta(block: pa.Table):
        if block.num_rows == 0:
            return None
        t = np.asarray(block.column("event_type").to_pandas(), dtype=object)
        v = block.column("v_e2").to_numpy(zero_copy_only=False)
        change = np.r_[True, (t[1:] != t[:-1]) | (v[1:] != v[:-1])]
        seg = np.r_[True, t[1:] != t[:-1]]
        types, counts = [], []
        seg_idx = np.flatnonzero(seg)
        bounds = np.r_[seg_idx, len(t)]
        for s, e in zip(bounds[:-1], bounds[1:]):
            types.append(t[s])
            counts.append(int(change[s:e].sum()))
        return {
            "types": types,
            "distinct": counts,
            "first": (t[0], int(v[0])),
            "last": (t[-1], int(v[-1])),
        }

    metas = ray.get([_meta.remote(r) for r in refs])

    # driver seam-merge: one dict of per-type running distinct counts;
    # per block a snapshot offset map + a straddle flag
    cum: dict = {}
    last = None
    block_offsets, block_straddle = [], []
    for m in metas:
        if m is None:
            block_offsets.append({})
            block_straddle.append(False)
            continue
        straddle = last is not None and (m["first"][0], m["first"][1]) == last
        block_offsets.append(dict(cum))
        block_straddle.append(bool(straddle))
        for ty, d in zip(m["types"], m["distinct"]):
            cum[ty] = cum.get(ty, 0) + d
        if straddle:
            cum[m["first"][0]] -= 1
        last = (m["last"][0], m["last"][1])

    @ray.remote
    def _attach(block: pa.Table, offsets: dict, straddle: bool) -> pa.Table:
        if block.num_rows == 0:
            return pa.table(
                {"event_id": pa.array([], pa.int64()),
                 "drank": pa.array([], pa.int64())}
            )
        t = np.asarray(block.column("event_type").to_pandas(), dtype=object)
        v = block.column("v_e2").to_numpy(zero_copy_only=False)
        change = np.r_[True, (t[1:] != t[:-1]) | (v[1:] != v[:-1])]
        seg = np.r_[True, t[1:] != t[:-1]]
        gdense = np.cumsum(change)
        seg_start = np.flatnonzero(seg)
        seg_id = np.cumsum(seg) - 1
        local = gdense - (gdense[seg_start] - 1)[seg_id]
        off = np.array([offsets.get(ty, 0) for ty in t[seg_start]], dtype=np.int64)[seg_id]
        rank = off + local
        if straddle:
            # the block's first value was already counted into this
            # block's offset by its predecessor, but the local change
            # flags count it again — every rank in the FIRST type
            # segment is one too high (the driver's cum decrement only
            # repairs LATER blocks)
            rank[seg_id == 0] -= 1
        return pa.table(
            {
                "event_id": block.column("event_id"),
                "drank": pa.array(rank.astype(np.int64), pa.int64()),
            }
        )

    out_refs = [
        _attach.remote(r, o, s)
        for r, o, s in zip(refs, block_offsets, block_straddle)
    ]
    return ray.data.from_arrow_refs(out_refs)


def q_full_outer(sf_dir: str):
    """FULL OUTER JOIN of per-user event counts against the customer
    table (the reconciliation shape: which activity has no account,
    which account has no activity, and the joined rows). Completes the
    join-type inventory next to the inner/left/semi/anti/asof/range
    shapes. Nulls never cross the hash: counts coalesce to 0, balances
    to a -1 sentinel, and a `side` tag (both/events/customer) makes the
    outer semantics directly assertable.

    Layout: the events side arrives as COMBINER partials (one row per
    user per batch), so the single bucketed shuffle moves key-bounded
    partials + the customer scan — never raw events; per bucket one
    vectorized pandas outer merge. Same bucket modulus on both sides,
    hoisted to the driver (the ADVICE-r2 rule: workers must not read
    live cluster state for routing)."""
    n_bkt = default_buckets()
    ev = _pq(sf_dir, "events", columns=["user_id"])
    cust = _pq(sf_dir, "customer", columns=["c_custkey", "c_acctbal"])

    def ev_partial(batch: pa.Table) -> pa.Table:
        u, c = np.unique(
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64),
            return_counts=True,
        )
        return pa.table(
            {
                "key": pa.array(u, pa.int64()),
                "n_events": pa.array(c.astype(np.int64), pa.int64()),
                "acctbal_e2": pa.array(np.full(len(u), -1, np.int64), pa.int64()),
                "__side": pa.array(np.zeros(len(u), np.int8), pa.int8()),
                "__b": pa.array((u % n_bkt).astype(np.int32), pa.int32()),
            }
        )

    def cust_rows(batch: pa.Table) -> pa.Table:
        key = batch.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        bal = np.round(
            batch.column("c_acctbal").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "key": pa.array(key, pa.int64()),
                "n_events": pa.array(np.zeros(len(key), np.int64), pa.int64()),
                "acctbal_e2": pa.array(bal, pa.int64()),
                "__side": pa.array(np.ones(len(key), np.int8), pa.int8()),
                "__b": pa.array((key % n_bkt).astype(np.int32), pa.int32()),
            }
        )

    both = ev.map_batches(ev_partial, batch_format="pyarrow", zero_copy_batch=True).union(
        cust.map_batches(cust_rows, batch_format="pyarrow", zero_copy_batch=True)
    )

    def merge(g: pd.DataFrame) -> pd.DataFrame:
        e = (
            g[g["__side"] == 0]
            .groupby("key", sort=False)["n_events"].sum().reset_index()
        )
        c = g[g["__side"] == 1][["key", "acctbal_e2"]]
        m = e.merge(c, on="key", how="outer")
        m["side"] = np.where(
            m["n_events"].notna() & m["acctbal_e2"].notna(), "both",
            np.where(m["n_events"].notna(), "events", "customer"),
        )
        m["n_events"] = m["n_events"].fillna(0).astype("int64")
        m["acctbal_e2"] = m["acctbal_e2"].fillna(-1).astype("int64")
        return m[["key", "n_events", "acctbal_e2", "side"]]

    return both.groupby("__b").map_groups(merge, batch_format="pandas")


def q_rolling_sum(sf_dir: str, window: int = 3, n_buckets: int | None = None):
    """ROWS-BETWEEN moving aggregate (3-event moving value sum per
    user, ordered by event id) — the rolling-window family next to the
    RANGE prefix aggregate (q_running_sum) and the time-window shapes:
    feature engineering's 'last-N behavior' transform.

    Layout: ONE bucketed shuffle on user%B (a user's rows co-locate);
    per bucket a single vectorized pass — sort, per-row cumsum, and a
    per-user-reset subtraction of the cumsum shifted `window` rows
    (group starts from a boundary mask; no per-user Python). Integer
    cents end to end."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        v = np.round(
            batch.column("value").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "user_id": pa.array(u, pa.int64()),
                "v_e2": pa.array(v, pa.int64()),
                "__b": pa.array((u % B).astype(np.int32), pa.int32()),
            }
        )

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        v = g["v_e2"].to_numpy()
        start = np.r_[True, u[1:] != u[:-1]]          # group boundaries
        gstart = np.flatnonzero(start)
        gid = np.cumsum(start) - 1
        pos = np.arange(len(u)) - gstart[gid]          # row index within user
        cum = np.cumsum(v)
        base = np.where(gstart[gid] > 0, cum[gstart[gid] - 1], 0)
        cum_in = cum - base                            # per-user inclusive cumsum
        lag = pos - window                             # index of row window-back
        prev = np.where(lag >= 0, cum_in[np.maximum(gstart[gid] + lag, 0)], 0)
        return pd.DataFrame(
            {
                "event_id": g["event_id"].to_numpy(),
                "mov_sum_e2": (cum_in - prev).astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(roll, batch_format="pandas")
    )


def q_mad_outliers(sf_dir: str, mult: int = 3):
    """Median-absolute-deviation outlier detection per event type (the
    ROBUST counterpart to q_p99_outliers' tail clip — MAD ignores the
    very outliers it hunts, where mean/std get dragged): flag events
    with |v - median| > mult * MAD, median and MAD both EXACT via the
    same distributed value-histogram core (floor((n-1)/2) index rule on
    both sides, duplicates included).

    Layout: round 1 = per-batch (type, v_e2) partial counts -> ONE
    groupby(type) -> per-type exact median from merged counts; round 2
    = the SAME pass over |v - med| (med broadcast) -> exact MAD; then
    one streaming filter with both tiny maps broadcast. Three corpus
    scans, ZERO row-level all-to-alls — the histogram partials are
    batch-vocab-bounded on both rounds."""
    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def _hist_partial(col_fn):
        def partial(batch: pa.Table) -> pa.Table:
            df = batch.to_pandas()
            df["x"] = col_fn(df)
            g = (
                df.groupby(["event_type", "x"], sort=False)
                .size()
                .reset_index(name="cnt")
            )
            g["cnt"] = g["cnt"].astype("int64")
            return pa.Table.from_pandas(g, preserve_index=False)

        return partial

    def _pick50(g: pd.DataFrame) -> pd.DataFrame:
        et = g["event_type"].iloc[0]
        g = g.groupby("x", sort=True)["cnt"].sum().reset_index(name="n")
        c = g["n"].to_numpy(dtype=np.int64)
        idx = (int(c.sum()) - 1) // 2
        pos = int(np.searchsorted(np.cumsum(c), idx + 1))
        return pd.DataFrame({"event_type": [et], "med": [int(g["x"].iloc[pos])]})

    def v_e2(df: pd.DataFrame) -> pd.Series:
        return (df["value"] * 100).round().astype("int64")

    med = (
        ds.map_batches(_hist_partial(v_e2), batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(_pick50, batch_format="pandas")
        .to_pandas()
    )
    med_map = dict(zip(med["event_type"], med["med"].astype(int)))
    med_ref = ray.put(med_map)

    def dev(df: pd.DataFrame) -> pd.Series:
        m = ray.get(med_ref)
        return (v_e2(df) - df["event_type"].map(m)).abs().astype("int64")

    mad = (
        ds.map_batches(_hist_partial(dev), batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(_pick50, batch_format="pandas")
        .to_pandas()
    )
    mad_map = dict(zip(mad["event_type"], mad["med"].astype(int)))
    mad_ref = ray.put(mad_map)

    def flag(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        m = ray.get(med_ref)
        s = ray.get(mad_ref)
        v = v_e2(df)
        d = (v - df["event_type"].map(m)).abs()
        keep = d.to_numpy() > mult * df["event_type"].map(s).to_numpy()
        out = pd.DataFrame(
            {
                "event_id": df["event_id"][keep].astype("int64"),
                "event_type": df["event_type"][keep],
                "v_e2": v[keep],
            }
        )
        return pa.Table.from_pandas(out, preserve_index=False)

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------- transition counts -------
def q_transition_counts(sf_dir: str, n_buckets: int | None = None):
    """Per-user consecutive event-type TRANSITION counts (the Markov
    transition matrix a session/recrawl model estimates from): for each
    user's ts-ordered event stream, count (prev_type -> next_type)
    adjacencies globally. Deterministic: ties in ts break on event_id,
    matching the SQL LEAD() twin exactly.

    One bucketed shuffle on hash(user) % B co-locates each user's rows
    (q_interarrival's layout); the per-bucket body is one mergesort +
    one shift — O(buckets) Python calls. Per-bucket output is already
    the (prev, next, n) partial matrix, so the final rollup is
    key-bounded at |types|^2 rows per bucket and merges on the driver
    (the measured fuse-the-tail rule: a chained groupby all-to-all
    costs more wall than a <=B x |types|^2-row driver merge at any
    scale — transitions across buckets never exist because a user
    lives in exactly one bucket)."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def transitions(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        same_user = g["user_id"].shift(-1) == g["user_id"]
        t = pd.DataFrame(
            {
                "prev_type": g["event_type"][same_user],
                "next_type": g["event_type"].shift(-1)[same_user],
            }
        )
        out = (
            t.groupby(["prev_type", "next_type"], as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        out["n"] = out["n"].astype("int64")
        return out

    parts = (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(transitions, batch_format="pandas")
        .to_pandas()  # <= B x |types|^2 rows
    )
    agg = (
        parts.groupby(["prev_type", "next_type"], as_index=False)["n"]
        .sum()
        .sort_values(["prev_type", "next_type"])
    )
    return pa.table(
        {
            "prev_type": pa.array(agg["prev_type"], pa.string()),
            "next_type": pa.array(agg["next_type"], pa.string()),
            "n": pa.array(agg["n"].astype("int64"), pa.int64()),
        }
    )


# ------------------------------------------------ last-touch attribution
def q_attribution(sf_dir: str, window_us: int = 3_600_000_000):
    """LAST-TOUCH ATTRIBUTION: for every 'purchase', the most recent
    'click' by the same user STRICTLY within the preceding hour — the
    tolerance-bounded as-of self-join every conversion pipeline runs
    (q_asof_join's unbounded lookup + a window bound + a deterministic
    tie-break). Purchases with no qualifying click drop out (inner
    attribution, not left).

    One bucketed shuffle on user; per bucket ONE vectorized
    ``pd.merge_asof`` on integer epoch-µs (tolerance = window-1 µs
    makes the inclusive tolerance a strict < window), clicks pre-sorted
    by (ts, event_id) so equal-timestamp ties resolve to the max
    event_id — exactly the twin's ORDER BY ts DESC, event_id DESC."""
    ds = _pq(
        sf_dir, "events", columns=["event_id", "user_id", "ts", "event_type"]
    )
    n_bkt = np.uint64(default_buckets())

    def add_bucket(batch: pa.Table) -> pa.Table:
        keep = pc.is_in(
            batch.column("event_type"),
            value_set=pa.array(["click", "purchase"]),
        )
        b = batch.filter(keep)
        us = pc.cast(b.column("ts"), pa.timestamp("us")).cast(pa.int64())
        bk = (
            b.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % n_bkt
        ).astype(np.int32)
        return pa.table(
            {
                "event_id": b.column("event_id"),
                "user_id": b.column("user_id"),
                "ts_us": us,
                "event_type": b.column("event_type"),
                "__b": pa.array(bk, pa.int32()),
            }
        )

    def attribute(g: pd.DataFrame) -> pd.DataFrame:
        left = g[g["event_type"] == "purchase"][
            ["event_id", "user_id", "ts_us"]
        ]
        right = g[g["event_type"] == "click"][["event_id", "user_id", "ts_us"]]
        empty = pd.DataFrame(
            {
                "purchase_id": pd.Series(dtype="int64"),
                "click_id": pd.Series(dtype="int64"),
                "gap_us": pd.Series(dtype="int64"),
            }
        )
        if not len(left) or not len(right):
            return empty
        left = left.sort_values("ts_us", kind="mergesort")
        # ties on ts_us: merge_asof backward picks the LAST right row,
        # so (ts_us, event_id) sort makes that the max event_id
        right = right.sort_values(["ts_us", "event_id"], kind="mergesort")
        right = right.assign(click_ts_us=right["ts_us"])
        j = pd.merge_asof(
            left,
            right,
            on="ts_us",
            by="user_id",
            direction="backward",
            suffixes=("", "_click"),
            tolerance=window_us - 1,
        )
        j = j[j["event_id_click"].notna()]
        if not len(j):
            return empty
        return pd.DataFrame(
            {
                "purchase_id": j["event_id"].astype("int64"),
                "click_id": j["event_id_click"].astype("int64"),
                "gap_us": (j["ts_us"] - j["click_ts_us"]).astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(attribute, batch_format="pandas")
    )


def q_percentile_interp(sf_dir: str, q: int = 90, n_buckets: int | None = None):
    """Exact INTERPOLATED per-group percentile (quantile_cont's linear
    rule: k = (n-1)*q/100, result = v[floor k] + frac(k)*(v[ceil k] -
    v[floor k])) — q_percentiles' discrete pick upgraded to the
    interpolating definition, kept integer-exact: values in e2 cents,
    frac(k) = ((n-1)*q) % 100 over 100, so the result in e4 is
    lo_e2*100 + (hi_e2-lo_e2)*rem with no float anywhere. The DuckDB
    twin reconstructs the same two order statistics via row_number and
    applies the identical integer formula, so the check is bit-exact
    (DuckDB's own quantile_cont would return a double).

    Same layout as q_percentiles: ONE bucketed shuffle on
    hash(user)%B, per-bucket vectorized sort + two index picks."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def pick(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, gg in g.groupby("user_id", sort=False):
            v = np.sort(
                (gg["value"].to_numpy() * 100).round().astype(np.int64)
            )
            n = len(v)
            k = (n - 1) * q
            lo = int(v[k // 100])
            hi = int(v[min(k // 100 + 1, n - 1)])
            rem = k % 100
            rows.append((uid, lo * 100 + (hi - lo) * rem))
        return pd.DataFrame(rows, columns=["user_id", f"p{q}_e4"]).astype("int64")

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(pick, batch_format="pandas")
    )


def q_zscore(sf_dir: str):
    """Per-type z-score standardization of event values (the feature-
    normalization pass before any numeric model): ONE integer-exact
    moments combiner (n, Σx_e2, Σx²_e4 per type — nothing float crosses
    the shuffle), the |types|-row moment table broadcast in the
    closure, then a streaming vectorized re-map. μ and σ (population)
    are derived in float64 with the SAME expression text as the DuckDB
    twin and the score rounds e4 (the ulp-parity recipe); rows of a
    type with σ = 0 return 0."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_id", "event_type", "value"])

    def moments(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        v = (df["value"].to_numpy() * 100).round().astype(np.int64)
        g = pd.DataFrame({"event_type": df["event_type"], "x": v, "x2": v * v})
        agg = g.groupby("event_type", sort=False).agg(
            n=("x", "size"), sx=("x", "sum"), sx2=("x2", "sum")
        )
        return pa.Table.from_pandas(agg.reset_index(), preserve_index=False)

    m = (
        ds.map_batches(moments, batch_format="pyarrow")
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sx", alias_name="sx"),
            Sum("sx2", alias_name="sx2"),
        )
        .to_pandas()  # |types| rows
    )
    stats = {
        r.event_type: (int(r.n), int(r.sx), int(r.sx2)) for r in m.itertuples()
    }

    def score(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        v = (df["value"].to_numpy() * 100).round().astype(np.int64)
        out = np.zeros(len(df), np.int64)
        for t, (n, sx, sx2) in stats.items():
            mask = (df["event_type"] == t).to_numpy()
            if not mask.any():
                continue
            mu = sx / n
            var = sx2 / n - (sx / n) * (sx / n)
            if var > 0:
                z = (v[mask] - mu) / np.sqrt(var)
                out[mask] = np.round(z * 10_000).astype(np.int64)
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "z_e4": pa.array(out, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def q_session_windows(sf_dir: str, gap_us: int = 1_800_000_000):
    """Gap-based session windows over the event stream (the classic
    sessionization every analytics engine ships: a new session starts
    when a user is idle longer than ``gap_us`` — 30 min here, the
    Google-Analytics default). Output per session: (user_id, session_n,
    n_events, start_us, dur_us), all int64 microseconds so the window
    twin hash-matches exactly.

    Scale shape: ONE shuffle keyed on user-hash buckets (payload =
    3 int64 columns, never props/values); per bucket a vectorized numpy
    lexsort + gap-flag cumsum + segment reduce — no per-row Python.
    Skewed users stay whole by construction (sessionization cannot
    split a user), which is the operator's documented partitioning
    assumption."""
    n_bkt = default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(batch: pa.Table) -> pa.Table:
        t = batch.column("ts").cast(pa.timestamp("us")).cast(pa.int64())
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "user_id": batch.column("user_id"),
                "event_id": batch.column("event_id"),
                "t": t,
                "__b": pa.array((u % n_bkt).astype(np.int32), pa.int32()),
            }
        )

    def sessions(g: pd.DataFrame) -> pd.DataFrame:
        u = g["user_id"].to_numpy()
        t = g["t"].to_numpy()
        e = g["event_id"].to_numpy()
        o = np.lexsort((e, t, u))
        u, t = u[o], t[o]
        new_user = np.empty(len(u), bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        gap = np.empty(len(u), bool)
        gap[0] = True
        gap[1:] = (t[1:] - t[:-1]) > gap_us
        new_sess = new_user | gap
        # session_n restarts at 1 per user: global cumsum minus the
        # cumsum value at the user's first row
        cs = np.cumsum(new_sess)
        user_base = np.maximum.accumulate(np.where(new_user, cs - 1, 0))
        sess = cs - user_base
        starts = np.flatnonzero(new_sess)
        ends = np.append(starts[1:], len(u))
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "session_n": sess[starts].astype(np.int64),
                "n_events": (ends - starts).astype(np.int64),
                "start_us": t[starts],
                "dur_us": t[ends - 1] - t[starts],
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(sessions, batch_format="pandas")
    )


def q_corpus_rollup(sf_dir: str):
    """GROUP BY ROLLUP (lang, source) — the subtotal/grand-total report
    shape (SQL:1999 §7.9; every BI stack emits it): token and doc
    totals at (lang, source), per-lang, and grand-total levels, rolled
    levels labeled 'ALL' (the fixture never has NULL keys, so the
    label is unambiguous and keeps both sides hashable).

    Scale shape: the corpus collapses in ONE combiner groupby to the
    output-scale (lang, source) base table; the two coarser levels
    re-aggregate THAT table on the driver (|langs x sources| rows) —
    rolling up never touches the corpus again."""
    import polars as pl
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text", "lang", "source"])

    def partial(batch: pa.Table) -> pa.Table:
        toks = (
            pl.from_arrow(batch.column("text"))
            .str.split(" ")
            .list.len()
            .cast(pl.Int64)
            .to_numpy()
        )
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pylist(),
                "source": batch.column("source").to_pylist(),
                "n_docs": 1,
                "n_tokens": toks,
            }
        )
        g = df.groupby(["lang", "source"], sort=True, as_index=False).sum()
        return pa.Table.from_pandas(g, preserve_index=False)

    base = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .to_pandas()  # output-scale: |langs x sources| rows
    )
    lang_lvl = (
        base.groupby("lang", as_index=False)[["n_docs", "n_tokens"]]
        .sum()
        .assign(source="ALL")
    )
    grand = pd.DataFrame(
        {
            "lang": ["ALL"],
            "source": ["ALL"],
            "n_docs": [base["n_docs"].sum()],
            "n_tokens": [base["n_tokens"].sum()],
        }
    )
    out = pd.concat([base, lang_lvl, grand], ignore_index=True)
    return pa.table(
        {
            "lang": pa.array(out["lang"].tolist(), pa.string()),
            "source": pa.array(out["source"].tolist(), pa.string()),
            "n_docs": pa.array(out["n_docs"].astype("int64"), pa.int64()),
            "n_tokens": pa.array(out["n_tokens"].astype("int64"), pa.int64()),
        }
    )


# ------------------------------------------------------- r4 wave 1 ------
def q_pivot_status(sf_dir: str):
    """Pivot (conditional aggregation): per order priority, order counts
    by status spread into columns. Pure combiner shape — each batch
    emits one partial row per (priority, status-counts) key, the
    groupby moves O(priorities) rows, no wide status column survives
    the shuffle. The SQL twin is the classic SUM(CASE WHEN ...) pivot."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_orderpriority", "o_orderstatus"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            pd.crosstab(df["o_orderpriority"], df["o_orderstatus"])
            .reindex(columns=["F", "O", "P"], fill_value=0)
            .reset_index()
        )
        return pa.table(
            {
                "o_orderpriority": pa.array(g["o_orderpriority"], pa.string()),
                "n_f": pa.array(g["F"].astype("int64"), pa.int64()),
                "n_o": pa.array(g["O"].astype("int64"), pa.int64()),
                "n_p": pa.array(g["P"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("o_orderpriority")
        .aggregate(
            Sum("n_f", alias_name="n_f"),
            Sum("n_o", alias_name="n_o"),
            Sum("n_p", alias_name="n_p"),
        )
    )


def q_group_median(sf_dir: str):
    """Per-group EXACT discrete median (quantile_disc 0.5 semantics:
    sorted[(n-1)//2]) of the order price in cents. The exact variant of
    the t-digest path (q_grouped_tdigest): groups are shuffled whole,
    selection is one vectorized np.partition per group — documented
    assumption that a single group's column fits a worker (5 priority
    groups here; at 100 TB you'd salt or fall back to the sketch)."""
    ds = _pq(sf_dir, "orders", columns=["o_orderpriority", "o_totalprice"])

    def med(g: pd.DataFrame) -> pd.DataFrame:
        cents = (g["o_totalprice"] * 100).round().astype("int64").to_numpy()
        k = (len(cents) - 1) // 2
        v = int(np.partition(cents, k)[k])
        return pd.DataFrame(
            {"o_orderpriority": [g["o_orderpriority"].iloc[0]], "median_cents": [v]}
        )

    out = ds.groupby("o_orderpriority").map_groups(med, batch_format="pandas")
    return out.map_batches(
        lambda b: pa.table(
            {
                "o_orderpriority": b.column("o_orderpriority"),
                "median_cents": b.column("median_cents").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


def q_percent_rank(sf_dir: str):
    """Integer-exact percent_rank deciles of supplier balance within
    nation: decile = (10*(rank-1)) // (n-1) with SQL rank() tie
    semantics (min rank, gaps), 0 for singleton groups. All arithmetic
    is integer on both sides, so no float window function is hashed.
    One bucket shuffle on nationkey; ranks are vectorized pandas
    rank(method='min') inside the group."""
    ds = _pq(sf_dir, "supplier", columns=["s_suppkey", "s_nationkey", "s_acctbal"])

    def deciles(g: pd.DataFrame) -> pd.DataFrame:
        cents = (g["s_acctbal"] * 100).round().astype("int64")
        rk = cents.rank(method="min").astype("int64")
        n = len(g)
        dec = (
            np.zeros(n, dtype=np.int64)
            if n == 1
            else (10 * (rk.to_numpy() - 1)) // (n - 1)
        )
        return pd.DataFrame(
            {"s_suppkey": g["s_suppkey"].astype("int64"), "decile": dec}
        )

    return ds.groupby("s_nationkey").map_groups(deciles, batch_format="pandas")


def _events_bucketized(
    sf_dir: str,
    n_bkt: int,
    *,
    cents: bool = False,
    carry: tuple = (),
    filter_type: str | None = None,
):
    """Shared events bucketize for the window-family ops (q_event_gaps /
    q_gap_islands / q_first_last / q_first_purchase / q_running_max):
    prune columns at the read, optionally filter by event_type,
    optionally snap value to int cents, and emit user_id / event_id /
    ts_us / __b = user % n_bkt — ONE copy of the boilerplate so a
    future rounding or bucketing fix cannot silently miss a twin."""
    cols = ["event_id", "user_id", "ts"]
    if cents:
        cols.append("value")
    if filter_type is not None and "event_type" not in cols:
        cols.append("event_type")
    cols += [c for c in carry if c not in cols]
    ds = _pq(sf_dir, "events", columns=cols)

    def bucketize(batch: pa.Table) -> pa.Table:
        if filter_type is not None:
            batch = batch.filter(
                pc.equal(batch.column("event_type"), pa.scalar(filter_type))
            )
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        out = {
            "user_id": pa.array(u, pa.int64()),
            "event_id": batch.column("event_id"),
            "ts_us": batch.column("ts").cast(pa.int64()),
        }
        if cents:
            c = (
                pd.Series(batch.column("value").to_numpy(zero_copy_only=False))
                .mul(100)
                .round()
                .astype("int64")
            )
            out["cents"] = pa.array(c, pa.int64())
        for col in carry:
            out[col] = batch.column(col)
        out["__b"] = pa.array((u % n_bkt).astype(np.int32), pa.int32())
        return pa.table(out)

    return ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)


def _per_cust_revenue_partials(sf_dir: str):
    """Per-customer order-revenue combiner of q_pareto_share: per-batch
    (o_custkey, rev-cents) partial sums."""
    ds = _pq(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = (df["o_totalprice"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"o_custkey": df["o_custkey"].astype("int64"), "c": cents})
            .groupby("o_custkey", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "o_custkey": pa.array(g["o_custkey"], pa.int64()),
                "rev": pa.array(g["c"].astype("int64"), pa.int64()),
            }
        )

    return ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)


def q_event_gaps(sf_dir: str):
    """Per-user inter-event gap statistics (the LAG window family):
    count, integer-floor average and maximum of the microsecond gaps
    between consecutive events ordered by (ts, event_id). One bucketed
    shuffle on user_id co-locates each user's events; the lag/diff is
    one vectorized np.diff per bucket, not a per-user Python loop.
    Users with a single event drop out (no gap), matching the SQL
    twin's count(gap) semantics."""
    from ray.data.aggregate import Sum

    n_bkt = default_buckets()

    def gaps(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        d = np.diff(ts)
        same = u[1:] == u[:-1]
        gap_user = u[1:][same]
        gap = d[same]
        if gap.size == 0:
            return pd.DataFrame(
                {
                    "user_id": pd.Series([], dtype="int64"),
                    "n_gaps": pd.Series([], dtype="int64"),
                    "avg_gap_us": pd.Series([], dtype="int64"),
                    "max_gap_us": pd.Series([], dtype="int64"),
                }
            )
        df = (
            pd.DataFrame({"user_id": gap_user, "gap": gap})
            .groupby("user_id", sort=False)["gap"]
            .agg(["count", "sum", "max"])
            .reset_index()
        )
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "n_gaps": df["count"].astype("int64"),
                "avg_gap_us": (df["sum"] // df["count"]).astype("int64"),
                "max_gap_us": df["max"].astype("int64"),
            }
        )

    return (
        _events_bucketized(sf_dir, n_bkt)
        .groupby("__b")
        .map_groups(gaps, batch_format="pandas")
    )


# ------------------------------------------------------- r4 wave 2 ------
def q_string_agg(sf_dir: str):
    """Ordered list aggregation: per nation, the comma-joined
    lexicographically sorted supplier names (SQL string_agg(... ORDER
    BY)). One bucket shuffle on nationkey; the join is one vectorized
    pandas sort + str.join per group. Output scale is O(nations), so
    the concatenated strings never transit a second shuffle."""
    ds = _pq(sf_dir, "supplier", columns=["s_nationkey", "s_name"])

    def agg(g: pd.DataFrame) -> pd.DataFrame:
        names = ",".join(sorted(g["s_name"].tolist()))
        return pd.DataFrame(
            {
                "s_nationkey": [int(g["s_nationkey"].iloc[0])],
                "names": [names],
            }
        )

    out = ds.groupby("s_nationkey").map_groups(agg, batch_format="pandas")
    return out.map_batches(
        lambda b: pa.table(
            {
                "s_nationkey": b.column("s_nationkey").cast(pa.int64()),
                "names": b.column("names"),
            }
        ),
        batch_format="pyarrow",
    )


def q_mode_value(sf_dir: str):
    """Per-group MODE with deterministic ties (most frequent user per
    event type; ties -> smallest user_id). Two-level combiner: batches
    emit (type, user, n) partials, ONE groupby sums them, and the
    per-type argmax runs over the output-scale (type, user) count table
    — the classic heavy-hitter shape where raw events never shuffle."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["event_type", "user_id"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "user_id": pa.array(g["user_id"].astype("int64"), pa.int64()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "user_id"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def argmax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "user_id"], ascending=[False, True], kind="mergesort")
        top = g.iloc[0]
        return pd.DataFrame(
            {
                "event_type": [top["event_type"]],
                "mode_user": [int(top["user_id"])],
                "n_events": [int(top["n"])],
            }
        )

    return counts.groupby("event_type").map_groups(argmax, batch_format="pandas")


def q_histogram(sf_dir: str):
    """Fixed-width histogram of order value: bin = cents // 5_000_000
    capped at 19 (a $50k-wide 20-bin grid). Per-batch bincount partials
    -> one O(bins) groupby — the distribution never leaves the
    combiner. Bins with zero orders are absent on both sides."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        cents = (
            pd.Series(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
            .mul(100)
            .round()
            .astype("int64")
        )
        b = np.minimum(cents // 5_000_000, 19).astype(np.int64)
        cnt = np.bincount(b, minlength=20)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "bin": pa.array(nz.astype(np.int64), pa.int64()),
                "n_orders": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bin")
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


def q_first_last(sf_dir: str):
    """FIRST_VALUE / LAST_VALUE window family: per user, the event type
    of the first and last event under (ts, event_id) ordering. One
    bucket shuffle on user_id; inside a bucket one mergesort + head/tail
    index per user via vectorized boundary masks (no per-user loop)."""
    n_bkt = default_buckets()

    def firstlast(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        first_mask = np.empty(len(u), dtype=bool)
        first_mask[0] = True
        first_mask[1:] = u[1:] != u[:-1]
        last_mask = np.empty(len(u), dtype=bool)
        last_mask[-1] = True
        last_mask[:-1] = u[1:] != u[:-1]
        et = g["event_type"].to_numpy()
        return pd.DataFrame(
            {
                "user_id": u[first_mask].astype("int64"),
                "first_type": et[first_mask],
                "last_type": et[last_mask],
            }
        )

    return (
        _events_bucketized(sf_dir, n_bkt, carry=("event_type",))
        .groupby("__b")
        .map_groups(firstlast, batch_format="pandas")
    )


def q_doc_stats_by_lang(sf_dir: str):
    """Per-language corpus profile with an EXACT distinct-source count:
    batches emit (lang, source, n_docs, sum_chars, max_chars) partials,
    one groupby collapses them to the (lang, source) grid, and the
    language rollup (count / integer-avg / max / distinct sources)
    reads off that output-scale grid — the two-level exact-distinct
    shape of q_grouped_count_distinct fused with the stats combiner."""
    from ray.data.aggregate import Max, Sum

    ds = _pq(sf_dir, "documents", columns=["lang", "source", "n_chars"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["lang", "source"], sort=False)["n_chars"]
            .agg(["count", "sum", "max"])
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "source": pa.array(g["source"], pa.string()),
                "n_docs": pa.array(g["count"].astype("int64"), pa.int64()),
                "sum_chars": pa.array(g["sum"].astype("int64"), pa.int64()),
                "max_chars": pa.array(g["max"].astype("int64"), pa.int64()),
            }
        )

    grid = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("sum_chars", alias_name="sum_chars"),
            Max("max_chars", alias_name="max_chars"),
        )
    )

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "lang": [g["lang"].iloc[0]],
                "n_docs": [int(g["n_docs"].sum())],
                "avg_chars": [int(g["sum_chars"].sum() // g["n_docs"].sum())],
                "max_chars": [int(g["max_chars"].max())],
                "n_sources": [int(g["source"].nunique())],
            }
        )

    return grid.groupby("lang").map_groups(rollup, batch_format="pandas")


def q_weekly_revenue(sf_dir: str, week_us: int = 604_800_000_000):
    """Weekly revenue with week-over-week delta: the window-over-
    aggregate shape. The fact table collapses to one (epoch-week,
    cents) partial per batch -> an O(weeks) groupby -> the LAG diff
    runs on the driver over the output-scale week series (COALESCE 0
    for the first week on both sides, so no NULL is hashed)."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("o_orderdate").cast(pa.int64()).to_numpy(zero_copy_only=False)
        cents = (
            pd.Series(batch.column("o_totalprice").to_numpy(zero_copy_only=False))
            .mul(100)
            .round()
            .astype("int64")
        )
        g = (
            pd.DataFrame({"week": ts // week_us, "c": cents})
            .groupby("week", sort=False)["c"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "week": pa.array(g["week"].astype("int64"), pa.int64()),
                "revenue_cents": pa.array(g["c"].astype("int64"), pa.int64()),
            }
        )

    weeks = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("week")
        .aggregate(Sum("revenue_cents", alias_name="revenue_cents"))
        .to_pandas()  # output-scale: O(weeks)
        .sort_values("week")
        .reset_index(drop=True)
    )
    delta = weeks["revenue_cents"].diff().fillna(0).astype("int64")
    return pa.table(
        {
            "week": pa.array(weeks["week"], pa.int64()),
            "revenue_cents": pa.array(weeks["revenue_cents"], pa.int64()),
            "wow_delta": pa.array(delta, pa.int64()),
        }
    )


def q_weekday_activity(sf_dir: str, day_us: int = 86_400_000_000):
    """Calendar bucketing without timezone traps: weekday from raw
    epoch microseconds as ((days_since_epoch + 4) % 7) — 1970-01-01
    was a Thursday; 0 = Sunday, matching DuckDB dayofweek — computed
    with the SAME integer expression on both sides. Per (dow, type)
    counts via the combiner."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["ts", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((ts // day_us) + 4) % 7
        g = (
            pd.DataFrame(
                {"dow": dow, "event_type": batch.column("event_type").to_pandas()}
            )
            .groupby(["dow", "event_type"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "dow": pa.array(g["dow"].astype("int64"), pa.int64()),
                "event_type": pa.array(g["event_type"], pa.string()),
                "n_events": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dow", "event_type"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )


def q_url_host_stats(
    sf_dir: str,
    driver_fact_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """Crawl-shaped host profile over URLs synthesized from events with
    the q_url_templates host/path template: per host, total URL count
    and EXACT distinct path count via the two-level (host, path) grid
    — the frontier-compaction statistic a scheduler reads before
    budgeting a host. Per-block partials are GRID-bounded (40 hosts x
    1000 paths), so under ``driver_fact_max`` events rows (exact
    parquet metadata) they combine in one driver pandas pass instead of
    two grid shuffles (profiled 2.1 s -> ~0.8 s at sf0.1); above the
    gate the distributed grid groupby runs unchanged. Forks
    equivalence-tested."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id"])

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "e": batch.column("event_id").to_numpy(zero_copy_only=False),
                "u": batch.column("user_id").to_numpy(zero_copy_only=False),
            }
        )
        host = "h" + (df["u"] % 40).astype(str) + ".example"
        path = "/e/" + (df["e"] % 1000).astype(str)
        g = (
            pd.DataFrame({"host": host, "path": path})
            .groupby(["host", "path"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "host": pa.array(g["host"], pa.string()),
                "path": pa.array(g["path"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    import pyarrow.parquet as _pqt

    ev_rows = _pqt.read_metadata(os.path.join(sf_dir, "events.parquet")).num_rows
    if ev_rows <= driver_fact_max and not force_distributed:
        parts = ds.map_batches(
            partial, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()  # O(grid x blocks) rows — grid-bounded partials
        g = parts.groupby(["host", "path"], sort=False)["n"].sum().reset_index()
        out = (
            g.groupby("host", sort=False)
            .agg(n_urls=("n", "sum"), n_paths=("path", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "host": pa.array(out["host"], pa.string()),
                "n_urls": pa.array(out["n_urls"].astype("int64"), pa.int64()),
                "n_paths": pa.array(out["n_paths"].astype("int64"), pa.int64()),
            }
        )

    grid = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["host", "path"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [g["host"].iloc[0]],
                "n_urls": [int(g["n"].sum())],
                "n_paths": [int(len(g))],
            }
        )

    return grid.groupby("host").map_groups(rollup, batch_format="pandas")


# ------------------------------------------------------- r4 wave 4 ------
def q_running_max(sf_dir: str):
    """Per-user running maximum of the event value (window cummax):
    one bucket shuffle on user_id, then ONE vectorized
    groupby.cummax over the sorted bucket — no per-user Python loop.
    Values are cents (int64) so the running extremum is hash-exact."""
    n_bkt = default_buckets()

    def cummax(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        run = g.groupby("user_id", sort=False)["cents"].cummax()
        return pd.DataFrame(
            {
                "event_id": g["event_id"].astype("int64"),
                "user_id": g["user_id"].astype("int64"),
                "running_max_cents": run.astype("int64"),
            }
        )

    return (
        _events_bucketized(sf_dir, n_bkt, cents=True)
        .groupby("__b")
        .map_groups(cummax, batch_format="pandas")
    )


def q_second_highest(sf_dir: str):
    """NTH_VALUE family: per market segment, the customer with the
    2nd-highest account balance under dense (DISTINCT-value) ranking
    with deterministic custkey ties (segments are deep at every SF, so
    the result is never empty). One bucket shuffle; the selection is
    vectorized rank arithmetic."""
    ds = _pq(sf_dir, "customer", columns=["c_custkey", "c_mktsegment", "c_acctbal"])

    def second(g: pd.DataFrame) -> pd.DataFrame:
        cents = (g["c_acctbal"] * 100).round().astype("int64")
        dr = cents.rank(method="dense", ascending=False).astype("int64")
        sel = g[dr == 2]
        if sel.empty:
            return pd.DataFrame(
                {
                    "c_mktsegment": pd.Series([], dtype="object"),
                    "c_custkey": pd.Series([], dtype="int64"),
                    "balance_cents": pd.Series([], dtype="int64"),
                }
            )
        sel = sel.loc[[sel["c_custkey"].idxmin()]]
        return pd.DataFrame(
            {
                "c_mktsegment": sel["c_mktsegment"],
                "c_custkey": sel["c_custkey"].astype("int64"),
                "balance_cents": (sel["c_acctbal"] * 100).round().astype("int64"),
            }
        )

    return ds.groupby("c_mktsegment").map_groups(second, batch_format="pandas")


def q_distinct_event_days(sf_dir: str):
    """Per-user EXACT count of distinct active days — the DAU building
    block. Two-level combiner: batches emit distinct (user, epoch-day)
    pairs, one groupby collapses the grid, the per-user count reads off
    it. Raw events never shuffle; the grid is bounded by users x days."""
    from ray.data.aggregate import Count

    day_us = 86_400_000_000
    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        d = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False) // day_us
        ud = np.unique(np.stack([u, d], axis=1), axis=0)
        return pa.table(
            {
                "user_id": pa.array(ud[:, 0], pa.int64()),
                "day": pa.array(ud[:, 1], pa.int64()),
            }
        )

    grid = (
        ds.map_batches(pairs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["user_id", "day"])
        .aggregate(Count(alias_name="c"))
    )

    def per_user(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("user_id", sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].astype("int64"), pa.int64()),
                "n_days": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        grid.map_batches(per_user, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n_days", alias_name="n_days"))
    )


def q_price_spread(sf_dir: str):
    """Per-brand retail price spread (min/max/range in cents) — a pure
    Min/Max combiner where only six ints per (batch, brand) cross the
    shuffle."""
    from ray.data.aggregate import Max, Min

    ds = _pq(sf_dir, "part", columns=["p_brand", "p_retailprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        cents = (df["p_retailprice"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"p_brand": df["p_brand"], "c": cents})
            .groupby("p_brand", sort=False)["c"]
            .agg(["min", "max"])
            .reset_index()
        )
        return pa.table(
            {
                "p_brand": pa.array(g["p_brand"], pa.string()),
                "min_cents": pa.array(g["min"].astype("int64"), pa.int64()),
                "max_cents": pa.array(g["max"].astype("int64"), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("p_brand")
        .aggregate(
            Min("min_cents", alias_name="min_cents"),
            Max("max_cents", alias_name="max_cents"),
        )
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "p_brand": b.column("p_brand"),
                "min_cents": b.column("min_cents"),
                "max_cents": b.column("max_cents"),
                "spread_cents": pc.subtract(
                    b.column("max_cents"), b.column("min_cents")
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_share_by_flag(sf_dir: str):
    """Share-of-total in e4 fixed point: per (returnflag, linestatus),
    quantity share of the grand total. Integer partial sums flow
    through ONE combiner groupby; the grand total and the e4 division
    happen on the O(flag x status) output table, so no second pass over
    the fact table and no float crosses the shuffle."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", columns=["l_returnflag", "l_linestatus", "l_quantity"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        q = df["l_quantity"].round().astype("int64")
        g = (
            pd.DataFrame(
                {
                    "l_returnflag": df["l_returnflag"],
                    "l_linestatus": df["l_linestatus"],
                    "q": q,
                }
            )
            .groupby(["l_returnflag", "l_linestatus"], sort=False)["q"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "l_returnflag": pa.array(g["l_returnflag"], pa.string()),
                "l_linestatus": pa.array(g["l_linestatus"], pa.string()),
                "sum_qty": pa.array(g["q"].astype("int64"), pa.int64()),
            }
        )

    base = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("sum_qty", alias_name="sum_qty"))
        .to_pandas()  # output-scale: |flags x statuses|
    )
    total = int(base["sum_qty"].sum())
    share = (base["sum_qty"] * 10_000) // total
    return pa.table(
        {
            "l_returnflag": pa.array(base["l_returnflag"], pa.string()),
            "l_linestatus": pa.array(base["l_linestatus"], pa.string()),
            "sum_qty": pa.array(base["sum_qty"].astype("int64"), pa.int64()),
            "share_e4": pa.array(share.astype("int64"), pa.int64()),
        }
    )


def q_gap_islands(sf_dir: str, gap_us: int = 1_800_000_000):
    """Gaps-and-islands: per user, the number of activity islands
    (runs of events less than 30 min apart) — count of gaps > threshold
    plus one, computed from ONE vectorized diff per bucket. The
    counting twin of q_session_windows' row expansion."""
    n_bkt = default_buckets()

    def islands(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        ts = g["ts_us"].to_numpy()
        new_user = np.empty(len(u), dtype=bool)
        new_user[0] = True
        new_user[1:] = u[1:] != u[:-1]
        breaks = new_user.copy()
        breaks[1:] |= (ts[1:] - ts[:-1]) >= gap_us
        df = (
            pd.DataFrame({"user_id": u, "b": breaks.astype(np.int64)})
            .groupby("user_id", sort=False)["b"]
            .sum()
            .reset_index(name="n_islands")
        )
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "n_islands": df["n_islands"].astype("int64"),
            }
        )

    return (
        _events_bucketized(sf_dir, n_bkt)
        .groupby("__b")
        .map_groups(islands, batch_format="pandas")
    )


# ------------------------------------------------------- r4 wave 5 ------
def q_pareto_share(sf_dir: str):
    """Pareto concentration: how much of total revenue the top decile
    of customers holds. Per-customer revenue collapses via the combiner
    groupby; the decile threshold is the EXACT discrete 0.9-quantile
    (quantile_disc semantics: sorted[ceil(0.9 n)-1]) selected with one
    np.partition over the |customers| int64 vector — driver contact is
    bounded at 8 bytes/customer (swap for a distributed selection
    beyond ~10^8 customers; the sketch path is q_grouped_tdigest).
    Ties at the threshold count as top on both sides (rev >= thr)."""
    from ray.data.aggregate import Sum

    per_cust = (
        _per_cust_revenue_partials(sf_dir)
        .groupby("o_custkey")
        .aggregate(Sum("rev", alias_name="rev"))
        .to_pandas()["rev"]
        .to_numpy()
    )
    n = per_cust.shape[0]
    k = int(np.ceil(0.9 * n)) - 1
    thr = int(np.partition(per_cust, k)[k])
    top = per_cust[per_cust >= thr]
    total = int(per_cust.sum())
    return pa.table(
        {
            "n_customers": pa.array([n], pa.int64()),
            "n_top": pa.array([int(top.shape[0])], pa.int64()),
            "threshold_cents": pa.array([thr], pa.int64()),
            "top_share_e4": pa.array(
                [int(top.sum()) * 10_000 // total], pa.int64()
            ),
        }
    )


def q_monthly_priority(sf_dir: str):
    """Calendar-correct month bucketing (leap years and all): order
    counts per (YYYY-MM, priority). The month string comes from the
    SAME calendar on both sides (pandas dt.strftime twin of DuckDB
    strftime) — not an epoch approximation — and flows through the
    standard combiner."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_orderdate", "o_orderpriority"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        month = df["o_orderdate"].dt.strftime("%Y-%m")
        g = (
            pd.DataFrame({"month": month, "o_orderpriority": df["o_orderpriority"]})
            .groupby(["month", "o_orderpriority"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "month": pa.array(g["month"], pa.string()),
                "o_orderpriority": pa.array(g["o_orderpriority"], pa.string()),
                "n_orders": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["month", "o_orderpriority"])
        .aggregate(Sum("n_orders", alias_name="n_orders"))
    )


def q_repeat_rate(sf_dir: str):
    """Repeat-purchase rate: one scalar row — users with >= 2 purchase
    events over users with >= 1, in e4. Per-batch (user, n_purchases)
    partials -> one groupby -> two counts on the output-scale table.
    The fact table is scanned once and never re-shuffled."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["user_id", "event_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df = df[df["event_type"] == "purchase"]
        g = df.groupby("user_id", sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "user_id": pa.array(g["user_id"].astype("int64"), pa.int64()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    per_user = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # output-scale: |purchasing users|
    )
    buyers = int(len(per_user))
    repeat = int((per_user["n"] >= 2).sum())
    return pa.table(
        {
            "n_buyers": pa.array([buyers], pa.int64()),
            "n_repeat": pa.array([repeat], pa.int64()),
            "repeat_rate_e4": pa.array(
                [repeat * 10_000 // buyers if buyers else 0], pa.int64()
            ),
        }
    )


def q_brand_type_matrix(sf_dir: str):
    """Brand x type-family part counts where the family is the FIRST
    word of p_type — identical split_part / str-split token on both
    sides — via the standard combiner."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "part", columns=["p_brand", "p_type"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        fam = df["p_type"].str.split(" ").str[0]
        g = (
            pd.DataFrame({"p_brand": df["p_brand"], "type_family": fam})
            .groupby(["p_brand", "type_family"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "p_brand": pa.array(g["p_brand"], pa.string()),
                "type_family": pa.array(g["type_family"], pa.string()),
                "n_parts": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["p_brand", "type_family"])
        .aggregate(Sum("n_parts", alias_name="n_parts"))
    )


def q_hourly_heatmap(sf_dir: str, day_us: int = 86_400_000_000,
                     hour_us: int = 3_600_000_000):
    """Weekday x hour activity heatmap from raw epoch integers (the
    same timezone-trap-free arithmetic as q_weekday_activity):
    dow = ((days+4) % 7), hour = (epoch_us // 3600e6) % 24."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["ts"])

    def partial(batch: pa.Table) -> pa.Table:
        ts = batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
        dow = ((ts // day_us) + 4) % 7
        hour = (ts // hour_us) % 24
        g = (
            pd.DataFrame({"dow": dow, "hour": hour})
            .groupby(["dow", "hour"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "dow": pa.array(g["dow"].astype("int64"), pa.int64()),
                "hour": pa.array(g["hour"].astype("int64"), pa.int64()),
                "n_events": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["dow", "hour"])
        .aggregate(Sum("n_events", alias_name="n_events"))
    )


def q_props_stats(sf_dir: str):
    """Grouped stats over a JSON-extracted property: per event type,
    count / integer-avg / max of props.$.k. The extraction is one
    vectorized C-regex per batch (the props schema is the fixture's
    {"k": int}); the SQL twin uses json_extract — identical integers
    either way, then the standard combiner."""
    from ray.data.aggregate import Max, Sum

    ds = _pq(sf_dir, "events", columns=["event_type", "props"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        k = df["props"].str.extract(r'"k":\s*(-?\d+)', expand=False).astype("int64")
        g = (
            pd.DataFrame({"event_type": df["event_type"], "k": k})
            .groupby("event_type", sort=False)["k"]
            .agg(["count", "sum", "max"])
            .reset_index()
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "n": pa.array(g["count"].astype("int64"), pa.int64()),
                "s": pa.array(g["sum"].astype("int64"), pa.int64()),
                "mx": pa.array(g["max"].astype("int64"), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("s", alias_name="s"),
            Max("mx", alias_name="mx"),
        )
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "event_type": b.column("event_type"),
                "n_events": b.column("n"),
                "avg_k": pc.cast(pc.divide(b.column("s"), b.column("n")), pa.int64()),
                "max_k": b.column("mx"),
            }
        ),
        batch_format="pyarrow",
    )


def q_name_tokens(sf_dir: str, k: int = 20):
    """Global top-k tokens of part names: (token, n) combiner partials
    -> one vocab-bounded groupby -> top-k with (n DESC, token ASC)
    deterministic ties on the O(vocab) output table."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "part", columns=["p_name"])

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column("p_name").to_pandas()
        toks = s.str.split(" ").explode()
        g = toks.value_counts().reset_index()
        g.columns = ["token", "n"]
        return pa.table(
            {
                "token": pa.array(g["token"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # output-scale: |token vocab|
        .sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        .head(k)
        .reset_index(drop=True)
    )
    counts["rk"] = np.arange(1, len(counts) + 1, dtype=np.int64)
    return pa.table(
        {
            "token": pa.array(counts["token"], pa.string()),
            "n": pa.array(counts["n"].astype("int64"), pa.int64()),
            "rk": pa.array(counts["rk"], pa.int64()),
        }
    )


def q_status_year_revenue(sf_dir: str):
    """Year x order-status revenue (calendar year via the same strftime
    twins as q_monthly_priority), standard combiner."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_orderdate", "o_orderstatus", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        year = df["o_orderdate"].dt.strftime("%Y")
        cents = (df["o_totalprice"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"year": year, "o_orderstatus": df["o_orderstatus"], "c": cents})
            .groupby(["year", "o_orderstatus"], sort=False)["c"]
            .agg(["count", "sum"])
            .reset_index()
        )
        return pa.table(
            {
                "year": pa.array(g["year"], pa.string()),
                "o_orderstatus": pa.array(g["o_orderstatus"], pa.string()),
                "n_orders": pa.array(g["count"].astype("int64"), pa.int64()),
                "revenue_cents": pa.array(g["sum"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["year", "o_orderstatus"])
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
    )


def q_first_purchase(sf_dir: str):
    """ARGMIN-by-order: per user, the value of their FIRST purchase
    event under (ts, event_id) ordering. Purchases are filtered at the
    read (predicate + column pruning), one bucket shuffle on user_id,
    and the first-row selection is the same vectorized boundary mask
    as q_first_last — no per-user loop, no window materialization."""
    n_bkt = default_buckets()

    def first(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts_us", "event_id"], kind="mergesort")
        u = g["user_id"].to_numpy()
        mask = np.empty(len(u), dtype=bool)
        mask[0] = True
        mask[1:] = u[1:] != u[:-1]
        return pd.DataFrame(
            {
                "user_id": u[mask].astype("int64"),
                "first_value_cents": g["cents"].to_numpy()[mask].astype("int64"),
            }
        )

    return (
        _events_bucketized(sf_dir, n_bkt, cents=True, filter_type="purchase")
        .groupby("__b")
        .map_groups(first, batch_format="pandas")
    )


# ------------------------------------------------ distinct coverage curve --
def q_distinct_growth(sf_dir: str, day_us: int = 86_400_000_000):
    """Cumulative distinct-coverage curve (the crawl-monitoring chart:
    how many NEW distinct users/hosts/URLs each day adds, and the
    running total — a flattening curve means the frontier is recrawling,
    not discovering). Per day: the count of users whose FIRST-ever event
    lands on that day, plus the running cumulative.

    Scale shape: first-seen day is a per-user MIN — each batch emits one
    (user, local_min_day) partial, ONE bucketed shuffle (user % B)
    resolves the global min vectorized per bucket (the q_retention
    layout), and the day-grain count table that leaves the exchange is
    CALENDAR-bounded (a 10-year crawl is ~3.7k rows), so the running sum
    is a driver cumsum by definition of the output grain."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["user_id", "ts"])
    n_buckets = default_buckets()

    def partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        day = (
            batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // day_us
        )
        order = np.lexsort((day, uid))
        uid, day = uid[order], day[order]
        first = np.r_[True, uid[1:] != uid[:-1]]
        u, dmin = uid[first], day[first]
        return pa.table(
            {
                "b": pa.array((u % n_buckets).astype(np.int32), pa.int32()),
                "user_id": pa.array(u, pa.int64()),
                "day": pa.array(dmin, pa.int64()),
            }
        )

    def bucket_first(g: pd.DataFrame) -> pd.DataFrame:
        m = g.groupby("user_id", sort=False)["day"].min()
        cnt = m.value_counts().sort_index()
        return pd.DataFrame(
            {"day": cnt.index.to_numpy(np.int64),
             "new_users": cnt.to_numpy(np.int64)}
        )

    days = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .map_groups(bucket_first, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("new_users", alias_name="new_users"))
    ).to_pandas()  # calendar-bounded by definition
    days = days.sort_values("day").reset_index(drop=True)
    days["cum_users"] = days["new_users"].cumsum().astype(np.int64)
    return days


# ----------------------------------------------------- burst detection ----
def q_burst_detect(sf_dir: str, day_us: int = 86_400_000_000):
    """Volume-burst detection per event type (the trap/hot-topic tripwire
    a crawl scheduler watches: a host or topic whose daily volume spikes
    against its trailing-3-day mean gets throttled or prioritized). Per
    type, the TOP-3 burstiest days by n / sum(previous 3 days) over a
    COMPLETE consecutive-day trailing window — the ratio is one IEEE
    division of the same two int64s on both sides, so the DuckDB window
    twin orders identically (day tie-break), and a top-k (unlike a fixed
    threshold) stays calibrated as volume smooths with scale.

    Scale shape: the per-(type, day) counts reduce via the combiner
    (one partial row per batch-type-day), and the lag/rank logic runs on
    the count table, which is (#types x calendar)-bounded — never
    event-scale; per-type Python is O(#types)."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_type", "ts"])

    def partial(batch: pa.Table) -> pa.Table:
        et = batch.column("event_type").to_pandas()
        day = (
            batch.column("ts").cast(pa.int64()).to_numpy(zero_copy_only=False)
            // day_us
        )
        g = (
            pd.DataFrame({"event_type": et, "day": day})
            .groupby(["event_type", "day"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "event_type": pa.array(g["event_type"], pa.string()),
                "day": pa.array(g["day"].to_numpy(np.int64), pa.int64()),
                "n": pa.array(g["n"].to_numpy(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["event_type", "day"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def bursts(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("day", kind="mergesort").reset_index(drop=True)
        n = g["n"].to_numpy(np.int64)
        days = g["day"].to_numpy(np.int64)
        prev3 = np.full(len(g), -1, np.int64)
        if len(g) >= 4:
            # complete trailing window = three CONSECUTIVE calendar days
            consec = (
                (days[3:] - days[2:-1] == 1)
                & (days[2:-1] - days[1:-2] == 1)
                & (days[1:-2] - days[:-3] == 1)
            )
            sums = n[:-3] + n[1:-2] + n[2:-1]
            prev3[3:] = np.where(consec, sums, -1)
        mask = prev3 > 0
        out = pd.DataFrame(
            {
                "event_type": g["event_type"].to_numpy()[mask],
                "day": days[mask],
                "n": n[mask],
                "prev3": prev3[mask],
            }
        )
        out["__r"] = out["n"].to_numpy(np.float64) / out["prev3"].to_numpy(
            np.float64
        )
        out = out.sort_values(
            ["__r", "day"], ascending=[False, True], kind="mergesort"
        ).head(3)
        return out.drop(columns="__r")

    return counts.groupby("event_type").map_groups(bursts, batch_format="pandas")


def q_month_over_month(sf_dir: str):
    """Month-over-month revenue deltas — the LAG-window trend report
    (growth dashboards, crawl-volume drift alarms): monthly revenue in
    exact cents, the previous month's value (0 for the first month),
    and the signed delta. The month string is the calendar-correct
    pandas strftime twin of DuckDB strftime (q_monthly_priority's
    convention) and every value is int64 cents, so LAG and subtraction
    are exact on both sides.

    Scale shape: per-batch partial (month, cents) groupby -> ONE
    combiner groupby over month-bounded partials -> the LAG itself runs
    on the months table, which IS this operator's output (dozens of
    rows at any corpus size), so driver contact is output-scale."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "orders", columns=["o_orderdate", "o_totalprice"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        month = df["o_orderdate"].dt.strftime("%Y-%m")
        cents = (df["o_totalprice"] * 100).round().astype("int64")
        g = (
            pd.DataFrame({"month": month, "cents": cents})
            .groupby("month", sort=False)["cents"]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "month": pa.array(g["month"], pa.string()),
                "revenue_e2": pa.array(g["cents"].astype("int64"), pa.int64()),
            }
        )

    months = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("month")
        .aggregate(Sum("revenue_e2", alias_name="revenue_e2"))
        .to_pandas()  # months-bounded: the operator's OUTPUT scale
        .sort_values("month", kind="mergesort")
        .reset_index(drop=True)
    )
    prev = months["revenue_e2"].shift(1, fill_value=0).astype("int64")
    return pa.table(
        {
            "month": pa.array(months["month"], pa.string()),
            "revenue_e2": pa.array(months["revenue_e2"].astype("int64"), pa.int64()),
            "prev_revenue_e2": pa.array(prev, pa.int64()),
            "delta_e2": pa.array(
                (months["revenue_e2"] - prev).astype("int64"), pa.int64()
            ),
        }
    )


def q_dedup_cluster_hist(sf_dir: str):
    """Duplicate-cluster size profile — the corpus-card histogram
    (cluster_size, n_clusters) over exact text duplicates: size 1 =
    unique docs, the tail shows how pathological the duplication is
    (Lee et al. 2022 report exactly this curve before/after dedup).

    Layout: per-batch partial (text, n) counts collapse each block's
    repeats before the shuffle (combiner), ONE groupby on text merges
    partials (grouping by the text itself keeps exactness — no hash
    collision caveat), and the histogram reduce runs over cluster
    SIZES (tiny int domain). Only distinct texts cross the wire."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("text", sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "text": pa.array(g["text"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    sizes = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("text")
        .aggregate(Sum("n", alias_name="n"))
    )

    def to_hist(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        ids, cnt = np.unique(n, return_counts=True)
        return pa.table(
            {
                "cluster_size": pa.array(ids, pa.int64()),
                "n_clusters": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        sizes.map_batches(to_hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster_size")
        .aggregate(Sum("n_clusters", alias_name="n_clusters"))
    )
