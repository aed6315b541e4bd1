"""Relational operator pipelines over the driver testdata tables —
the DuckDB-oracled twins (SURVEY.md §5.3).

Each function takes ``sf_dir`` and returns a Dataset / Arrow table whose
column NAMES match the oracle SQL exactly (the driver hashes values after
sorting columns by name). Float aggregates are rounded on BOTH sides so
summation order can't break the value hash.

Patterns exercised (with their 100-TB rationale):
- bucketed vectorized first-per-key dedup (q_dedup_first) — O(buckets)
  Python calls, not O(groups);
- broadcast hash join (q_small_qty_revenue) — ``ray.put`` the small
  side once, probe per batch, no shuffle;
- column pruning at the read for every query.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..runtime import arrow_blocks, default_buckets, join_partitions, tune_join_resources
from ..stages.dedup import dedup_first


def _pq(sf_dir: str, name: str, columns=None):
    return ray.data.read_parquet(
        os.path.join(sf_dir, f"{name}.parquet"), columns=columns
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


# ----------------------------------------------------------- range join --
RANGE_BANDS = [0.0, 1000.0, 5000.0, 20000.0, 75000.0, 150000.0, 300000.0]


def q_range_join(sf_dir: str):
    """Range (interval) join: each order matched to the price band whose
    [lo, hi) interval contains its total price. The band table is tiny —
    broadcast the sorted boundaries once and resolve the interval with a
    vectorized searchsorted per batch; the fact table never shuffles.
    This is the general small-interval-table range-join layout."""
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


# ------------------------------------------------ last-touch attribution
def q_attribution(sf_dir: str, window_us: int = 3_600_000_000):
    """LAST-TOUCH ATTRIBUTION: for every 'purchase', the most recent
    'click' by the same user STRICTLY within the preceding hour — the
    tolerance-bounded as-of self-join every conversion pipeline runs
    (an as-of lookup + a window bound + a deterministic tie-break). Purchases with no qualifying click drop out (inner
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


def q_transition_counts(sf_dir: str, n_buckets: int | None = None):
    """Per-user consecutive event-type TRANSITION counts (the Markov
    transition matrix a session/recrawl model estimates from): for each
    user's ts-ordered event stream, count (prev_type -> next_type)
    adjacencies globally. Deterministic: ties in ts break on event_id,
    matching the SQL LEAD() twin exactly.

    One bucketed shuffle on hash(user) % B co-locates each user's rows
    (q_attribution's layout); the per-bucket body is one mergesort +
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


def q_doc_stats_by_lang(sf_dir: str):
    """Per-language corpus profile with an EXACT distinct-source count:
    batches emit (lang, source, n_docs, sum_chars, max_chars) partials,
    one groupby collapses them to the (lang, source) grid, and the
    language rollup (count / integer-avg / max / distinct sources)
    reads off that output-scale grid — a two-level exact-distinct
    shape fused with the stats combiner."""
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
