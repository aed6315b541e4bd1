"""Crawl-web operators beyond the frontier core: sitemap ingestion,
crawl-trap detection, adaptive recrawl scheduling, and fair-share host
budget allocation.

These are the scheduler-brain features a production crawler layers on
top of seen/politeness/priority (heroshi's manager holds equivalent
host-level state; no reference code exists to cite — SURVEY.md §0, so
semantics follow the public specs/literature named per operator). All
four are deterministic and DuckDB-oracled: the synthetic URL/fetch-
history feeds are fixed string templates over the testdata tables, so
the SQL twin reconstructs the expected output with plain string/window
arithmetic while the engine runs the real parsing/counting path.

Scale notes (100 TB):
- q_sitemap_extract never shuffles: documents are built and parsed
  inside one map_batches chain; output streams.
- q_trap_detect uses the salted two-level exact-distinct layout:
  per-batch local dedup, ONE shuffle on
  (host, kind, salt) so a trap host's URL space never lands in one
  group, per-salt vectorized nunique, tiny (host,kind) sum.
- q_recrawl_schedule buckets by user hash; per-bucket work is a numpy
  lexsort + segment reduction. One shuffle, payload = 4 columns.
- q_host_quota reduces to per-host counts (combiner groupby). The
  waterline solve touches only the host-count table — the operator's
  OUTPUT — so driver contact is output-scale by construction.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.hashing import hash64
from ..functions.sitemap import parse_urlset
from ..runtime import default_buckets, join_partitions, tune_join_resources
from ..sources.io import _pq

_XML_HEAD = (
    '<?xml version="1.0" encoding="UTF-8"?>\n'
    '<urlset xmlns="http://www.sitemaps.org/schemas/sitemap/0.9">\n'
)


# ------------------------------------------------------------ sitemaps ---
def q_sitemap_extract(sf_dir: str):
    """Sitemap ingestion (sitemaps.org protocol): synthesize per-host
    `<urlset>` XML documents from the orders table (fixed template:
    host from o_custkey, loc from o_orderkey, lastmod from o_orderdate,
    priority from o_orderkey%10), then run the REAL namespace-aware XML
    parser over them. The oracle reconstructs the expected rows with
    string concatenation — the build->parse round trip is what's
    checked. Zero shuffle: docs are assembled per batch per host and
    parsed in the next map; document boundaries don't affect the output
    set."""
    ds = _pq(
        sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_orderdate"]
    )

    def build_docs(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        host = "host" + (df["o_custkey"] % 50).astype(str) + ".example"
        entry = (
            "<url><loc>http://"
            + host
            + "/o/"
            + df["o_orderkey"].astype(str)
            + "</loc><lastmod>"
            + df["o_orderdate"].dt.strftime("%Y-%m-%d")
            + "</lastmod><priority>0."
            + (df["o_orderkey"] % 10).astype(str)
            + "</priority></url>"
        )
        docs = entry.groupby(host.to_numpy()).apply("\n".join)
        xml = _XML_HEAD + docs + "\n</urlset>"
        return pa.table({"xml": pa.array(xml.to_numpy(), pa.string())})

    def parse_docs(batch: pa.Table) -> pa.Table:
        locs, hosts, lastmods, prios = [], [], [], []
        for xml in batch.column("xml").to_pylist():
            for loc, host, lastmod, pe1 in parse_urlset(xml):
                locs.append(loc)
                hosts.append(host)
                lastmods.append(lastmod)
                prios.append(pe1)
        return pa.table(
            {
                "loc": pa.array(locs, pa.string()),
                "host": pa.array(hosts, pa.string()),
                "lastmod": pa.array(lastmods, pa.string()),
                "priority_e1": pa.array(prios, pa.int64()),
            }
        )

    return ds.map_batches(build_docs, batch_format="pyarrow").map_batches(
        parse_docs, batch_format="pyarrow"
    )


# ---------------------------------------------------------- trap detect ---
def q_trap_detect(
    sf_dir: str,
    n_hosts: int = 64,
    trap_ratio_e2: int = 10_000,
    driver_fact_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """Crawl-trap detection: hosts whose distinct-URL space explodes
    relative to its distinct URL-TEMPLATE space (digit runs collapsed
    to `{N}`) are URL-generating traps — calendars, faceted search,
    session-id paths (the standard heuristic in crawler literature,
    e.g. Heydon & Najork, "Mercator: A scalable, extensible Web
    crawler", 1999 §4.2's URL-space concerns). A host is flagged when
    distinct_urls/distinct_templates >= trap_ratio_e2/100.

    Exact distinct counts via the salted two-level layout: per-batch
    dedup, shuffle on (host, kind, key-salt) — disjoint key ranges per
    salt, so per-salt nunique sums are exact and no single group ever
    holds a trap host's full URL set. Output is host-count-sized.

    Size-adaptive (gated on the EXACT lineitem parquet row count): under
    ``driver_fact_max`` rows the per-block deduped (host, kind, key)
    partials combine in one driver drop_duplicates + groupby-size pass
    instead of the two chained string shuffles (with the polars to_keys
    kernel and the split read: profiled 2.8 s -> 1.5 s at sf0.1);
    above the gate (or force_distributed) the salted layout runs
    unchanged. Forks equivalence-tested."""
    from ray.data.aggregate import Sum

    B = default_buckets()
    ds = _pq(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
        split=True,  # single parquet file otherwise serializes to_keys onto one task
    )

    def to_keys(batch: pa.Table) -> pa.Table:
        # all-polars string building: pl.format + unique is ~6x faster
        # than the pandas astype(str) concat this replaced (profiled
        # 1.1 s -> 0.17 s per 600k-row block)
        import polars as pl

        d = pl.from_arrow(batch)
        hk = pl.col("l_suppkey") % n_hosts
        url = (
            pl.when((pl.col("l_linenumber") % 2) == 1)
            .then(pl.format("http://h{}.example/item/{}", hk, pl.col("l_partkey")))
            .otherwise(
                pl.format(
                    "http://h{}.example/p{}/v{}",
                    hk,
                    pl.col("l_partkey"),
                    pl.col("l_orderkey"),
                )
            )
        )
        sub = d.select(
            pl.format("h{}.example", hk).alias("host"), url.alias("url")
        ).unique(subset="url", keep="any")
        # kind 0 rows count distinct urls, kind 1 rows distinct templates
        urls = sub.select(
            pl.col("host"),
            pl.lit(0).cast(pl.Int32).alias("kind"),
            pl.col("url").alias("key"),
        )
        tmpl = sub.select(
            pl.col("host"),
            pl.lit(1).cast(pl.Int32).alias("kind"),
            pl.col("url").str.replace_all(r"[0-9]+", "{N}").alias("key"),
        ).unique()
        both = pl.concat([urls, tmpl])
        salt = (hash64(both["key"].to_list()) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "host": both["host"].to_arrow().cast(pa.string()),
                "kind": both["kind"].to_arrow().cast(pa.int32()),
                "key": both["key"].to_arrow().cast(pa.string()),
                "__salt": pa.array(salt, pa.int32()),
            }
        )

    def nunique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [g["host"].iloc[0]],
                "kind": np.array([g["kind"].iloc[0]], np.int32),
                "n": np.array([g["key"].nunique()], np.int64),
            }
        )

    import pyarrow.parquet as _pqt

    li_rows = _pqt.read_metadata(
        os.path.join(sf_dir, "lineitem.parquet")
    ).num_rows

    if li_rows <= driver_fact_max and not force_distributed:
        # per-block partials are already key-deduped; <= li_rows rows
        # reach the driver (bounded by the gate), one vectorized pass
        parts = ds.map_batches(to_keys, batch_format="pyarrow").to_pandas()
        counts = (
            parts.drop_duplicates(["host", "kind", "key"])
            .groupby(["host", "kind"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
    else:
        counts = (
            ds.map_batches(to_keys, batch_format="pyarrow")
            .groupby(["host", "kind", "__salt"])
            .map_groups(nunique, batch_format="pandas")
            .groupby(["host", "kind"])
            .aggregate(Sum("n", alias_name="n"))
            .to_pandas()  # host-count-sized (2 rows per host)
        )
    wide = counts.pivot(index="host", columns="kind", values="n").reset_index()
    n_urls = wide[0].astype(np.int64)
    n_tmpl = wide[1].astype(np.int64)
    ratio = n_urls * 100 // n_tmpl
    return pa.table(
        {
            "host": pa.array(wide["host"], pa.string()),
            "n_urls": pa.array(n_urls, pa.int64()),
            "n_templates": pa.array(n_tmpl, pa.int64()),
            "ratio_e2": pa.array(ratio, pa.int64()),
            "is_trap": pa.array(
                (ratio >= trap_ratio_e2).astype(np.int64), pa.int64()
            ),
        }
    )


# ------------------------------------------------------ recrawl schedule ---
def q_recrawl_schedule(
    sf_dir: str,
    min_interval_s: int = 3_600,
    max_interval_s: int = 2_592_000,
    n_buckets: int | None = None,
):
    """Adaptive revisit scheduling (D4's policy core): estimate each
    page's change rate from its fetch history and set the next revisit
    interval to span/changes, clamped — the uniform-allocation shape of
    Cho & Garcia-Molina, "Effective page refresh policies for web
    crawlers" (TODS 2003). The events table stands in as fetch history
    (user_id = page, ts = fetch time, value = content signature); a
    change is value != previous value in (ts, event_id) order.

    One shuffle on a user-hash bucket; per-bucket work is a pandas
    sort + shift + segment sum over that bucket's rows only. Integer
    arithmetic end-to-end (epoch seconds, floor division) so the
    DuckDB window twin hash-matches."""
    B = n_buckets or default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id", "value"])

    def add_bucket(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        b = (u.astype(np.uint64) % np.uint64(B)).astype(np.int32)
        return batch.append_column("__b", pa.array(b, pa.int32()))

    def schedule(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["user_id", "ts", "event_id"], kind="mergesort")
        pv = g.groupby("user_id", sort=False)["value"].shift()
        changed = pv.notna() & (g["value"] != pv)
        ts_us = g["ts"].astype("int64").to_numpy()
        agg = pd.DataFrame(
            {
                "user_id": g["user_id"],
                "changed": changed.astype(np.int64),
                "ts_us": ts_us,
            }
        ).groupby("user_id", sort=False)
        out = agg.agg(
            n_fetches=("changed", "size"),
            n_changes=("changed", "sum"),
            first_us=("ts_us", "min"),
            last_us=("ts_us", "max"),
        ).reset_index()
        # span floors AFTER differencing (us diff // 1e6), matching the
        # oracle's (epoch_us(MAX)-epoch_us(MIN)) // 1000000
        span = (out["last_us"] - out["first_us"]) // 1_000_000
        next_s = np.where(
            out["n_changes"] > 0,
            np.clip(span // np.maximum(out["n_changes"], 1), min_interval_s, max_interval_s),
            max_interval_s,
        )
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64"),
                "n_fetches": out["n_fetches"].astype("int64"),
                "n_changes": out["n_changes"].astype("int64"),
                "next_s": next_s.astype("int64"),
            }
        )

    return (
        ds.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(schedule, batch_format="pandas")
    )


# ----------------------------------------------------------- host quota ---
def q_host_quota(sf_dir: str, n_hosts: int = 64, budget_frac_den: int = 3):
    """Fair-share crawl budget allocation across hosts: exact integer
    max-min fairness (water-filling — Bertsekas & Gallager, "Data
    Networks" §6.5.2's max-min allocation, integer waterline variant).
    Given per-host URL demands and a global fetch budget
    G = total_demand // budget_frac_den, find the largest integer level
    L with sum(min(demand, L)) <= G and allocate min(demand, L) — small
    hosts get everything they ask for, hot hosts are capped at the
    waterline, no host can starve another (the politeness scheduler's
    budget input).

    Demands reduce via a combiner groupby (ints only through the
    shuffle); the waterline solve runs on the host-count table, which
    IS this operator's output, so driver contact is output-scale."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", columns=["l_suppkey"])

    def partial(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False)
        cnt = np.bincount(sk % n_hosts, minlength=n_hosts)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "hk": pa.array(nz.astype(np.int64), pa.int64()),
                "demand": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    d = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("hk")
        .aggregate(Sum("demand", alias_name="demand"))
        .to_pandas()  # host-count-sized = output-sized
    )
    hosts = ("h" + d["hk"].astype(str) + ".example").to_numpy()
    demand = d["demand"].to_numpy().astype(np.int64)
    total = int(demand.sum())
    budget = total // budget_frac_den
    n = len(demand)
    order = np.lexsort((hosts, demand))
    ds_sorted = demand[order]
    before = np.concatenate(([0], np.cumsum(ds_sorted)[:-1]))
    rn = np.arange(1, n + 1, dtype=np.int64)
    cand = np.minimum(
        np.maximum(budget - before, 0) // (n - rn + 1), ds_sorted
    )
    level = int(cand.max()) if n else 0
    alloc = np.minimum(demand, level)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "demand": pa.array(demand, pa.int64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


# ------------------------------------------------- tracking-param strip ---
def q_url_strip_params(
    sf_dir: str,
    n_hosts: int = 40,
    driver_fact_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """Tracking-parameter canonicalization (the URL-normalization rule
    every production crawler adds on top of RFC 3986: drop utm_*,
    gclid, fbclid, ref query params, which explode the URL space
    without changing content). Synthesizes raw URLs from the events
    table (fixed template: every raw URL is unique thanks to a
    per-event gclid value), strips tracking params with ONE compiled
    regex pass, and reports per host the raw URL count vs the distinct
    canonical count — the "dup inflation" a crawler avoids by
    canonicalizing before the seen-set.

    Layout: raw counts are a pure combiner groupby (no URL strings
    shuffle); distinct canonical counts use the salted two-level
    exact-distinct layout (q_trap_detect's), so a hot host's canonical
    space never lands in one group. Output is host-count-sized.
    Size-adaptive (q_trap_detect's gate on the EXACT events parquet row
    count): under ``driver_fact_max`` rows both partial streams combine
    on the driver in one vectorized pass each instead of shuffling;
    forks equivalence-tested."""
    import polars as pl

    from ray.data.aggregate import Sum

    B = default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id"])
    strip_re = r"(utm_[a-z]+|gclid|fbclid|ref)=[^&]*&?"

    def to_canon(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        host = "h" + (df["user_id"] % n_hosts).astype(str) + ".example"
        raw = (
            "http://"
            + host
            + "/p/"
            + (df["event_id"] % 500).astype(str)
            + "?utm_source=s"
            + (df["event_id"] % 5).astype(str)
            + "&id="
            + (df["event_id"] % 7).astype(str)
            + "&gclid=g"
            + df["event_id"].astype(str)
        )
        canon = (
            pl.Series(raw.to_numpy())
            .str.replace_all(strip_re, "")
            .str.replace_all(r"[?&]+$", "")
            .to_numpy()
        )
        sub = pd.DataFrame({"host": host, "canon": canon}).drop_duplicates()
        salt = (hash64(sub["canon"].tolist()) % np.uint64(B)).astype(np.int32)
        return pa.table(
            {
                "host": pa.array(sub["host"].to_numpy(), pa.string()),
                "canon": pa.array(sub["canon"].to_numpy(), pa.string()),
                "__salt": pa.array(salt, pa.int32()),
            }
        )

    def nunique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "host": [g["host"].iloc[0]],
                "n": np.array([g["canon"].nunique()], np.int64),
            }
        )

    import pyarrow.parquet as _pqt

    ev_rows = _pqt.read_metadata(os.path.join(sf_dir, "events.parquet")).num_rows
    driver_fork = ev_rows <= driver_fact_max and not force_distributed

    if driver_fork:
        # per-block partials are already (host, canon)-deduped;
        # <= ev_rows rows reach the driver (bounded by the gate)
        parts = ds.map_batches(to_canon, batch_format="pyarrow").to_pandas()
        n_canon = (
            parts.drop_duplicates(["host", "canon"])
            .groupby("host", sort=False)
            .size()
            .rename("n_canon")
            .reset_index()
        )
    else:
        n_canon = (
            ds.map_batches(to_canon, batch_format="pyarrow")
            .groupby(["host", "__salt"])
            .map_groups(nunique, batch_format="pandas")
            .groupby("host")
            .aggregate(Sum("n", alias_name="n_canon"))
            .to_pandas()  # host-count-sized
        )

    def raw_partial(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        cnt = np.bincount(uid % n_hosts, minlength=n_hosts)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "hk": pa.array(nz.astype(np.int64), pa.int64()),
                "c": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    if driver_fork:
        rp = ds.map_batches(raw_partial, batch_format="pyarrow").to_pandas()
        n_raw = (
            rp.groupby("hk", sort=False)["c"].sum().rename("n_raw").reset_index()
        )  # O(hosts x blocks) partial rows — bounded combiner output
    else:
        n_raw = (
            ds.map_batches(raw_partial, batch_format="pyarrow")
            .groupby("hk")
            .aggregate(Sum("c", alias_name="n_raw"))
            .to_pandas()
        )
    n_raw["host"] = "h" + n_raw["hk"].astype(str) + ".example"
    out = n_raw.merge(n_canon, on="host")  # host-count-sized driver join
    inflation = (
        out["n_raw"].to_numpy().astype(np.int64) * 100
        // out["n_canon"].to_numpy().astype(np.int64)
    )
    return pa.table(
        {
            "host": pa.array(out["host"].to_numpy(), pa.string()),
            "n_raw": pa.array(out["n_raw"].to_numpy().astype(np.int64), pa.int64()),
            "n_canon": pa.array(
                out["n_canon"].to_numpy().astype(np.int64), pa.int64()
            ),
            "inflation_e2": pa.array(inflation, pa.int64()),
        }
    )


# ------------------------------------------------------- mirror hosts ---
def q_mirror_detect(sf_dir: str, n_hosts: int = 24, n_classes: int = 8):
    """Mirrored-host detection (Bharat & Broder, "Mirror, mirror on the
    Web", WWW'99 shape): two hosts are mirrors when their DISTINCT
    content-fingerprint sets are equal — a crawler collapses mirrors to
    fetch each content set once. Set equality is decided by a
    3-component set sketch (distinct count, sum, bit-XOR of a
    multiplied fingerprint hash), which is combinable across partitions
    — the full fingerprint set of a host never assembles in one place.
    The DuckDB twin joins on the identical 3-tuple, so even a sketch
    collision (astronomically unlikely, and impossible for this
    fixture's fp space) cannot diverge engine from oracle.

    Layout: per-batch distinct (host, fp) pairs, ONE shuffle on
    (host, fp-salt) — disjoint fp ranges per salt, so per-salt partial
    (n, sum, xor) triples combine exactly — then a host-count-sized
    rollup and an output-scale pair join. Fingerprints are synthesized
    from events with a fixed template (content class = user_id %
    n_classes), so hosts u, u+n_classes, ... are planted mirrors."""
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id"])
    B = default_buckets()

    def to_pairs(batch: pa.Table) -> pa.Table:
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        hk = uid % n_hosts
        fp = (uid % n_classes) * 100 + eid % 20
        sub = pd.DataFrame({"hk": hk, "fp": fp}).drop_duplicates()
        return pa.table(
            {
                "hk": pa.array(sub["hk"].to_numpy().astype(np.int64), pa.int64()),
                "fp": pa.array(sub["fp"].to_numpy().astype(np.int64), pa.int64()),
                "__salt": pa.array(
                    (sub["fp"].to_numpy() % B).astype(np.int32), pa.int32()
                ),
            }
        )

    def sketch(g: pd.DataFrame) -> pd.DataFrame:
        fp = np.unique(g["fp"].to_numpy().astype(np.int64))
        hx = fp * np.int64(2654435761) % np.int64(9223372036854775807)
        return pd.DataFrame(
            {
                "hk": g["hk"].iloc[:1].to_numpy().astype(np.int64),
                "n": np.array([len(fp)], np.int64),
                "sm": np.array([fp.sum()], np.int64),
                "bx": np.array([np.bitwise_xor.reduce(hx)], np.int64),
            }
        )

    def combine(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "hk": g["hk"].iloc[:1].to_numpy().astype(np.int64),
                "n": np.array([g["n"].sum()], np.int64),
                "sm": np.array([g["sm"].sum()], np.int64),
                "bx": np.array(
                    [np.bitwise_xor.reduce(g["bx"].to_numpy().astype(np.int64))],
                    np.int64,
                ),
            }
        )

    s = (
        ds.map_batches(to_pairs, batch_format="pyarrow")
        .groupby(["hk", "__salt"])
        .map_groups(sketch, batch_format="pandas")
        .groupby("hk")
        .map_groups(combine, batch_format="pandas")
        .to_pandas()  # host-count-sized = output-scale
    )
    s["host"] = "m" + s["hk"].astype(str) + ".example"
    m = s.merge(s, on=["n", "sm", "bx"], suffixes=("_a", "_b"))
    m = m[m["host_a"] < m["host_b"]].sort_values(["host_a", "host_b"])
    return pa.table(
        {
            "host_a": pa.array(m["host_a"].to_numpy(), pa.string()),
            "host_b": pa.array(m["host_b"].to_numpy(), pa.string()),
        }
    )


# ------------------------------------------------- frontier compaction ---
def q_frontier_compact(sf_dir: str, n_hosts: int = 64):
    """Frontier-checkpoint compaction: a long crawl accumulates many
    records per SURT across epochs (rediscoveries at different
    priorities/depths); compaction keeps ONE winner per surt — highest
    priority, ties to the oldest discovery — plus the merge count, so
    checkpoint reads stay O(live frontier) instead of O(history). The
    record feed is synthesized from lineitem by a fixed template so the
    DuckDB twin (row_number + count window) hash-checks the exact
    winner set.

    Layout: ONE shuffle on hash(surt)%B (the frontier's standing
    partition key), per-bucket vectorized lexsort + first-per-key +
    segment counts. No global sort, no driver contact beyond the
    output."""
    B = default_buckets()
    ds = _pq(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_partkey", "l_suppkey", "l_linenumber"],
    )

    def to_records(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        surt = (
            "com,h"
            + (df["l_suppkey"] % n_hosts).astype(str)
            + ")/p"
            + (df["l_partkey"] % 997).astype(str)
        )
        return pa.table(
            {
                "surt": pa.array(surt.to_numpy(), pa.string()),
                "pri": pa.array(
                    (df["l_orderkey"] % 9973).to_numpy().astype(np.int64),
                    pa.int64(),
                ),
                "okey": pa.array(
                    df["l_orderkey"].to_numpy().astype(np.int64), pa.int64()
                ),
                "depth": pa.array(
                    (df["l_linenumber"] % 8).to_numpy().astype(np.int64),
                    pa.int64(),
                ),
                "__b": pa.array(
                    (hash64(surt.tolist()) % np.uint64(B)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def compact(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["surt", "pri", "okey", "depth"],
            ascending=[True, False, True, True],
            kind="mergesort",
        )
        n = g.groupby("surt", sort=False)["pri"].transform("size")
        first = ~g["surt"].duplicated()
        out = g.loc[first, ["surt", "pri", "okey", "depth"]].copy()
        out["n_merged"] = n[first].to_numpy().astype(np.int64)
        return out.rename(
            columns={"pri": "priority", "okey": "src_okey"}
        ).reset_index(drop=True)

    return (
        ds.map_batches(to_records, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(compact, batch_format="pandas")
    )


# ------------------------------------------------- anchor aggregation ---
def q_anchor_agg(sf_dir: str, n_targets: int = 200, n_anchors: int = 30):
    """Anchor-text aggregation per link target (the classic web-IR
    signal — Brin & Page '98 §2.2: anchors describe the TARGET page;
    every indexer aggregates them at crawl time): per target page, the
    inbound-link count, distinct-anchor count, and the modal anchor
    with a deterministic (count DESC, anchor ASC) tie-break. The link
    feed is synthesized from orders by a fixed template so the DuckDB
    window twin hash-checks the exact rollup.

    Layout: per-batch combiner (target, anchor) counts, ONE shuffle on
    hash(target)%B co-locates each target's anchor profile, per-bucket
    vectorized two-level rollup (sum / nunique / argmax). Anchor
    profiles per target are vocabulary-bounded in practice; a hot
    target's profile still fits its bucket because it arrives
    pre-combined per block."""
    from ray.data.aggregate import Sum  # noqa: F401  (layout note)

    B = default_buckets()
    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def combine(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
        ck = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        key = (ok % n_targets) * n_anchors + (ck % n_anchors)
        u, c = np.unique(key, return_counts=True)
        tgt = u // n_anchors
        return pa.table(
            {
                "target": pa.array(
                    np.char.add("p", tgt.astype(str)).astype(object), pa.string()
                ),
                "anchor": pa.array(
                    np.char.add("w", (u % n_anchors).astype(str)).astype(object),
                    pa.string(),
                ),
                "n": pa.array(c.astype(np.int64), pa.int64()),
                "__b": pa.array(
                    (tgt.astype(np.uint64) % np.uint64(B)).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        # partials for the same (target, anchor) merge here, then the
        # per-target argmax applies the (n DESC, anchor ASC) tie-break
        agg = (
            g.groupby(["target", "anchor"], sort=False)["n"].sum().reset_index()
        )
        agg = agg.sort_values(
            ["target", "n", "anchor"], ascending=[True, False, True],
            kind="mergesort",
        )
        first = ~agg["target"].duplicated()
        tot = agg.groupby("target", sort=False)["n"].agg(["sum", "size"])
        out = agg[first][["target", "anchor", "n"]].rename(
            columns={"anchor": "top_anchor", "n": "top_n"}
        )
        out = out.merge(
            tot.rename(columns={"sum": "n_links", "size": "n_anchors"}),
            left_on="target",
            right_index=True,
        )
        return out[["target", "n_links", "n_anchors", "top_anchor", "top_n"]].astype(
            {"n_links": "int64", "n_anchors": "int64", "top_n": "int64"}
        )

    return (
        ds.map_batches(combine, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(rollup, batch_format="pandas")
    )


def q_crawl_delta(sf_dir: str):
    """Recrawl snapshot reconciliation — the delta report every
    incremental crawler computes between epoch N-1 and epoch N of the
    same URL space: which pages are NEW, GONE, CHANGED (content digest
    moved) or UNCHANGED. Heroshi-class crawlers drive revisit
    scheduling and index invalidation off exactly this join.

    Snapshot A = the documents table (doc_id, md5(text)); snapshot B is
    a FIXED deterministic mutation the DuckDB twin reconstructs: docs
    with doc_id%7==0 change (text||'x'), docs with doc_id%13==0 drop
    out, and every doc_id%17==0 also reappears as a brand-new page at
    doc_id+1000000 (the q_pii_redact template-fixture pattern). Digests
    are md5 hex — hashlib and DuckDB md5() agree byte-for-byte, which
    is the point: at 100 TB you diff DIGESTS, never text.

    Scale shape: a full outer join by bucketed shuffle — both snapshots
    stream to (doc_id, digest, side) rows, ONE bucketed shuffle on
    doc_id moves 32-byte digests (never text), per-bucket vectorized
    pandas outer merge emits the status. Output: (doc_id, status)."""
    import hashlib

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def snapshots(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out_id, out_h, out_side = [], [], []
        for i, t in zip(ids, texts):
            i = int(i)
            h = hashlib.md5(t.encode()).hexdigest()
            out_id.append(i); out_h.append(h); out_side.append(0)  # A
            if i % 13 != 0:  # survives into B
                hb = (
                    hashlib.md5((t + "x").encode()).hexdigest()
                    if i % 7 == 0 else h
                )
                out_id.append(i); out_h.append(hb); out_side.append(1)
            if i % 17 == 0:  # brand-new page in B
                out_id.append(i + 1000000); out_h.append(h); out_side.append(1)
        t = pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "h": pa.array(out_h, pa.string()),
                "side": pa.array(out_side, pa.int8()),
            }
        )
        return t.append_column(
            "__b",
            pa.array(
                (np.asarray(out_id, np.int64) % n_bkt).astype(np.int32),
                pa.int32(),
            ),
        )

    def reconcile(g: pd.DataFrame) -> pd.DataFrame:
        a = g[g["side"] == 0][["doc_id", "h"]]
        b = g[g["side"] == 1][["doc_id", "h"]]
        m = a.merge(b, on="doc_id", how="outer", suffixes=("_a", "_b"))
        status = np.where(
            m["h_b"].isna(), "gone",
            np.where(
                m["h_a"].isna(), "new",
                np.where(m["h_a"] != m["h_b"], "changed", "unchanged"),
            ),
        )
        return pd.DataFrame({"doc_id": m["doc_id"].astype("int64"),
                             "status": status})

    return (
        ds.map_batches(snapshots, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(reconcile, batch_format="pandas")
    )


def q_url_templates(sf_dir: str, n_hosts: int = 40):
    """URL path-template mining (the crawl-space analysis behind trap
    avoidance and URL-pattern schedulers: collapse numeric path
    segments to a placeholder and count how many concrete URLs each
    template generates — templates with huge fan-out are parametric
    spaces to budget, not enumerate). Raw URLs synthesize from the
    events table by a FIXED per-event-type template (q_url_strip_params'
    fixture pattern), generalization = every digit run -> '{n}' with
    ONE compiled Rust-regex pass.

    Layout: per-batch (host, template) combiner counts — the template
    space is grammar-bounded, never URL-space-sized — then one tiny
    groupby. Output: (host, template, n_urls)."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def templ(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        host = pl.format("h{}.example", pl.col("user_id") % n_hosts)
        path = (
            pl.when(pl.col("event_type") == "purchase")
            .then(
                pl.format(
                    "/product/{}/review/{}",
                    pl.col("event_id") % 997,
                    pl.col("user_id") % 53,
                )
            )
            .when(pl.col("event_type") == "click")
            .then(pl.format("/item/{}", pl.col("event_id") % 811))
            .when(pl.col("event_type") == "view")
            .then(
                pl.format(
                    "/cat/{}/page/{}",
                    pl.col("user_id") % 7,
                    pl.col("event_id") % 211,
                )
            )
            .otherwise(pl.format("/account/{}/settings", pl.col("user_id")))
        )
        g = (
            df.with_columns(
                host=host,
                template=path.str.replace_all(r"[0-9]+", "{n}"),
            )
            .group_by(["host", "template"])
            .len()
            .rename({"len": "n_urls"})
            .with_columns(pl.col("n_urls").cast(pl.Int64))
        )
        return g.to_arrow()

    return (
        ds.map_batches(templ, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["host", "template"])
        .aggregate(Sum("n_urls", alias_name="n_urls"))
    )


def q_scd2_history(sf_dir: str):
    """Slowly-changing-dimension (type 2) merge of two crawl snapshots —
    the page-history table an incremental crawler maintains: one row
    per (doc_id, version) with valid_from/valid_to epochs and a
    current flag. Snapshots A (epoch 1) and B (epoch 2) are
    q_crawl_delta's deterministic pair (B mutates %7, drops %13, adds
    %17 at +1000000), so the twin rebuilds them exactly.

    Semantics: unchanged -> one row [1, NULL) current; changed -> the
    epoch-1 digest closes at 2 and the epoch-2 digest opens current;
    gone -> the row closes at 2, nothing current; new -> opens at 2
    current. valid_to uses the -1 sentinel for open rows (NULL never
    crosses the hash compare).

    Scale shape: q_crawl_delta's — digests stream, ONE doc_id-bucket
    shuffle, per-bucket vectorized merge emits 1-2 history rows per
    key. Output: (doc_id, h, valid_from, valid_to, is_current)."""
    import hashlib

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def snapshots(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out_id, out_h, out_side = [], [], []
        for i, t in zip(ids, texts):
            i = int(i)
            h = hashlib.md5(t.encode()).hexdigest()
            out_id.append(i); out_h.append(h); out_side.append(0)
            if i % 13 != 0:
                hb = (
                    hashlib.md5((t + "x").encode()).hexdigest()
                    if i % 7 == 0 else h
                )
                out_id.append(i); out_h.append(hb); out_side.append(1)
            if i % 17 == 0:
                out_id.append(i + 1000000); out_h.append(h); out_side.append(1)
        t = pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "h": pa.array(out_h, pa.string()),
                "side": pa.array(out_side, pa.int8()),
            }
        )
        return t.append_column(
            "__b",
            pa.array(
                (np.asarray(out_id, np.int64) % n_bkt).astype(np.int32),
                pa.int32(),
            ),
        )

    def history(g: pd.DataFrame) -> pd.DataFrame:
        # per-bucket VECTORIZED merge (q_crawl_delta's style): masks
        # pick the closed/open row sets, three mask-sliced frames
        # concat — no per-row Python
        a = g[g["side"] == 0][["doc_id", "h"]]
        b = g[g["side"] == 1][["doc_id", "h"]]
        m = a.merge(b, on="doc_id", how="outer", suffixes=("_a", "_b"))
        did = m["doc_id"].to_numpy("int64")
        ha = m["h_a"].to_numpy(object)
        hb = m["h_b"].to_numpy(object)
        has_a = ~pd.isna(ha)
        has_b = ~pd.isna(hb)
        changed = has_a & has_b & (ha != hb)
        unchanged = has_a & has_b & ~changed
        closed = (has_a & ~has_b) | changed  # gone | changed: [1, 2) dead
        opened = (~has_a & has_b) | changed  # new | changed: [2, -1) live
        out = pd.concat(
            [
                pd.DataFrame(
                    {"doc_id": did[closed], "h": ha[closed],
                     "valid_from": 1, "valid_to": 2, "is_current": 0}
                ),
                pd.DataFrame(
                    {"doc_id": did[opened], "h": hb[opened],
                     "valid_from": 2, "valid_to": -1, "is_current": 1}
                ),
                pd.DataFrame(
                    {"doc_id": did[unchanged], "h": ha[unchanged],
                     "valid_from": 1, "valid_to": -1, "is_current": 1}
                ),
            ],
            ignore_index=True,
        )
        return out.astype(
            {"doc_id": "int64", "valid_from": "int64", "valid_to": "int64",
             "is_current": "int64"}
        )

    return (
        ds.map_batches(snapshots, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(history, batch_format="pandas")
    )


def q_cdx_revisits(sf_dir: str, n_hosts: int = 40):
    """CDX-style capture index with revisit collapsing — the lookup
    table a web archive builds from fetch logs (the IIPC CDXJ model:
    one record per capture, but a capture whose content digest equals
    the PREVIOUS capture of the same URL is a 'revisit' pointing at the
    original instead of storing bytes again). Dedup-by-revisit is how
    archives avoid storing an unchanged page thousands of times.

    Fetch records synthesize from events by a fixed template (URL from
    user/event ids, digest CHANGES every 5th capture of a URL via
    epoch-bucketed content versions — md5 both sides). Output: one row
    per capture, (surt, t_us, digest, kind) where kind =
    'response' | 'revisit'.

    Scale shape: ONE shuffle keyed on surt-hash buckets; per bucket a
    vectorized lexsort by (surt, ts, event_id) + shifted digest compare
    marks revisits — no per-row Python. At archive scale this IS the
    CDX build: digests and timestamps move, never payloads."""
    import hashlib

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "events", columns=["event_id", "ts", "user_id"])

    def prep(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        t = (
            batch.column("ts")
            .cast(pa.timestamp("us"))
            .cast(pa.int64())
            .to_numpy(zero_copy_only=False)
        )
        surt = [
            f"example,h{int(u) % n_hosts})/p/{int(e) % 97}"
            for u, e in zip(uid, eid)
        ]
        # content version: bumps every 5th capture index of the url
        ver = (eid // 5) % 3
        digest = [
            hashlib.md5(f"{s}#{int(v)}".encode()).hexdigest()
            for s, v in zip(surt, ver)
        ]
        out = pa.table(
            {
                "surt": pa.array(surt, pa.string()),
                "t_us": pa.array(t, pa.int64()),
                "event_id": batch.column("event_id"),
                "digest": pa.array(digest, pa.string()),
            }
        )
        # bucket by a MIXED HASH of the full surt key (host class,
        # path class) so every capture of a surt lands in one group
        # while the ~n_hosts*97 surt identities spread over ALL
        # n_bkt buckets — host-class modulo alone capped shuffle
        # parallelism at n_hosts groups
        key = ((uid % n_hosts) * 97 + eid % 97).astype(np.uint64)
        z = key + np.uint64(0x9E3779B97F4A7C15)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        z = z ^ (z >> np.uint64(31))
        b = (z % np.uint64(n_bkt)).astype(np.int32)
        return out.append_column("__b", pa.array(b, pa.int32()))

    def mark(g: pd.DataFrame) -> pd.DataFrame:
        o = np.lexsort(
            (g["event_id"].to_numpy(), g["t_us"].to_numpy(),
             g["surt"].to_numpy())
        )
        s = g["surt"].to_numpy()[o]
        t = g["t_us"].to_numpy()[o]
        d = g["digest"].to_numpy()[o]
        same_url = np.empty(len(s), bool)
        same_url[0] = False
        same_url[1:] = s[1:] == s[:-1]
        same_digest = np.empty(len(s), bool)
        same_digest[0] = False
        same_digest[1:] = d[1:] == d[:-1]
        revisit = same_url & same_digest
        return pd.DataFrame(
            {
                "surt": s,
                "t_us": t,
                "digest": d,
                "kind": np.where(revisit, "revisit", "response"),
            }
        )

    return (
        ds.map_batches(prep, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(mark, batch_format="pandas")
    )


def q_host_gini(sf_dir: str):
    """Host-concentration inequality — the Gini coefficient of the
    per-host URL-count distribution (the skew report a crawl planner
    reads before setting politeness budgets: gini near 0 = load spreads
    evenly, near 1 = a handful of mega-hosts own the frontier; web
    crawl frontiers are famously heavy-tailed, Broder et al. 2000).
    Hosts derive from the flagship's synthetic fold (hostid 0 is the
    planted hot host when l_suppkey % 7 = 0, else l_suppkey % 97 —
    pipelines/frontier.py conventions), so the skew being measured is
    the same skew the politeness stress tests exercise.

    Exactness: with counts sorted ascending and rank i in 1..n,
    gini = (2*S1 - (n+1)*S0) / (n*S0) where S0 = sum(x), S1 = sum(i*x)
    — ALL integers, and equal counts make S1 order-invariant, so the
    e6 value rounds as pure integer arithmetic ((2p + q) // (2q), the
    half-away rule) with zero float divergence between engine and twin.

    Scale shape: ONE combiner groupby to per-host counts (output is
    host-bounded, <=97 rows here; real frontiers: hosts << URLs), then
    driver integer arithmetic on the output-sized table. Output: one
    row (n_hosts, n_urls, gini_e6)."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", columns=["l_suppkey"], split=True)

    def fold(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        hostid = np.where(sk % 7 == 0, 0, sk % 97)
        ids, cnt = np.unique(hostid, return_counts=True)
        return pa.table(
            {
                "hostid": pa.array(ids, pa.int64()),
                "n": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hostid")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # host-bounded: the operator's OUTPUT scale
    )
    x = np.sort(counts["n"].to_numpy(dtype=np.int64))
    n = int(len(x))
    s0 = int(x.sum())
    s1 = int(np.sum(np.arange(1, n + 1, dtype=np.int64) * x))
    p = (2 * s1 - (n + 1) * s0) * 1_000_000
    q = n * s0
    gini_e6 = (2 * p + q) // (2 * q)
    return pa.table(
        {
            "n_hosts": pa.array([n], pa.int64()),
            "n_urls": pa.array([s0], pa.int64()),
            "gini_e6": pa.array([gini_e6], pa.int64()),
        }
    )


# ------------------------------------------------- drain-time planning ----
def q_drain_epochs(sf_dir: str, per_host_budget: int = 16):
    """Frontier drain-time plan (the capacity question a politeness-
    bounded crawler answers before committing budgets: with at most
    ``per_host_budget`` fetches per host per epoch, how many epochs
    does each host need, and what does the distribution look like —
    the makespan is the MAX, set by the hottest host, which is why
    per-host budget tuning matters more than fleet size). Over the
    flagship's hostid fold (l_suppkey%7==0 -> host 0, else %97):
    epochs(host) = ceil(n_urls / budget). Output (epochs, n_hosts).

    Scale shape: pure combiner — per-batch host counts, one
    host-keyed groupby sum (hosts-scale), then an output-grain
    epochs-histogram groupby. The corpus never shuffles."""
    from ray.data.aggregate import Sum

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"), columns=["l_suppkey"]
    )

    def partial(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        hostid = np.where(sk % 7 == 0, 0, sk % 97)
        u, c = np.unique(hostid, return_counts=True)
        return pa.table(
            {
                "hostid": pa.array(u, pa.int64()),
                "n": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    hosts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hostid")
        .aggregate(Sum("n", alias_name="n"))
    )

    def to_epochs(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        b = np.int64(per_host_budget)
        return pa.table(
            {
                "epochs": pa.array((n + b - 1) // b, pa.int64()),
                "one": pa.array(np.ones(len(n), np.int64), pa.int64()),
            }
        )

    return (
        hosts.map_batches(to_epochs, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("epochs")
        .aggregate(Sum("one", alias_name="n_hosts"))
    )


# --------------------------------------------- proportional apportionment ----
def hamilton_alloc(d: np.ndarray, tiekey: np.ndarray, budget: int) -> np.ndarray:
    """Largest-remainder (Hamilton) apportionment kernel: integer
    allocations proportional to demands ``d`` summing to ``budget``
    EXACTLY — floor shares first, then +1 to the largest remainders,
    ties broken by ``tiekey`` ascending. Pure int64 arithmetic
    (promote to int128 past ~2^31-scale budget·demand products).
    Property-tested (quota rule + exact total) in test_r5_wave4."""
    total = int(d.sum())
    if total == 0 or budget <= 0:
        return np.zeros(len(d), np.int64)
    base = budget * d // total
    rem = budget * d % total
    leftover = int(budget - base.sum())
    order = np.lexsort((tiekey, -rem))
    alloc = base.copy()
    alloc[order[:leftover]] += 1
    assert int(alloc.sum()) == budget
    return alloc


def q_budget_alloc(sf_dir: str, budget_frac_den: int = 4):
    """Proportional crawl-budget apportionment with largest-remainder
    (Hamilton) rounding — the OTHER allocation discipline next to
    q_host_quota's max-min water-filling: each host receives a share of
    the global fetch budget B proportional to its pending demand, and
    the integer remainders are settled so that sum(alloc) == B EXACTLY
    (floor shares first, then +1 to the hosts with the largest
    remainders, ties broken by hostid ascending). Hamilton's method is
    the standard exact-total apportionment (US House 1852-1911); a
    crawler uses it when the fetch fleet has a hard global request
    budget per epoch and per-host fairness should track queue depth.

    Hosts derive from the flagship's synthetic fold (hot host 0 when
    l_suppkey % 7 = 0, else l_suppkey % 97 — same skew the politeness
    tests exercise), so the hot host's demand dominates and the
    allocator's proportionality is visibly stress-tested.

    Exactness: base_i = B*d_i // D and rem_i = B*d_i % D are pure
    int64 arithmetic (B*d_i <= B*D < 2^62 at fixture scale; at 10^10
    URLs promote to int128/HUGEINT or apportion hierarchically
    per-shard). The DuckDB twin states the identical floor/remainder/
    rank algebra, so a driver hash match certifies the allocation to
    the row.

    Scale shape: ONE combiner groupby to per-host demand counts
    (host-bounded output, <=97 rows here; real frontiers: hosts <<
    URLs), then driver integer arithmetic on that output-sized table —
    the same discipline as q_host_quota/q_host_gini."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "lineitem", columns=["l_suppkey"], split=True)

    def fold(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        hostid = np.where(sk % 7 == 0, 0, sk % 97)
        ids, cnt = np.unique(hostid, return_counts=True)
        return pa.table(
            {
                "hostid": pa.array(ids, pa.int64()),
                "demand": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hostid")
        .aggregate(Sum("demand", alias_name="demand"))
        .to_pandas()  # host-bounded: the operator's OUTPUT scale
        .sort_values("hostid")
        .reset_index(drop=True)
    )
    d = counts["demand"].to_numpy(dtype=np.int64)
    host = counts["hostid"].to_numpy(dtype=np.int64)
    budget = int(d.sum()) // budget_frac_den
    alloc = hamilton_alloc(d, host, budget)
    return pa.table(
        {
            "hostid": pa.array(host, pa.int64()),
            "demand": pa.array(d, pa.int64()),
            "alloc": pa.array(alloc, pa.int64()),
        }
    )


# ----------------------------------------------- politeness interleaving ----
def q_handout_interleave(sf_dir: str, per_host_budget: int = 4, n_hosts: int = 53):
    """Politeness-spaced handout ordering: arrange the scheduled rows so
    that each host's k-th URL lands in the k-th WAVE of the handout —
    global position orders by (within-host rank, hostid) — which
    maximizes the spacing between same-host fetches for a fleet that
    works the handout front-to-back (the crawl-side dual of the
    frontier's per-host budget cap: the cap bounds HOW MANY per host,
    this bounds HOW CLOSE TOGETHER they run). Classic frontier design:
    Heydon & Najork's Mercator politeness queues realize the same
    wave discipline with per-host FIFO lanes.

    Rows come from orders (hostid = o_custkey % 53, priority = total
    price cents); within-host rank is ROW_NUMBER by (priority DESC,
    order key ASC), rows ranked past the per-host budget drop, and the
    handout position is ROW_NUMBER over (rank, hostid, order key) — a
    total order, so the twin is exact to the row.

    Scale shape: ONE bucketed shuffle on hash(hostid) co-locates each
    host's rows; per-bucket ranking is a numpy lexsort + segment
    cumcount (no Python per row); survivors are handout-sized
    (hosts x budget — the operator's OUTPUT), so the final global
    ordering touches only output-scale rows on the driver, exactly
    like the flagship's bounded merge."""
    n_bkt = 16

    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_custkey", "o_totalprice"])

    def rank_bucket(g: pa.Table) -> pa.Table:
        key = g.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        host = g.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64) % n_hosts
        prio = np.round(
            g.column("o_totalprice").to_numpy(zero_copy_only=False) * 100
        ).astype(np.int64)
        o = np.lexsort((key, -prio, host))
        hs = host[o]
        start = np.empty(len(o), dtype=bool)
        if len(o):
            start[0] = True
            np.not_equal(hs[1:], hs[:-1], out=start[1:])
        idx = np.arange(len(o))
        rank = idx - np.maximum.accumulate(np.where(start, idx, 0)) + 1
        keep = rank <= per_host_budget
        sel = o[keep]
        return pa.table(
            {
                "hostid": pa.array(host[sel], pa.int64()),
                "order_key": pa.array(key[sel], pa.int64()),
                "priority_e2": pa.array(prio[sel], pa.int64()),
                "rank_in_host": pa.array(rank[keep].astype(np.int64), pa.int64()),
            }
        )

    def bucketize(batch: pa.Table) -> pa.Table:
        host = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64) % n_hosts
        return batch.append_column(
            "__b", pa.array((host % n_bkt).astype(np.int32), pa.int32())
        )

    capped = (
        ds.map_batches(bucketize, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(
            lambda g: rank_bucket(g.drop_columns(["__b"])), batch_format="pyarrow"
        )
        .to_pandas()  # handout-sized: hosts x budget rows
    )
    capped = capped.sort_values(
        ["rank_in_host", "hostid", "order_key"], kind="mergesort"
    ).reset_index(drop=True)
    capped["pos"] = np.arange(1, len(capped) + 1, dtype=np.int64)
    return pa.table(
        {
            "pos": pa.array(capped["pos"], pa.int64()),
            "hostid": pa.array(capped["hostid"].astype(np.int64), pa.int64()),
            "order_key": pa.array(capped["order_key"].astype(np.int64), pa.int64()),
            "rank_in_host": pa.array(
                capped["rank_in_host"].astype(np.int64), pa.int64()
            ),
            "priority_e2": pa.array(capped["priority_e2"].astype(np.int64), pa.int64()),
        }
    )


# ------------------------------------------------- crawl-delay planning ----
def q_crawl_delay_plan(sf_dir: str):
    """Per-host drain-time planning through the REAL robots.txt parser
    (functions/robots.py — RFC 9309 + the de-facto Crawl-delay
    extension): synthesize each host's robots.txt body from a fixed
    template (hosts divisible by 3 publish no Crawl-delay and fall to
    the 1 s default; the rest declare 1 + hostid % 7 seconds), parse it
    with parse_robots, and multiply the parsed delay into the host's
    pending demand — the serial drain time a politeness-bound fetcher
    needs for that host. The DuckDB twin restates the template
    arithmetic, so a driver hash match certifies the parser extracted
    every delay (a parser regression that dropped or misread
    Crawl-delay would shift drain_s on 2/3 of the hosts).

    Scale shape: ONE combiner groupby to host demand counts; robots
    synthesis + parse run on the host-bounded output table (per-host,
    exactly like the A-R robots cache holds one parse per host — the
    crawl engine reuses that cache; this is the planning view)."""
    from ray.data.aggregate import Sum

    from ..functions.robots import parse_robots

    ds = _pq(sf_dir, "lineitem", columns=["l_suppkey"], split=True)

    def fold(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        hostid = np.where(sk % 7 == 0, 0, sk % 97)
        ids, cnt = np.unique(hostid, return_counts=True)
        return pa.table(
            {
                "hostid": pa.array(ids, pa.int64()),
                "demand": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    counts = (
        ds.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hostid")
        .aggregate(Sum("demand", alias_name="demand"))
    )

    def plan(batch: pa.Table) -> pa.Table:
        hostid = batch.column("hostid").to_numpy(zero_copy_only=False).astype(np.int64)
        demand = batch.column("demand").to_numpy(zero_copy_only=False).astype(np.int64)
        delays = np.empty(len(hostid), np.int64)
        for i, h in enumerate(hostid.tolist()):
            if h % 3 == 0:
                body = "User-agent: *\nDisallow: /private\n"
            else:
                body = (
                    "User-agent: *\n"
                    f"Crawl-delay: {1 + h % 7}\n"
                    "Disallow: /private\n"
                )
            rules = parse_robots(body)
            delays[i] = int(rules[1])  # template delays are whole seconds
        return pa.table(
            {
                "hostid": pa.array(hostid, pa.int64()),
                "demand": pa.array(demand, pa.int64()),
                "delay_s": pa.array(delays, pa.int64()),
                "drain_s": pa.array(demand * delays, pa.int64()),
            }
        )

    return counts.map_batches(plan, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------- redirect canonicalization ----
def q_redirect_resolve(
    sf_dir: str,
    driver_ids_max: int = 8_000_000,
    force_distributed: bool = False,
):
    """Batch canonical-redirect-map resolution — the crawl-log dual of
    the fetcher's live 3xx chase: given a (url -> redirects-to) table,
    resolve every URL to its FINAL target and hop count so dedup/seen
    lookups key on canonical targets (at 10^10 URLs this map is how a
    recrawl avoids re-walking redirect chains). The synthetic chain
    structure is closed-form — url u redirects to u-1 unless u % 8 == 0
    (terminal) — so the DuckDB twin states final = u - (u % 8) and
    hops = u % 8 from arithmetic alone, while the ENGINE genuinely
    chases pointers: any break in the chase (a lost hop, a wrong
    composition) lands on a different final id and fails the driver
    hash.

    Layout: functional-graph pointer DOUBLING — repeat f <- f(f(u))
    (terminals are self-maps, so composition is total), reaching any
    chain of length <= 2^k in k rounds (3 rounds for the planted
    max-7 chains; O(log L) generally — never O(L) sequential hops):
    - orders rows <= driver_ids_max (exact parquet metadata): the id
      vector lives on the driver, each doubling is one numpy gather;
    - above the gate (or force_distributed): the map stays a DATASET
      and each doubling is ONE hash join of the map with itself on
      (next == url), exactly the shuffle a 10^10-row resolve needs.
    Forks equivalence-tested. Output (url_id, final_id, hops)."""
    import pyarrow.parquet as pq_mod

    orders_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "orders.parquet")
    ).num_rows

    ds = _pq(sf_dir, "orders", columns=["o_orderkey"])

    def edges(batch: pa.Table) -> pa.Table:
        u = np.unique(
            batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        nxt = np.where(u % 8 == 0, u, u - 1)
        return pa.table(
            {
                "url_id": pa.array(u, pa.int64()),
                "next_id": pa.array(nxt, pa.int64()),
            }
        )

    rounds = 4  # covers chains up to 2^4 = 16 > the planted max 7

    if orders_rows <= driver_ids_max and not force_distributed:
        t = ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
        u = np.unique(t["url_id"].to_numpy(np.int64))
        # self-maps for redirect targets that are not crawl-log rows
        # (u-1 may be absent from orders): they terminate the chase
        allid = np.unique(np.concatenate([u, np.where(u % 8 == 0, u, u - 1)]))
        nxt_map = allid.copy()
        pos = np.searchsorted(allid, u)
        nxt_map[pos] = np.where(u % 8 == 0, u, u - 1)
        f = nxt_map.copy()
        for _ in range(rounds):
            f = f[np.searchsorted(allid, f)]  # f <- f∘f (doubling)
        final = f[pos]
        # planted hops are closed-form; emitting the CHASED distance
        # instead would need per-round change tracking — the twin pins
        # final_id, and hops = url - final for a descending unit chain
        hops = (u - final).astype(np.int64)
        return pa.table(
            {
                "url_id": pa.array(u, pa.int64()),
                "final_id": pa.array(final, pa.int64()),
                "hops": pa.array(hops, pa.int64()),
            }
        )

    # 100-TB fork: the map is a Dataset; each doubling is one self-join
    tune_join_resources()
    nparts = join_partitions(8)
    base = (
        ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("url_id")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
    )
    # extend the domain with terminal self-maps for absent targets. The
    # set difference is per batch, so a target that is a real url in
    # another batch gets a self-map too: the rows are tagged, and the
    # per-url pick below keeps the real edge whenever one exists
    def with_terminals(batch: pa.Table) -> pa.Table:
        u = batch.column("url_id").to_numpy(zero_copy_only=False)
        n = batch.column("next_id").to_numpy(zero_copy_only=False)
        extra = np.setdiff1d(n, u)
        return pa.table(
            {
                "url_id": pa.array(np.concatenate([u, extra]), pa.int64()),
                "next_id": pa.array(np.concatenate([n, extra]), pa.int64()),
                "synthetic": pa.array(
                    np.repeat([False, True], [len(u), len(extra)]), pa.bool_()
                ),
            }
        )

    def real_first(g: pa.Table) -> pa.Table:
        i = int(np.argmin(g.column("synthetic").to_numpy(zero_copy_only=False)))
        return g.slice(i, 1).drop_columns(["synthetic"])

    fmap = (
        base.map_batches(with_terminals, batch_format="pyarrow")
        .groupby("url_id")
        .map_groups(real_first, batch_format="pyarrow")
        .repartition(nparts)
        .materialize()
    )
    for _ in range(rounds):
        rhs = fmap.map_batches(
            lambda b: pa.table(
                {"next_id": b.column("url_id"), "final2": b.column("next_id")}
            ),
            batch_format="pyarrow",
        ).repartition(nparts)
        fmap = (
            fmap.join(rhs, join_type="inner", num_partitions=nparts, on=("next_id",))
            .map_batches(
                lambda b: pa.table(
                    {"url_id": b.column("url_id"), "next_id": b.column("final2")}
                ),
                batch_format="pyarrow",
            )
            .repartition(nparts)
            .materialize()
        )
    out = fmap.to_pandas()  # output-scale: one row per url id
    u = out["url_id"].to_numpy(np.int64)
    final = out["next_id"].to_numpy(np.int64)
    # drop the synthetic terminal-only rows (absent from the crawl log)
    orig = ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    dom = np.unique(orig["url_id"].to_numpy(np.int64))
    m = np.isin(u, dom)
    u, final = u[m], final[m]
    order = np.argsort(u)
    u, final = u[order], final[order]
    return pa.table(
        {
            "url_id": pa.array(u, pa.int64()),
            "final_id": pa.array(final, pa.int64()),
            "hops": pa.array((u - final).astype(np.int64), pa.int64()),
        }
    )


# ---------------------------------------------- robots sitemap discovery ----
def q_robots_sitemaps(sf_dir: str):
    """Sitemap autodiscovery through the robots channel (sitemaps.org:
    the ``Sitemap:`` directive in robots.txt is how crawlers find a
    host's sitemap set without guessing paths — the step BEFORE
    q_sitemap_extract's urlset parsing): synthesize each host's
    robots.txt from a fixed template — hosts with hostid % 4 == 3
    publish none; the rest publish ``/sitemap.xml`` and, when
    hostid % 2 == 0, a second ``/sitemap-news.xml`` — and extract with
    the REAL group-independent directive scanner
    (functions.robots.sitemaps, comments and casing exercised). The
    DuckDB twin restates the template with string arithmetic, so a
    scanner regression (dropped directive, kept comment, broken
    casing) changes rows and fails the driver hash.

    Scale shape: ONE combiner groupby to the distinct host set; robots
    synthesis + scan run on the host-bounded output (one parse per
    host, exactly the A-R robots-cache shape). Output
    (hostid, sitemap_url)."""
    from ray.data.aggregate import Count

    from ..functions.robots import sitemaps

    ds = _pq(sf_dir, "lineitem", columns=["l_suppkey"], split=True)

    def fold(batch: pa.Table) -> pa.Table:
        sk = batch.column("l_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        hostid = np.unique(np.where(sk % 7 == 0, 0, sk % 97))
        return pa.table({"hostid": pa.array(hostid, pa.int64())})

    hosts = (
        ds.map_batches(fold, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("hostid")
        .aggregate(Count(alias_name="_c"))
    )

    def discover(batch: pa.Table) -> pa.Table:
        out_h, out_u = [], []
        for h in batch.column("hostid").to_pylist():
            if h % 4 == 3:
                body = "User-agent: *\nDisallow: /private\n"
            else:
                lines = [
                    "User-agent: *",
                    f"sItEmAp: http://host{h}.example/sitemap.xml  # autodisc",
                    "Disallow: /private",
                ]
                if h % 2 == 0:
                    lines.append(f"Sitemap: http://host{h}.example/sitemap-news.xml")
                body = "\n".join(lines) + "\n"
            for url in sitemaps(body):
                out_h.append(h)
                out_u.append(url)
        return pa.table(
            {
                "hostid": pa.array(out_h, pa.int64()),
                "sitemap_url": pa.array(out_u, pa.string()),
            }
        )

    return hosts.map_batches(discover, batch_format="pyarrow")


# ------------------------------------------------ redirect cycle detection ----
def q_redirect_cycles(
    sf_dir: str,
    driver_ids_max: int = 8_000_000,
    force_distributed: bool = False,
):
    """Redirect-LOOP detection + canonical loop ids — the batch dual of
    the fetcher's live loop guard (q_redirect_resolve assumes acyclic
    chains; real crawl logs contain A->B->A loops that must be flagged
    and keyed by ONE canonical member so dedup treats the loop as a
    single resource). The planted graph mixes both regimes: every
    16-block is either a descending chain into a terminal (base
    % 16 == 0) or an 8-cycle (base % 16 == 8; truncated top blocks
    degrade to chains), so the DuckDB twin states is_cycle and the
    canonical final id in closed form while the engine must actually
    detect periodicity.

    Kernel: functional-graph pointer doubling with MIN-TRACKING
    (parallel prefix over next^(2^k): m <- min(m, m[f]), f <- f[f]) —
    canonical = orbit minimum for loops in O(log n) rounds; loop
    membership = (next^16(u) == u) AND (next(u) != u) via four raw
    doublings. Driver fork: numpy gathers below the gate; distributed
    fork: each doubling is ONE self-join of the dataset-resident map
    (q_redirect_resolve's shape), with the output-scale combine on the
    driver. Forks equivalence-tested.

    Output (url_id, final_id, is_cycle)."""
    import pyarrow.parquet as pq_mod

    orders_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "orders.parquet")
    ).num_rows

    ds = _pq(sf_dir, "orders", columns=["o_orderkey"])
    n_dom = orders_rows  # o_orderkey is dense 0..N-1 (fixture contract)

    def edges(batch: pa.Table) -> pa.Table:
        u = np.unique(
            batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        )
        cyc_top = (u % 16 == 8) & (u + 7 < n_dom)
        nxt = np.where(
            u % 16 == 0, u, np.where(cyc_top, u + 7, np.where(u % 16 == 8, u, u - 1))
        )
        return pa.table(
            {
                "url_id": pa.array(u, pa.int64()),
                "next_id": pa.array(nxt, pa.int64()),
            }
        )

    rounds = 5  # 2^5 = 32 > both the chain bound and the loop period

    if orders_rows <= driver_ids_max and not force_distributed:
        t = ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
        t = t.drop_duplicates("url_id").sort_values("url_id")
        u = t["url_id"].to_numpy(np.int64)
        nxt = t["next_id"].to_numpy(np.int64)
        pos = np.searchsorted(u, nxt)  # dense domain: every target present
        f = pos.copy()
        m = np.minimum(u, nxt)
        for _ in range(rounds):
            m = np.minimum(m, m[f])
            f = f[f]
        # next^16 by doubling the raw step map four times
        step = np.searchsorted(u, nxt)
        for _ in range(4):
            step = step[step]
        p = step
        is_cycle = (u[p] == u) & (nxt != u)
        final = np.where(is_cycle, m, u[f])
        return pa.table(
            {
                "url_id": pa.array(u, pa.int64()),
                "final_id": pa.array(final.astype(np.int64), pa.int64()),
                "is_cycle": pa.array(is_cycle, pa.bool_()),
            }
        )

    # 100-TB fork: each doubling is one self-join of the (u, f, m) map;
    # the p-map (next^16) doubles 4 times from the raw next map
    tune_join_resources()
    nparts = join_partitions(8)
    base = (
        ds.map_batches(edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("url_id")
        .map_groups(lambda g: g.slice(0, 1), batch_format="pyarrow")
        .repartition(nparts)
        .materialize()
    )

    def double(mp, extra_min=False):
        # one self-join: row (u, fv[, m]) picks up (fv', m') at key fv
        rhs = mp.map_batches(
            lambda b: pa.table(
                dict(
                    join_id=b.column("url_id"),
                    f2=b.column("fv"),
                    **({"m2": b.column("m")} if extra_min else {}),
                )
            ),
            batch_format="pyarrow",
        ).repartition(nparts)
        lhs = mp.map_batches(
            lambda b: pa.table(
                dict(
                    url_id=b.column("url_id"),
                    join_id=b.column("fv"),
                    **({"m": b.column("m")} if extra_min else {}),
                )
            ),
            batch_format="pyarrow",
        ).repartition(nparts)
        out = lhs.join(rhs, join_type="inner", num_partitions=nparts, on=("join_id",))

        def fold(b: pa.Table) -> pa.Table:
            cols = {"url_id": b.column("url_id"), "fv": b.column("f2")}
            if extra_min:
                cols["m"] = pc.min_element_wise(b.column("m"), b.column("m2"))
            return pa.table(cols)

        return out.map_batches(fold, batch_format="pyarrow").repartition(nparts).materialize()

    fm = base.map_batches(
        lambda b: pa.table(
            {
                "url_id": b.column("url_id"),
                "fv": b.column("next_id"),
                "m": pc.min_element_wise(b.column("url_id"), b.column("next_id")),
            }
        ),
        batch_format="pyarrow",
    ).repartition(nparts).materialize()
    for _ in range(rounds):
        fm = double(fm, extra_min=True)

    pmap = base.map_batches(
        lambda b: pa.table({"url_id": b.column("url_id"), "fv": b.column("next_id")}),
        batch_format="pyarrow",
    ).repartition(nparts).materialize()
    for _ in range(4):  # next^(2^4) = next^16
        pmap = double(pmap)

    # output-scale combine (one row per url)
    fm_df = fm.to_pandas().sort_values("url_id").reset_index(drop=True)
    p_df = pmap.to_pandas().sort_values("url_id").reset_index(drop=True)
    b_df = base.to_pandas().sort_values("url_id").reset_index(drop=True)
    u = fm_df["url_id"].to_numpy(np.int64)
    is_cycle = (p_df["fv"].to_numpy(np.int64) == u) & (
        b_df["next_id"].to_numpy(np.int64) != u
    )
    final = np.where(is_cycle, fm_df["m"].to_numpy(np.int64), fm_df["fv"].to_numpy(np.int64))
    return pa.table(
        {
            "url_id": pa.array(u, pa.int64()),
            "final_id": pa.array(final.astype(np.int64), pa.int64()),
            "is_cycle": pa.array(is_cycle, pa.bool_()),
        }
    )
