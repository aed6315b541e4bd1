"""Round-5 wave-4 operators: thumbnail gate, letterbox detection,
Hamilton budget apportionment, politeness handout interleaving, and
month-over-month deltas. (The DuckDB hash checks for all five run
automatically via test_queries_oracle's parametrization; the tests here
pin the invariants the SQL twin can only assert as TRUE columns — the
box kernel's exactness, the fidelity floor, the apportionment algebra
and the wave ordering.) The seen-set FPR, fetch-makespan and politeness
audits are test-local helpers over the production CuckooFilter,
handout and TokenBuckets code."""

from __future__ import annotations

import numpy as np
import pandas as pd

SF_DIR = "/root/testdata/sf0.001"


def test_box_thumb_kernel_exact():
    """The box kernel must be the floor-mean of each tile — checked
    against a brute-force tile loop on adversarial values (255s and
    mixed remainders where a float-mean kernel would round away)."""
    from heroshi_ray.pipelines.dataops import _box_thumb

    rng = np.random.default_rng(7)
    arr = rng.integers(0, 256, size=(16, 24, 3), dtype=np.uint8)
    got = _box_thumb(arr, 8)
    assert got.shape == (2, 3, 3)
    for i in range(2):
        for j in range(3):
            tile = arr[i * 8:(i + 1) * 8, j * 8:(j + 1) * 8].astype(np.uint64)
            want = tile.reshape(64, 3).sum(axis=0) // 64
            assert (got[i, j] == want).all()


def test_thumbnail_every_row_ok(ray_session):
    """Every corpus row must pass the fidelity gate — the driver twin
    asserts ok=TRUE; this pins the same thing without SQL plus the
    dims-divide-exactly property the kernel relies on."""
    from heroshi_ray.pipelines.dataops import q_thumbnail

    df = q_thumbnail(SF_DIR).to_pandas()
    assert len(df) == 96
    assert df["ok"].all()
    assert set(df["thumb_w"]) <= {4, 6, 8}
    assert set(df["thumb_h"]) <= {4, 6, 8}


def test_letterbox_detects_planted_pads(ray_session):
    """pad_top / pad_bottom must equal the planted key arithmetic for
    every row, and content_h must account for every remaining row."""
    from heroshi_ray.pipelines.dataops import q_letterbox

    df = q_letterbox(SF_DIR).to_pandas()
    assert len(df) == 96
    k = df["image_id"].str.slice(3).astype(int)
    assert (df["pad_top"] == 2 * (k % 5)).all()
    assert (df["pad_bottom"] == 3 * (k % 4)).all()
    assert (df["content_h"] == 48 - df["pad_top"] - df["pad_bottom"]).all()


def test_budget_alloc_hamilton_properties(ray_session):
    """sum(alloc) == budget EXACTLY, and every host's allocation is
    within one unit of its exact proportional share (the quota rule —
    Hamilton's method never violates it)."""
    from heroshi_ray.pipelines.webops import q_budget_alloc

    df = q_budget_alloc(SF_DIR).to_pandas()
    total = int(df["demand"].sum())
    budget = total // 4
    assert int(df["alloc"].sum()) == budget
    exact = budget * df["demand"].to_numpy(np.int64) / total
    alloc = df["alloc"].to_numpy(np.int64)
    assert (alloc >= np.floor(exact) - 0).all()
    assert (alloc <= np.floor(exact) + 1).all()


def test_handout_interleave_wave_order(ray_session):
    """Positions are a 1..n permutation, every host keeps at most the
    budget, and the handout is wave-ordered: ALL rank-k rows precede
    ALL rank-(k+1) rows, so same-host fetches are maximally spaced."""
    from heroshi_ray.pipelines.webops import q_handout_interleave

    df = q_handout_interleave(SF_DIR).to_pandas().sort_values("pos")
    assert (df["pos"].to_numpy() == np.arange(1, len(df) + 1)).all()
    assert df.groupby("hostid").size().max() <= 4
    assert df["rank_in_host"].is_monotonic_increasing
    # within a host, priority never increases with rank
    for _, g in df.groupby("hostid"):
        g = g.sort_values("rank_in_host")
        assert g["priority_e2"].is_monotonic_decreasing or len(g) == 1


def test_center_crop_every_row_ok(ray_session):
    from heroshi_ray.pipelines.dataops import q_center_crop

    df = q_center_crop(SF_DIR).to_pandas()
    assert len(df) == 96
    assert df["ok"].all()
    k = df["image_id"].str.slice(3).astype(int)
    w, h = 32 + 16 * (k % 3), 32 + 16 * ((k // 3) % 3)
    s = np.minimum(w, h)
    assert (df["crop_size"] == s).all()
    assert (df["crop_x"] == (w - s) // 2).all()
    assert (df["crop_y"] == (h - s) // 2).all()


def test_crawl_delay_plan_parses_template(ray_session):
    """Delays must come out of the REAL parser equal to the template
    arithmetic, and drain must be their exact product with demand."""
    from heroshi_ray.pipelines.webops import q_crawl_delay_plan

    df = q_crawl_delay_plan(SF_DIR).to_pandas()
    want = np.where(df["hostid"] % 3 == 0, 1, 1 + df["hostid"] % 7)
    assert (df["delay_s"].to_numpy() == want).all()
    assert (df["drain_s"] == df["demand"] * df["delay_s"]).all()


def test_dedup_cluster_hist_accounts_every_doc(ray_session):
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_dedup_cluster_hist

    df = q_dedup_cluster_hist(SF_DIR).to_pandas()
    n_docs = pq.read_metadata(f"{SF_DIR}/documents.parquet").num_rows
    assert int((df["cluster_size"] * df["n_clusters"]).sum()) == n_docs
    assert (df["cluster_size"] >= 1).all()


def test_reciprocity_matches_bruteforce(ray_session):
    """Distributed bucketed count == a set-based brute force on the
    same deterministic graph."""
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_reciprocity

    got = q_reciprocity(SF_DIR).to_pandas().iloc[0]
    o = pq.read_table(
        f"{SF_DIR}/orders.parquet", columns=["o_orderkey", "o_custkey"]
    ).to_pandas()
    n_nodes = pq.read_metadata(f"{SF_DIR}/customer.parquet").num_rows
    src = o["o_custkey"].to_numpy(np.int64)
    dst = o["o_orderkey"].to_numpy(np.int64) % n_nodes
    edges = {(a, b) for a, b in zip(src, dst) if a != b}
    recip = sum((b, a) in edges for a, b in edges)
    assert int(got["n_edges"]) == len(edges)
    assert int(got["n_reciprocal"]) == recip
    p = recip * 1_000_000
    assert int(got["reciprocity_e6"]) == (2 * p + len(edges)) // (2 * len(edges))


def _splitmix64(z: np.ndarray) -> np.ndarray:
    z = (z + np.uint64(0x9E3779B97F4A7C15)).astype(np.uint64)
    z ^= z >> np.uint64(30)
    z = (z * np.uint64(0xBF58476D1CE4E5B9)).astype(np.uint64)
    z ^= z >> np.uint64(27)
    z = (z * np.uint64(0x94D049BB133111EB)).astype(np.uint64)
    return z ^ (z >> np.uint64(31))


def _seen_fpr_eval(capacity_per_shard: int = 1 << 16, n_shards: int = 8,
                   loads: tuple = (25, 50, 75, 95)) -> pd.DataFrame:
    """Empirical false-positive rate of the production CuckooFilter
    shard class at four load factors, beside the Fan et al. (CoNEXT'14)
    bound 2b*alpha/2^16 at the filter's actual slot occupancy alpha
    (b = 4 slots). Each shard inserts a splitmix64 key stream and
    probes a disjoint one; per-load counts are summed over shards."""
    from heroshi_ray.state.cuckoo import CuckooFilter

    rows = []
    for shard in range(n_shards):
        base = np.uint64(shard) * np.uint64(1 << 40)
        n_probe = capacity_per_shard * 2
        probe = _splitmix64(
            base + np.uint64(1 << 39) + np.arange(n_probe, dtype=np.uint64)
        )
        for load in loads:
            f = CuckooFilter(capacity_per_shard, seed=0x9E3779B9 + shard)
            n_ins = capacity_per_shard * load // 100
            f.add_many(_splitmix64(base + np.arange(n_ins, dtype=np.uint64)))
            rows.append((load, int(f.count), n_probe,
                         int(f.contains_many(probe).sum()),
                         f.count * 1_000_000 // (f.m * 4)))
    agg = (
        pd.DataFrame(rows, columns=["load_pct", "n_inserted", "n_probes",
                                    "n_fp", "alpha_e6"])
        .groupby("load_pct", as_index=False)
        .sum()
    )
    alpha_e6 = agg.pop("alpha_e6") // n_shards  # mean occupancy
    agg["fpr_e6"] = (2 * agg["n_fp"] * 1_000_000 + agg["n_probes"]) // (
        2 * agg["n_probes"]
    )
    agg["bound_e6"] = 2 * 4 * alpha_e6 // (1 << 16)
    return agg


def test_seen_fpr_under_fan_bound():
    """Empirical cuckoo FPR must sit under 2x the Fan et al. analytical
    bound at every load factor (finite-sample margin), rise with load,
    and stay fully deterministic across runs."""
    df = _seen_fpr_eval()
    assert list(df["load_pct"]) == [25, 50, 75, 95]
    assert (df["fpr_e6"] <= 2 * df["bound_e6"]).all()
    assert df["n_fp"].is_monotonic_increasing
    again = _seen_fpr_eval()
    pd.testing.assert_frame_equal(df, again)


def test_cc_sizes_forks_equivalent_and_account_all_nodes(ray_session):
    """Driver-labels and dataset-resident-labels forks must agree
    bit-for-bit, and the histogram must account for every customer
    (components partition the node set)."""
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_cc_sizes

    def norm(r):
        df = r.to_pandas()
        return df.sort_values("component_size").reset_index(drop=True)

    a = norm(q_cc_sizes(SF_DIR))
    b = norm(q_cc_sizes(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    n_cust = pq.read_metadata(f"{SF_DIR}/customer.parquet").num_rows
    assert int((a["component_size"] * a["n_components"]).sum()) == n_cust


def test_hamilton_kernel_properties_hypothesis():
    """Property test for the apportionment kernel: for ANY demand
    vector and budget, sum(alloc) == budget exactly and every
    allocation satisfies the quota rule (floor(q_i) <= alloc_i <=
    ceil(q_i) for exact quota q_i = budget*d_i/D) — Hamilton's method
    never violates quota (Balinski & Young)."""
    from hypothesis import given, settings
    from hypothesis import strategies as st

    from heroshi_ray.pipelines.webops import hamilton_alloc

    @settings(max_examples=200, deadline=None)
    @given(
        d=st.lists(st.integers(min_value=0, max_value=10_000),
                   min_size=1, max_size=50),
        frac=st.integers(min_value=1, max_value=10),
    )
    def run(d, frac):
        d = np.asarray(d, np.int64)
        total = int(d.sum())
        budget = total // frac
        alloc = hamilton_alloc(d, np.arange(len(d), dtype=np.int64), budget)
        if total == 0:
            assert (alloc == 0).all()
            return
        assert int(alloc.sum()) == budget
        q = budget * d / total
        assert (alloc >= np.floor(q)).all()
        assert (alloc <= np.ceil(q)).all()

    run()


def test_blur_detect_separation_margin(ray_session):
    """Every row classifies by planted parity, and the measured
    variance gap is wide: sharp >= 4x threshold, blurred <= 1/4 of
    it — the gate is deterministic, not borderline."""
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import (
        _ensure_blur_oracle,
        _laplacian_var,
        q_blur_detect,
    )
    from heroshi_ray.functions.image import decode_image

    df = q_blur_detect(SF_DIR).to_pandas()
    assert len(df) == 96
    k = df["image_id"].str.slice(3).astype(int)
    assert (df["blurred"] == (k % 2 == 1)).all()
    tbl = pq.read_table(_ensure_blur_oracle(SF_DIR)).to_pandas()
    for _, row in tbl.iterrows():
        v = _laplacian_var(decode_image(row["bytes"], "png"))
        if int(row["image_id"][3:]) % 2 == 1:
            assert v <= 500 / 4
        else:
            assert v >= 500 * 4


def test_redirect_resolve_forks_equivalent(ray_session):
    """Driver pointer-gather and distributed self-join doubling must
    agree bit-for-bit, and the chase must reproduce the closed form."""
    from heroshi_ray.pipelines.webops import q_redirect_resolve

    def norm(r):
        return r.to_pandas().sort_values("url_id").reset_index(drop=True)

    a = norm(q_redirect_resolve(SF_DIR))
    b = norm(q_redirect_resolve(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    u = a["url_id"].to_numpy(np.int64)
    assert (a["final_id"].to_numpy() == u - (u % 8)).all()
    assert (a["hops"].to_numpy() == u % 8).all()
    assert (a["final_id"] % 8 == 0).all()


def test_redirect_resolve_forks_equivalent_multiblock(ray_session, tmp_path):
    """Same equivalence over an orders table that arrives as 8 blocks in
    shuffled key order: a redirect target that is a real url in another
    batch must resolve through its real edge, not through the terminal
    self-map the per-batch domain extension adds for it."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray

    from heroshi_ray.pipelines.webops import q_redirect_resolve

    k = np.arange(1, 32 * 512 + 1, dtype=np.int64)
    k = np.random.default_rng(7).permutation(k[(k - 1) % 32 < 8])  # TPC-H key gaps
    path = tmp_path / "orders.parquet"
    pq.write_table(pa.table({"o_orderkey": k}), path, row_group_size=len(k) // 8)
    assert ray.data.read_parquet(str(path)).materialize().num_blocks() >= 4

    def norm(r):
        return r.to_pandas().sort_values("url_id").reset_index(drop=True)

    a = norm(q_redirect_resolve(str(tmp_path)))
    b = norm(q_redirect_resolve(str(tmp_path), force_distributed=True))
    u = np.sort(k)
    assert (a["url_id"].to_numpy() == u).all()
    assert (a["final_id"].to_numpy() == u - (u % 8)).all()
    assert (a["hops"].to_numpy() == u % 8).all()
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)


def test_robots_sitemaps_scanner_semantics():
    """The directive scanner must be group-independent, case-
    insensitive, comment-stripping and blank-skipping."""
    from heroshi_ray.functions.robots import sitemaps

    body = (
        "User-agent: a\nSitemap: http://h/s1.xml\n"
        "User-agent: b\nSITEMAP:http://h/s2.xml # trailing comment\n"
        "sitemap:\n# Sitemap: http://h/commented.xml\nDisallow: /\n"
    )
    assert sitemaps(body) == ["http://h/s1.xml", "http://h/s2.xml"]
    assert sitemaps("") == []
    assert sitemaps(None) == []


def test_redirect_cycles_forks_equivalent(ray_session):
    """Driver and distributed pointer-doubling (with min tracking) must
    agree bit-for-bit; loops key on their orbit minimum, chains on
    their terminal, matching the planted closed form."""
    from heroshi_ray.pipelines.webops import q_redirect_cycles

    def norm(r):
        return r.to_pandas().sort_values("url_id").reset_index(drop=True)

    a = norm(q_redirect_cycles(SF_DIR))
    b = norm(q_redirect_cycles(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    u = a["url_id"].to_numpy(np.int64)
    n = len(u)
    exp_cycle = (u % 16 >= 8) & (u - (u % 16) + 15 < n)
    assert (a["is_cycle"].to_numpy() == exp_cycle).all()
    assert (
        a["final_id"].to_numpy()
        == u - (u % 16) + np.where(u % 16 >= 8, 8, 0)
    ).all()
    # every loop's canonical id is itself a loop member
    assert a.loc[a["is_cycle"], "final_id"].isin(u[exp_cycle]).all()


def test_format_sniff_and_decode_errors(ray_session):
    """Sniffing reconciles every container (qpng's expected png
    mismatch included) and the strict decoder rejects exactly the
    planted truncation/bit-rot rows while passing intact ones."""
    from heroshi_ray.pipelines.dataops import q_decode_errors, q_format_sniff

    s = q_format_sniff(SF_DIR).to_pandas()
    assert len(s) == 96
    assert (s["container_match"] == (s["declared_fmt"] != "qpng")).all()
    assert (s.loc[s["declared_fmt"] == "qpng", "sniffed_fmt"] == "png").all()

    d = q_decode_errors(SF_DIR).to_pandas()
    k = d["image_id"].str.slice(3).astype(int)
    assert (d["decode_ok"] == ~(k % 5).isin([2, 4])).all()
    # both planted failure modes actually fail
    assert not d.loc[(k % 5) == 2, "decode_ok"].any()   # truncation
    assert not d.loc[(k % 5) == 4, "decode_ok"].any()   # bit rot


def _fetch_makespan(hand: pd.DataFrame, workers: tuple = (1, 4, 16),
                    fetch_s: int = 1) -> pd.DataFrame:
    """Greedy list scheduling of a W-worker fetch fleet over the
    politeness-interleaved handout, front to back: each row goes to the
    first free worker, starts no earlier than its host's next allowed
    time, and locks the host for its Crawl-delay (1 s, or 1 + h % 7 for
    hosts declaring one, as in q_crawl_delay_plan). One row per fleet
    size: (n_workers, makespan_s, busy_s, n_rows)."""
    host = hand.sort_values("pos")["hostid"].to_numpy(np.int64)
    delay = np.where(host % 3 == 0, 1, 1 + host % 7).astype(np.int64)
    rows = []
    for w in workers:
        worker_free = np.zeros(w, np.int64)
        host_ready: dict[int, int] = {}
        for h, d in zip(host.tolist(), delay.tolist()):
            i = int(np.argmin(worker_free))
            start = max(int(worker_free[i]), host_ready.get(h, 0))
            worker_free[i] = start + fetch_s
            host_ready[h] = start + d
        rows.append((w, int(worker_free.max()), fetch_s * len(host), len(host)))
    return pd.DataFrame(
        rows, columns=["n_workers", "makespan_s", "busy_s", "n_rows"]
    )


def test_fetch_makespan_bounds(ray_session):
    """Makespan respects both classical lower bounds (total-work/W and
    the hottest host's politeness drain), never increases with more
    workers, and the one-worker fleet is fully serial."""
    from heroshi_ray.pipelines.webops import q_handout_interleave

    hand = q_handout_interleave(SF_DIR).to_pandas()
    df = _fetch_makespan(hand).sort_values("n_workers")
    host = hand["hostid"].to_numpy(np.int64)
    delay = np.where(host % 3 == 0, 1, 1 + host % 7)
    per_host_drain = (
        pd.DataFrame({"h": host, "d": delay}).groupby("h")["d"].sum().max()
    )
    n = len(hand)
    for _, row in df.iterrows():
        lb = max(-(-n // int(row["n_workers"])), 0)
        assert row["makespan_s"] >= lb
        assert row["busy_s"] == n
    assert df["makespan_s"].is_monotonic_decreasing or len(df) == 1
    assert int(df.iloc[0]["n_workers"]) == 1
    assert int(df.iloc[0]["makespan_s"]) >= n  # serial fleet
    # politeness bound: no fleet beats the hottest host's drain
    assert (df["makespan_s"] >= per_host_drain - delay.max()).all()


def _politeness_audit(n_epochs: int = 12, epoch_seconds: float = 60.0,
                      burst: float = 10.0) -> pd.DataFrame:
    """Replay n_epochs of budget/consume cycles against the production
    TokenBuckets class for each Crawl-delay class of the 97 template
    hosts (q_crawl_delay_plan's delays), with demand planted at 3x the
    sustainable rate so the caps bind. Counts a violation when an
    epoch budget exceeds burst plus one epoch's accrual, when the first
    epoch admits more than burst, or when the long-run per-host rate
    exceeds the accrual rate plus the burst transient."""
    from heroshi_ray.state.tokenbucket import TokenBuckets

    def delay_of(h: int) -> int:
        return 1 if h % 3 == 0 else 1 + h % 7

    rows = []
    for delay in sorted({delay_of(h) for h in range(97)}):
        hosts = [h for h in range(97) if delay_of(h) == delay]
        tb = TokenBuckets(epoch_seconds, burst)
        admitted = max_epoch = violations = 0
        demand = int(3 * epoch_seconds / delay) + 1
        for e in range(n_epochs):
            now = e * epoch_seconds
            for h in hosts:
                b = tb.budget(f"host{h}", now, delay)
                take = min(b, demand)
                if take > burst and e == 0:
                    violations += 1
                if b > max(burst, epoch_seconds / delay + burst):
                    violations += 1
                tb.consume(f"host{h}", now, delay, take)
                admitted += take
                max_epoch = max(max_epoch, take)
        per_host = admitted / len(hosts)
        if per_host > n_epochs * epoch_seconds / delay + burst:
            violations += 1
        rows.append((delay, len(hosts), n_epochs, int(admitted),
                     int(max_epoch), int(epoch_seconds / delay * 1000),
                     int(per_host / n_epochs * 1000), violations))
    return pd.DataFrame(rows, columns=[
        "delay_s", "n_hosts", "epochs", "admitted", "max_per_epoch",
        "rate_limit_e3", "admitted_rate_e3", "violations",
    ])


def test_politeness_audit_invariants():
    """Zero violations under 3x-sustainable demand: per-epoch admission
    never exceeds the burst cap, and the long-run per-host rate stays
    under accrual + the one-time burst transient."""
    df = _politeness_audit()
    assert (df["violations"] == 0).all()
    assert (df["max_per_epoch"] <= 10).all()  # burst cap binds
    # amortized rate <= accrual rate + burst/epochs transient
    limit_e3 = df["rate_limit_e3"] + 10 * 1000 // df["epochs"]
    assert (df["admitted_rate_e3"] <= limit_e3).all()
    assert df["n_hosts"].sum() == 97  # every host class audited
