"""Round-5 wave-4 operators: thumbnail gate, letterbox detection,
Hamilton budget apportionment, politeness handout interleaving, and
month-over-month deltas. (The DuckDB hash checks for all five run
automatically via test_queries_oracle's parametrization; the tests here
pin the invariants the SQL twin can only assert as TRUE columns — the
box kernel's exactness, the fidelity floor, the apportionment algebra
and the wave ordering.)"""

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


def test_minhash_est_error_envelope(ray_session):
    """Every estimate must sit inside the 6-sigma binomial envelope of
    its exact Jaccard at k=128 (the min-wise-independence regression
    canary: affine-mod-P perms violated this by 12 sigma on a
    13-shingle doc; the splitmix64 mix holds it), and the op is
    deterministic."""
    from heroshi_ray.pipelines.dataops import q_minhash_est_error

    df = q_minhash_est_error(SF_DIR).to_pandas()
    assert len(df) > 0
    j = df["jaccard_e4"].to_numpy(np.float64) / 1e4
    sigma_e4 = np.sqrt(j * (1 - j) / 128) * 1e4
    assert (df["abs_err_e4"].to_numpy() <= 6 * np.maximum(sigma_e4, 1)).all()
    again = q_minhash_est_error(SF_DIR).to_pandas()
    pd.testing.assert_frame_equal(df, again)


def test_minhash_est_error_empty_text_pair(ray_session, tmp_path):
    """Two empty-text docs have empty shingle sets, which jaccard()
    scores 1.0, so LSH surfaces them as a pair; they have no MinHash
    signature and the estimate must follow the same convention
    instead of failing the signature lookup."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_minhash_est_error

    texts = ["", "", "alpha beta gamma delta epsilon zeta eta theta",
             "alpha beta gamma delta epsilon zeta eta theta iota"]
    pq.write_table(
        pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": texts}),
        tmp_path / "documents.parquet",
    )
    df = q_minhash_est_error(str(tmp_path)).to_pandas().set_index(["doc_a", "doc_b"])
    empty = df.loc[(0, 1)]
    assert empty["jaccard_e4"] == empty["est_e4"] == 10_000
    assert empty["abs_err_e4"] == 0
    assert (2, 3) in df.index


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


def test_seen_fpr_under_fan_bound(ray_session):
    """Empirical cuckoo FPR must sit under 2x the Fan et al. analytical
    bound at every load factor (finite-sample margin), rise with load,
    and stay fully deterministic across runs."""
    from heroshi_ray.pipelines.webops import q_seen_fpr_eval

    df = q_seen_fpr_eval(SF_DIR).to_pandas()
    assert list(df["load_pct"]) == [25, 50, 75, 95]
    assert (df["fpr_e6"] <= 2 * df["bound_e6"]).all()
    assert df["n_fp"].is_monotonic_increasing
    again = q_seen_fpr_eval(SF_DIR).to_pandas()
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


def test_hll_audit_within_3_sigma(ray_session):
    """Every precision's relative error must sit inside 3x the
    1.04/sqrt(m) analytical standard error, estimates deterministic."""
    from heroshi_ray.pipelines.dataops import q_hll_error_eval

    df = q_hll_error_eval(SF_DIR).to_pandas()
    assert list(df["p"]) == [8, 10, 12, 14]
    assert (df["rel_err_e6"] <= 3 * df["sigma_e6"]).all()
    again = q_hll_error_eval(SF_DIR).to_pandas()
    pd.testing.assert_frame_equal(df, again)


def test_tdigest_audit_tail_accuracy(ray_session):
    """At delta >= 100 every audited quantile must land within 3% of
    the exact cents value (t-digest guarantees RANK error, so the
    value-level bound depends on tail density — 3% holds across block
    splits on this distribution), the exact side must equal a
    brute-force quantile_disc, and the op is deterministic within a
    session (block boundaries shift estimates across cpu configs,
    which is WHY the exact side exists)."""
    import pyarrow.parquet as pq

    from heroshi_ray.pipelines.dataops import q_tdigest_error_eval

    df = q_tdigest_error_eval(SF_DIR).to_pandas()
    dhi = df[df["delta"] >= 100]
    assert (dhi["abs_err_cents"] * 100 <= 3 * dhi["exact_cents"]).all()
    again = q_tdigest_error_eval(SF_DIR).to_pandas()
    pd.testing.assert_frame_equal(df, again)
    v = np.sort(
        np.round(
            pq.read_table(f"{SF_DIR}/events.parquet", columns=["value"])
            .column("value").to_numpy() * 100
        ).astype(np.int64)
    )
    for _, row in df.iterrows():
        target = -(-int(row["q"]) * len(v) // 100)
        assert int(row["exact_cents"]) == int(v[target - 1])


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


def test_fetch_makespan_bounds(ray_session):
    """Makespan respects both classical lower bounds (total-work/W and
    the hottest host's politeness drain), never increases with more
    workers, and the one-worker fleet is fully serial."""
    from heroshi_ray.pipelines.webops import (
        q_fetch_makespan,
        q_handout_interleave,
    )

    df = q_fetch_makespan(SF_DIR).to_pandas().sort_values("n_workers")
    hand = q_handout_interleave(SF_DIR).to_pandas()
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


def test_politeness_audit_invariants(ray_session):
    """Zero violations under 3x-sustainable demand: per-epoch admission
    never exceeds the burst cap, and the long-run per-host rate stays
    under accrual + the one-time burst transient."""
    from heroshi_ray.pipelines.webops import q_politeness_audit

    df = q_politeness_audit(SF_DIR).to_pandas()
    assert (df["violations"] == 0).all()
    assert (df["max_per_epoch"] <= 10).all()  # burst cap binds
    # amortized rate <= accrual rate + burst/epochs transient
    limit_e3 = df["rate_limit_e3"] + 10 * 1000 // df["epochs"]
    assert (df["admitted_rate_e3"] <= limit_e3).all()
    assert df["n_hosts"].sum() == 97  # every host class audited
