"""Round-5 wave-3 operators: CDC chunking shift-resistance, theta-sketch
estimator branch, the `query` CLI, graph-rank fork equivalence. (The
DuckDB hash checks for q_soft_dedup / q_theta_intersect /
q_weighted_sample run automatically via test_queries_oracle's
parametrization.)"""

from __future__ import annotations

import pandas as pd
import pyarrow.parquet as pq

SF_DIR = "/root/testdata/sf0.001"

P = 1099511628211
M = 1 << 64


def _horner(s: str) -> int:
    h = 0
    for ch in s:
        h = (h * P + ord(ch)) % M
    return h


def _chunk_doc(text: str, w: int = 16, mask_mod: int = 64) -> list[int]:
    """Independent pure-Python CDC chunker: boundary after any w-char
    window whose Karp-Rabin hash lands in residue mask_mod-1."""
    L = len(text)
    if L == 0:
        return []
    cuts = [
        i + w
        for i in range(L - w + 1)
        if _horner(text[i : i + w]) % mask_mod == mask_mod - 1
    ]
    if not cuts or cuts[-1] != L:
        cuts.append(L)
    out, prev = [], 0
    for c in cuts:
        out.append(_horner(text[prev:c]))
        prev = c
    return out


def test_cdc_chunking_is_shift_resistant():
    """The CDC selling point: a prefix edit only disturbs chunks near
    the edit — most chunk hashes survive (fixed-size chunking would
    lose them all)."""
    docs = pq.read_table(f"{SF_DIR}/documents.parquet", columns=["text"])
    long_texts = [t for t in docs.column("text").to_pylist() if len(t) > 400][:10]
    assert long_texts, "fixture should have >400-char docs"
    for t in long_texts:
        a, b = set(_chunk_doc(t)), set(_chunk_doc("XYZQ-" + t))
        assert len(a & b) >= max(1, len(a) - 2), (
            f"prefix edit destroyed {len(a) - len(a & b)} of {len(a)} chunks"
        )


def test_theta_intersect_estimator_branch(ray_session):
    """Force sketch saturation (k=8 < 15 distinct users/type at
    sf0.001) and check the KMV estimator stays within its error
    envelope of the exact overlap."""
    import duckdb

    from heroshi_ray.pipelines import dataops as d

    est = d.q_theta_intersect(SF_DIR, k=8).set_index(["type_a", "type_b"])

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM '{SF_DIR}/events.parquet'"
    )
    exact = con.sql(
        """WITH du AS (SELECT DISTINCT event_type, user_id FROM events)
           SELECT a.event_type AS type_a, b.event_type AS type_b,
                  count(*) AS n
           FROM du a JOIN du b
             ON a.user_id = b.user_id AND a.event_type < b.event_type
           GROUP BY 1, 2"""
    ).df().set_index(["type_a", "type_b"])

    assert len(est) == len(exact)
    for key, row in exact.iterrows():
        e = est.loc[key, "n_common"]
        assert row["n"] / 3 <= e <= row["n"] * 3, (key, e, row["n"])


def test_cli_query_subcommand(ray_session, monkeypatch):
    """The `query` CLI face of the driver contract: running a registered
    operator and the --oracle cross-check work in-process. The CLI owns
    a Ray session (shutdown in its finally), so shutdown is no-op'd here
    to keep the suite's shared session alive."""
    import ray as ray_mod

    from heroshi_ray.__main__ import main

    monkeypatch.setattr(ray_mod, "shutdown", lambda *a, **k: None)
    assert main(["query", "q_canonicalize", "--sf-dir", SF_DIR,
                 "--oracle", "--head", "0"]) == 0
    assert main(["query", "q_no_such_query"]) == 1


def test_cli_query_lists_all_registered(capsys, ray_session, monkeypatch):
    import ray as ray_mod

    from heroshi_ray.__main__ import main

    import __ray_entry__ as entrymod

    monkeypatch.setattr(ray_mod, "shutdown", lambda *a, **k: None)
    assert main(["query"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out == sorted(entrymod.queries())


def test_ppr_distributed_path_equals_broadcast(ray_session):
    """Personalized PageRank's seed teleport must be identical through
    the broadcast-vector and distributed-join forks (seed membership is
    node arithmetic, so neither fork ships a seed vector)."""
    from heroshi_ray.pipelines.dataops import q_ppr

    def norm(r):
        df = r.to_pandas()
        return df.sort_values("custkey").reset_index(drop=True)

    a = norm(q_ppr(SF_DIR))
    b = norm(q_ppr(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
    # seeds hold teleport mass; at least one non-seed scores via in-links
    seeds = a[a["custkey"] % 41 == 0]
    nonseeds = a[a["custkey"] % 41 != 0]
    assert (seeds["ppr_e12"] > 0).all()
    assert (nonseeds["ppr_e12"] > 0).any()


def test_bfs_driver_fork_equals_distributed(ray_session):
    from heroshi_ray.pipelines.dataops import q_bfs_distance

    def norm(r):
        return r.to_pandas().sort_values("node").reset_index(drop=True)

    a = norm(q_bfs_distance(SF_DIR))
    b = norm(q_bfs_distance(SF_DIR, force_distributed=True))
    pd.testing.assert_frame_equal(a, b, check_dtype=False, check_exact=True)
