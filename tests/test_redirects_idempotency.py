"""Round-2 semantics units: the fetcher's 3xx chase, idempotent
seen-shard admission under task retries, counters-token dedup, and
cuckoo RNG checkpoint fidelity."""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from heroshi_ray.schemas import FRONTIER
from heroshi_ray.state.cuckoo import CuckooFilter


def _pages_table():
    rows = [
        # url, status, ctype, body, ms, location
        ("http://h.example/a", 200, "text/html", b"<html>A</html>", 1.0, ""),
        ("http://h.example/r1", 301, "", b"", 0.5, "/a"),
        ("http://h.example/r2", 302, "", b"", 0.5, "http://h.example/r1"),
        ("http://h.example/loopa", 302, "", b"", 0.5, "/loopb"),
        ("http://h.example/loopb", 302, "", b"", 0.5, "/loopa"),
        ("http://h.example/deep0", 301, "", b"", 0.5, "/deep1"),
        ("http://h.example/deep1", 301, "", b"", 0.5, "/deep2"),
        ("http://h.example/deep2", 301, "", b"", 0.5, "/deep3"),
        ("http://h.example/deep3", 301, "", b"", 0.5, "/deep4"),
        ("http://h.example/deep4", 301, "", b"", 0.5, "/a"),
        ("http://h.example/bad", 301, "", b"", 0.5, ""),
    ]
    cols = list(zip(*rows))
    return pa.table(
        {
            "url": pa.array(cols[0], pa.string()),
            "status_code": pa.array(cols[1], pa.int32()),
            "content_type": pa.array(cols[2], pa.string()),
            "body": pa.array(cols[3], pa.binary()),
            "fetch_ms": pa.array(cols[4], pa.float64()),
            "location": pa.array(cols[5], pa.string()),
        }
    )


def _frontier_batch(urls):
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "surt": pa.array([f"s{i}" for i in range(n)], pa.string()),
            "host": pa.array(["h.example"] * n, pa.string()),
            "priority": pa.array([1.0] * n, pa.float64()),
            "depth": pa.array([0] * n, pa.int32()),
            "parent_surt": pa.array([""] * n, pa.string()),
            "discovered_at": pa.array([0] * n, pa.timestamp("us")),
            "state": pa.array(np.zeros(n, dtype=np.uint8), pa.uint8()),
            "retries": pa.array([0] * n, pa.int32()),
            "epoch": pa.array([0] * n, pa.int64()),
        },
        schema=FRONTIER,
    )


def test_fetcher_redirect_chase(ray_session):
    import ray

    from heroshi_ray.stages.fetch import SyntheticFetcher, pages_index

    ref = ray.put(pages_index(_pages_table()))
    f = SyntheticFetcher(ref)
    out = f(
        _frontier_batch(
            [
                "http://h.example/a",        # direct
                "http://h.example/r1",       # 1 hop
                "http://h.example/r2",       # 2 hops
                "http://h.example/loopa",    # loop -> fail
                "http://h.example/deep0",    # 5 hops > MAX_REDIRECTS=4 -> fail
                "http://h.example/missing",  # unreachable
            ]
        )
    ).to_pylist()
    direct, one, two, loop, deep, missing = out

    assert direct["success"] and direct["n_redirects"] == 0
    assert direct["final_url"] == "http://h.example/a"

    assert one["success"] and one["status_code"] == 200
    assert one["final_url"] == "http://h.example/a"
    assert one["redirect_chain"] == ["http://h.example/a"]
    hdr = dict(one["headers"])
    assert hdr["location"] == "http://h.example/a"
    assert hdr["content-type"] == "text/html"
    assert one["content"] == b"<html>A</html>"

    assert two["success"] and two["n_redirects"] == 2
    assert two["redirect_chain"] == ["http://h.example/r1", "http://h.example/a"]

    assert not loop["success"] and loop["error"] == "too many redirects"
    assert loop["status_code"] == 302  # non-retryable (< 500)

    assert not deep["success"] and deep["error"] == "too many redirects"

    assert not missing["success"] and missing["status_code"] == -1


def test_seen_shard_idempotent_replay(ray_session):
    """A retried task re-asks with the same token and gets the SAME
    admission answer — without the token the retry would see its own
    keys as already-present and drop every row."""
    import ray

    from heroshi_ray.state.seen import SeenShard

    shard = SeenShard.remote(1 << 12)
    keys = np.arange(100, dtype=np.uint64) + 7
    tok = b"batch-token-1234"
    first = ray.get(shard.check_and_add.remote(keys, tok))
    assert first.all()
    replay = ray.get(shard.check_and_add.remote(keys, tok))
    assert replay.all()  # identical answer, not all-False
    # a DIFFERENT batch with the same keys is genuinely a duplicate
    other = ray.get(shard.check_and_add.remote(keys, b"batch-token-5678"))
    assert not other.any()
    ray.kill(shard)


def test_seen_shard_replay_log_spans_the_epoch(ray_session, tmp_path):
    """A retry replays its answer however many other calls came between
    it and the original within the epoch; after the commit (``save``)
    the same token is a fresh call and finds its keys present."""
    import ray

    from heroshi_ray.state.seen import SeenShard

    shard = SeenShard.remote(1 << 14)
    first_keys = np.arange(8, dtype=np.uint64)
    assert ray.get(shard.check_and_add.remote(first_keys, b"tok0")).all()
    n = 4097
    for lo in range(1, n, 1024):  # bounded in-flight calls per round
        ray.get([shard.check_and_add.remote(np.array([1000 + i], np.uint64),
                                            b"tok%d" % i)
                 for i in range(lo, min(n, lo + 1024))])
    replay = ray.get(shard.check_and_add.remote(first_keys, b"tok0"))
    assert replay.all()  # late retry of the first call: original answer
    ray.get(shard.save.remote(str(tmp_path / "shard0.bin")))
    after = ray.get(shard.check_and_add.remote(first_keys, b"tok0"))
    assert not after.any()  # next epoch, same content: keys already seen
    ray.kill(shard)


def test_counters_token_dedup(ray_session):
    import ray

    from heroshi_ray.state.counters import CountersActor

    c = CountersActor.remote()
    ray.get(c.add.remote(b"t1", fetch_ok=3))
    ray.get(c.add.remote(b"t1", fetch_ok=3))  # retry replays -> dropped
    ray.get(c.add.remote(b"t2", fetch_ok=2))
    assert ray.get(c.peek.remote())["fetch_ok"] == 5
    snap = ray.get(c.snapshot.remote())
    c2 = CountersActor.remote()
    ray.get(c2.restore.remote(snap))
    assert ray.get(c2.peek.remote()) == {"fetch_ok": 5}
    ray.kill(c)
    ray.kill(c2)


def test_counters_replay_log_spans_the_epoch(ray_session):
    """A retried report is dropped however many other reports came
    between it and the original within the epoch; after the commit
    (``snapshot``) the same token counts again."""
    import ray

    from heroshi_ray.state.counters import CountersActor

    c = CountersActor.remote()
    n = 8193
    for lo in range(0, n, 1024):  # bounded in-flight calls per round
        ray.get([c.add.remote(b"tok%d" % i, fetch_ok=1)
                 for i in range(lo, min(n, lo + 1024))])
    ray.get(c.add.remote(b"tok0", fetch_ok=1))  # late retry of the first
    assert ray.get(c.peek.remote())["fetch_ok"] == n
    assert ray.get(c.snapshot.remote())["fetch_ok"] == n
    ray.get(c.add.remote(b"tok0", fetch_ok=1))  # next epoch, same content
    assert ray.get(c.peek.remote())["fetch_ok"] == n + 1
    ray.kill(c)


def test_cuckoo_rng_state_roundtrip():
    """Checkpoint restore replays the exact eviction sequence: drive two
    filters (one restored mid-way, one uninterrupted) through identical
    heavy inserts and require identical bucket arrays."""
    rng = np.random.default_rng(5)
    keys = rng.integers(0, 2**63, size=6000, dtype=np.int64).astype(np.uint64)
    a = CuckooFilter(4096)
    b = CuckooFilter(4096)
    a.add_if_absent_many(keys[:3000])
    b.add_if_absent_many(keys[:3000])
    # roundtrip a at high load (evictions have happened by now)
    a = CuckooFilter.from_bytes(a.to_bytes())
    a.add_if_absent_many(keys[3000:])
    b.add_if_absent_many(keys[3000:])
    assert np.array_equal(a.buckets, b.buckets)
    assert a.count == b.count
