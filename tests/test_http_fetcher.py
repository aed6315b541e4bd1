"""HttpFetcher contract tests (VERDICT r4 item 3): the REAL urllib3
fetcher behind the A-F interface, driven against an in-process
localhost HTTP server with virtual-host routing — the same golden
redirect-chase semantics the SyntheticFetcher suite pins
(tests/test_redirects_idempotency.py), plus the live-client concerns a
fixture can't exercise: per-host connection caps, timeouts, connect
errors, and keep-alive reuse. No external network is touched."""

from __future__ import annotations

import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pyarrow as pa
import pytest

from heroshi_ray.schemas import FRONTIER
from heroshi_ray.stages.fetch import HttpFetcher, SyntheticFetcher, pages_index

# (path, status, ctype, body, location) per virtual host — the same
# shape as the SyntheticFetcher golden pages spec
SPEC = {
    "h.example": {
        "/a": (200, "text/html", b"<html>A</html>", ""),
        "/r1": (301, "", b"", "/a"),
        "/r2": (302, "", b"", "http://h.example/r1"),
        "/loopa": (302, "", b"", "/loopb"),
        "/loopb": (302, "", b"", "/loopa"),
        "/deep0": (301, "", b"", "/deep1"),
        "/deep1": (301, "", b"", "/deep2"),
        "/deep2": (301, "", b"", "/deep3"),
        "/deep3": (301, "", b"", "/deep4"),
        "/deep4": (301, "", b"", "/a"),
        "/bad": (301, "", b"", ""),          # 3xx without Location
        "/gone": (404, "text/plain", b"nope", ""),
    },
    "x.example": {
        "/hop": (307, "", b"", "http://h.example/a"),  # cross-host chase
    },
}


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"  # keep-alive: pools must reuse sockets

    def do_GET(self):  # noqa: N802 (stdlib naming)
        srv = self.server
        host = (self.headers.get("Host") or "").split(":")[0]
        with srv.stats_lock:
            srv.inflight[host] = srv.inflight.get(host, 0) + 1
            srv.max_inflight[host] = max(
                srv.max_inflight.get(host, 0), srv.inflight[host]
            )
            srv.hits.append((host, self.path))
        try:
            if srv.sleep_s:
                time.sleep(srv.sleep_s)
            rec = SPEC.get(host, {}).get(self.path)
            if rec is None:
                status, ct, body, loc = 404, "text/plain", b"missing", ""
            else:
                status, ct, body, loc = rec
            self.send_response_only(status)
            if ct:
                self.send_header("Content-Type", ct)
            if loc:
                self.send_header("Location", loc)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        finally:
            with srv.stats_lock:
                srv.inflight[host] -= 1

    def log_message(self, *a):  # silence
        pass


@pytest.fixture()
def http_server():
    srv = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    srv.stats_lock = threading.Lock()
    srv.inflight, srv.max_inflight, srv.hits = {}, {}, []
    srv.sleep_s = 0.0
    t = threading.Thread(target=srv.serve_forever, daemon=True)
    t.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _resolve_to(srv, *hosts):
    port = srv.server_address[1]
    return {h: ("127.0.0.1", port) for h in hosts}


def _frontier_batch(urls, host="h.example"):
    n = len(urls)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "surt": pa.array([f"s{i}" for i in range(n)], pa.string()),
            "host": pa.array([host] * n, pa.string()),
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


def _pages_table():
    """The same SPEC as a SyntheticFetcher pages fixture."""
    rows = []
    for host, paths in SPEC.items():
        for path, (st, ct, body, loc) in paths.items():
            rows.append((f"http://{host}{path}", st, ct, body, 1.0, loc))
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


GOLDEN_URLS = [
    "http://h.example/a",      # direct 200
    "http://h.example/r1",     # 1 hop
    "http://h.example/r2",     # 2 hops
    "http://x.example/hop",    # cross-host 307 chase
    "http://h.example/loopa",  # loop -> fail
    "http://h.example/deep0",  # 5 hops > MAX_REDIRECTS=4 -> fail
    "http://h.example/bad",    # 3xx without Location -> http status 301
    "http://h.example/gone",   # 404
]


def test_http_fetcher_redirect_chase(http_server):
    """The SyntheticFetcher golden, over real sockets."""
    f = HttpFetcher(
        resolve_to=_resolve_to(http_server, "h.example", "x.example"),
        now_us=0,
    )
    out = f(_frontier_batch(GOLDEN_URLS)).to_pylist()
    direct, one, two, hop, loop, deep, bad, gone = out

    assert direct["success"] and direct["n_redirects"] == 0
    assert direct["final_url"] == "http://h.example/a"
    assert direct["content"] == b"<html>A</html>"

    assert one["success"] and one["status_code"] == 200
    assert one["redirect_chain"] == ["http://h.example/a"]
    hdr = dict(one["headers"])
    assert hdr["location"] == "http://h.example/a"
    assert hdr["content-type"] == "text/html"

    assert two["success"] and two["n_redirects"] == 2
    assert two["redirect_chain"] == ["http://h.example/r1", "http://h.example/a"]

    assert hop["success"] and hop["final_url"] == "http://h.example/a"
    assert hop["n_redirects"] == 1

    assert not loop["success"] and loop["error"] == "too many redirects"
    assert loop["status_code"] == 302

    assert not deep["success"] and deep["error"] == "too many redirects"

    assert not bad["success"] and bad["error"] == "http status 301"
    assert bad["content"] is None

    assert not gone["success"] and gone["status_code"] == 404
    assert gone["error"] == "http status 404"


def test_http_vs_synthetic_contract_parity(http_server, ray_session):
    """Both fetchers over the SAME page spec produce identical FETCH
    rows (modulo wall-clock fetch_ms): the A-F interface is one
    contract with two transports."""
    import ray

    ref = ray.put(pages_index(_pages_table()))
    syn = SyntheticFetcher(ref, now_us=7)
    real = HttpFetcher(
        resolve_to=_resolve_to(http_server, "h.example", "x.example"),
        now_us=7,
    )
    batch = _frontier_batch(GOLDEN_URLS)
    a = syn(batch).drop_columns(["fetch_ms"])
    b = real(batch).drop_columns(["fetch_ms"])
    assert a.schema == b.schema
    assert a.to_pylist() == b.to_pylist()


def test_http_per_host_connection_cap(http_server):
    """maxsize+block on the per-host pool IS the connection cap: 12
    concurrent fetch threads against one host never open more than
    max_per_host sockets (server-observed in-flight high-water mark)."""
    http_server.sleep_s = 0.03
    f = HttpFetcher(
        resolve_to=_resolve_to(http_server, "h.example"),
        max_per_host=2,
        max_workers=12,
        now_us=0,
    )
    urls = ["http://h.example/a", "http://h.example/gone"] * 6
    out = f(_frontier_batch(urls))
    assert out.num_rows == 12
    assert http_server.max_inflight.get("h.example", 0) <= 2
    # and the cap was actually exercised (not serialized to 1)
    assert http_server.max_inflight["h.example"] == 2


def test_http_timeout_and_connect_errors(http_server):
    f = HttpFetcher(
        resolve_to={
            "h.example": ("127.0.0.1", http_server.server_address[1]),
            # a port nothing listens on: connect refused
            "dead.example": ("127.0.0.1", 1),
        },
        timeout_s=0.2,
        now_us=0,
    )
    http_server.sleep_s = 1.0  # > timeout
    out = f(
        _frontier_batch(["http://h.example/a", "http://dead.example/x"])
    ).to_pylist()
    http_server.sleep_s = 0.0
    slow, dead = out
    assert not slow["success"] and slow["status_code"] == -1
    assert slow["error"].startswith("timeout")
    assert not dead["success"] and dead["status_code"] == -1
    assert dead["error"].startswith("connect")


def test_http_keepalive_reuse(http_server):
    """Sequential fetches to one host reuse the pooled socket (the
    handler thread count equals the connection count, not the request
    count, under HTTP/1.1 keep-alive)."""
    f = HttpFetcher(
        resolve_to=_resolve_to(http_server, "h.example"),
        max_per_host=1,
        max_workers=1,
        now_us=0,
    )
    urls = ["http://h.example/a"] * 5
    out = f(_frontier_batch(urls))
    assert out.num_rows == 5
    assert len(http_server.hits) == 5
    assert http_server.max_inflight["h.example"] == 1
    assert len(f.pools) == 1  # one pool, reused across the batch


def test_http_fetch_dataset_integration(http_server, ray_session):
    """The crawl loop's stage contract: fetch_dataset with
    fetcher_cls=HttpFetcher runs the live client inside Ray workers
    (per-process cached, in the epoch's host-slice tasks) and brings
    the fetch log, without bodies, to the driver."""
    from heroshi_ray.stages.fetch import fetch_dataset

    out = fetch_dataset(
        _frontier_batch(GOLDEN_URLS),
        pages_ref=None,
        now_us=7,
        batch_size=4,
        fetcher_cls=HttpFetcher,
        fetcher_kwargs={
            "resolve_to": _resolve_to(http_server, "h.example", "x.example"),
        },
    ).materialize().log.to_pandas()
    assert "content" not in out.columns
    assert len(out) == len(GOLDEN_URLS)
    byurl = out.set_index("url")
    assert bool(byurl.loc["http://h.example/a", "success"])
    assert byurl.loc["http://h.example/r2", "n_redirects"] == 2
    assert byurl.loc["http://h.example/gone", "status_code"] == 404
