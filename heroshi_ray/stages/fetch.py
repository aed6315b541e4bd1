"""A-F — the fetcher stage (SURVEY.md §2.3).

Heroshi's io-worker is a "dumb" concurrent fetcher: URLs in, one result
record per URL out ([UPSTREAM-H], reference unavailable). Here the
fetcher is a callable CLASS, and ``fetch_dataset`` runs one epoch's
fetch as a round of plain Ray tasks, one per host slice of the
scheduled rows (``host_slices``). Each task fetches its slice in
``batch_size`` batches and runs ``stages/extract.FusedExtractor`` on
each fetched batch; both stage instances are cached per worker process
(``runtime.task_stage``), so setup (session pool / page index) happens
once per process in ``__init__`` and survives epochs. Page bodies and
image bytes stay in the tasks and the object store; only a per-slice
summary reaches the driver.

The sandbox has no network (SURVEY.md §7.6), so ``SyntheticFetcher``
resolves against the deterministic pages fixture, shipped ONCE via
``ray.put`` and read per worker process in ``__init__`` (broadcast, not
re-shipped per batch). Its interface — FRONTIER rows in, FETCH rows
out — is exactly what a real HTTP fetcher would implement; swap the
class to go live.
"""

from __future__ import annotations

import heapq

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray

from ..runtime import cluster_cpus, task_stage
from ..schemas import CORPUS, FETCH
from .extract import IMAGE_FIELDS, FusedExtractor


REDIRECT_STATUSES = (301, 302, 303, 307, 308)
MAX_REDIRECTS = 4


def pages_index(pages: pa.Table) -> dict:
    """url -> (status, content_type, body, fetch_ms, location) lookup."""
    urls = pages.column("url").to_pylist()
    st = pages.column("status_code").to_pylist()
    ct = pages.column("content_type").to_pylist()
    body = pages.column("body").to_pylist()
    ms = pages.column("fetch_ms").to_pylist()
    loc = (
        pages.column("location").to_pylist()
        if "location" in pages.column_names
        else [""] * len(urls)
    )
    return {
        u: (s, c, b, m, lo) for u, s, c, b, m, lo in zip(urls, st, ct, body, ms, loc)
    }


class SyntheticFetcher:
    """Deterministic in-sandbox stand-in for an HTTP fetcher.

    Follows 3xx redirect chains itself (bounded at MAX_REDIRECTS hops,
    like heroshi's Go http.Client): the terminal page's status/body is
    the result, ``final_url`` / ``redirect_chain`` record the chase so
    the crawl loop can mark the discovered URLs seen (they flow through
    canonicalize like links). A loop or over-long chain fails the fetch
    with the last 3xx status (non-retryable)."""

    def __init__(self, pages_ref, now_us: int = 0, counters=None):
        from ..functions.urlnorm import resolve

        obj = ray.get(pages_ref)  # broadcast: one get per PROCESS, zero per batch
        # an Arrow pages TABLE ships zero-copy through the object store
        # (a 146k-entry dict cost ~1 s to build+pickle on the driver);
        # the url->row dict is built here, once per worker process
        self.pages = pages_index(obj) if isinstance(obj, pa.Table) else obj
        self.now_us = now_us
        self.counters = counters  # A-C actor handle; fire-and-forget reporting
        self.resolve = resolve

    def _fetch_one(self, url: str):
        """-> (status, ctype, body, ms, error, final_url, chain)."""
        cur = url
        chain: list[str] = []
        total_ms = 0.0
        while True:
            rec = self.pages.get(cur)
            if rec is None:
                return -1, "", None, total_ms + 1.0, "connect: host unreachable", cur, chain
            s, c, b, m, loc = rec
            total_ms += m
            if s in REDIRECT_STATUSES and loc:
                nxt = self.resolve(cur, loc)
                if nxt is None:
                    return s, c, None, total_ms, f"bad Location {loc!r}", cur, chain
                if len(chain) >= MAX_REDIRECTS or nxt in chain or nxt == url:
                    return s, c, None, total_ms, "too many redirects", nxt, chain
                chain.append(nxt)
                cur = nxt
                continue
            if s == 200:
                return s, c, b, total_ms, "", cur, chain
            return s, c, None, total_ms, f"http status {s}", cur, chain

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        results = [self._fetch_one(u) for u in urls]
        _report_counters(self.counters, urls, results)
        return _results_table(batch, urls, results, self.now_us)


def _results_table(
    batch: pa.Table, urls: list, results: list, now_us: int
) -> pa.Table:
    """(status, ctype, body, ms, error, final_url, chain) tuples ->
    FETCH rows + frontier passthrough columns. Shared by every fetcher
    implementation so the crawl loop sees ONE schema regardless of
    which fetcher class the config selects."""
    n = len(urls)
    status = np.empty(n, dtype=np.int32)
    success = np.empty(n, dtype=bool)
    ctypes: list[str] = []
    bodies: list[bytes | None] = []
    errs: list[str] = []
    finals: list[str] = []
    chains: list[list[str]] = []
    headers: list[list[tuple[str, str]]] = []
    ms = np.empty(n, dtype=np.float64)
    for i, (s, c, b, m, err, fin, chain) in enumerate(results):
        status[i] = s
        success[i] = s == 200 and not err
        ctypes.append(c)
        bodies.append(b)
        errs.append(err)
        finals.append(fin)
        chains.append(chain)
        ms[i] = m
        hdr = [("content-type", c)] if c else []
        if chain:
            hdr.append(("location", chain[0]))
        headers.append(hdr)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "surt": batch.column("surt"),
            "host": batch.column("host"),
            "status_code": pa.array(status, pa.int32()),
            "success": pa.array(success, pa.bool_()),
            "headers": pa.array(headers, pa.map_(pa.string(), pa.string())),
            "content": pa.array(bodies, pa.binary()),
            "content_type": pa.array(ctypes, pa.string()),
            "fetch_ms": pa.array(ms, pa.float64()),
            "fetched_at": pa.array(
                np.full(n, now_us, dtype=np.int64), pa.timestamp("us")
            ),
            "error": pa.array(errs, pa.string()),
            "final_url": pa.array(finals, pa.string()),
            "n_redirects": pa.array(
                np.array([len(c) for c in chains], dtype=np.int32), pa.int32()
            ),
            "redirect_chain": pa.array(chains, pa.list_(pa.string())),
        },
        schema=FETCH,
    ).append_column(
        # passthrough frontier context for downstream extract/retry logic
        "depth", batch.column("depth")
    ).append_column("retries", batch.column("retries")).append_column(
        "priority", batch.column("priority")
    )


def _report_counters(counters, urls: list, results: list) -> None:
    if counters is None or not urls:
        return
    from ..state.seen import idem_token

    ok = sum(1 for s, _c, _b, _m, err, _f, _ch in results if s == 200 and not err)
    # retry-stable token (task id + url digest): a Ray-retried
    # task re-reports with the same token and the counters actor
    # drops the duplicate; a content-only token would also drop
    # a later LEGITIMATE re-fetch of the same url batch (e.g. a
    # retry epoch), undercounting fetch_ok/fetch_err
    tok = idem_token("\n".join(urls).encode())
    counters.add.remote(_token=tok, fetch_ok=ok, fetch_err=len(urls) - ok)


class HttpFetcher:
    """REAL HTTP fetcher behind the same A-F interface as
    ``SyntheticFetcher`` (FRONTIER rows in, FETCH rows out; same bounded
    redirect state machine, same error-string shapes, same output
    schema), modeled on heroshi's io-worker: a concurrent HTTP client
    with per-host connection caps, timeouts and bounded 3xx chases.

    - ONE ``urllib3`` connection pool per (scheme, host, port):
      keep-alive reuse, and ``maxsize=max_per_host, block=True`` makes
      the POOL the per-host connection cap (the io-worker politeness
      backstop — global politeness remains the schedule stage's
      token buckets).
    - no library-level retries or redirects: the chase is the same
      explicit loop as SyntheticFetcher (MAX_REDIRECTS hops, loop
      detection, ``resolve()`` for relative Locations) so both
      fetchers pass the same golden/redirect suite.
    - batch fan-out on a per-instance thread pool (I/O-bound; threads
      block on sockets, not the GIL). Setup happens once per instance
      in ``__init__`` — pools and the executor survive across batches.
    - ``resolve_to`` maps virtual hosts to (address, port) without
      touching the URL or Host header (split-horizon DNS hook; the
      no-network sandbox contract-tests through it against an
      in-process localhost server, tests/test_http_fetcher.py).

    ``now_us=None`` stamps rows with the real clock; tests pass a fixed
    value for deterministic comparisons with the synthetic twin."""

    def __init__(
        self,
        resolve_to: dict | None = None,
        max_per_host: int = 2,
        timeout_s: float = 10.0,
        max_workers: int = 16,
        ua: str = "heroshi-ray",
        now_us: int | None = None,
        counters=None,
        max_body_bytes: int = 16 << 20,
    ):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        from ..functions.urlnorm import resolve

        self.resolve = resolve
        self.resolve_to = resolve_to or {}
        self.max_per_host = max_per_host
        self.timeout_s = timeout_s
        self.ua = ua
        self.now_us = now_us
        self.counters = counters
        self.max_body_bytes = max_body_bytes
        self.pools: dict = {}
        self._lock = threading.Lock()
        self.executor = ThreadPoolExecutor(max_workers=max_workers)

    def _pool(self, scheme: str, host: str, port: int):
        import urllib3

        key = (scheme, host, port)
        with self._lock:
            p = self.pools.get(key)
            if p is None:
                addr, aport = self.resolve_to.get(host, (host, port))
                cls = (
                    urllib3.HTTPSConnectionPool
                    if scheme == "https"
                    else urllib3.HTTPConnectionPool
                )
                p = cls(
                    addr,
                    port=aport,
                    maxsize=self.max_per_host,
                    block=True,  # the per-host connection cap
                    timeout=urllib3.Timeout(
                        connect=self.timeout_s, read=self.timeout_s
                    ),
                    retries=False,
                    headers={"User-Agent": self.ua, "Host": host},
                )
                self.pools[key] = p
        return p

    def _request(self, url: str):
        """One GET, no redirect following -> (status, ctype, location,
        body-or-None). Raises on transport errors."""
        from urllib.parse import urlsplit

        sp = urlsplit(url)
        port = sp.port or (443 if sp.scheme == "https" else 80)
        path = sp.path or "/"
        if sp.query:
            path += "?" + sp.query
        pool = self._pool(sp.scheme, sp.hostname or "", port)
        r = pool.urlopen("GET", path, redirect=False, preload_content=False)
        try:
            body = r.read(self.max_body_bytes + 1)
            if len(body) > self.max_body_bytes:
                raise ValueError(f"body exceeds {self.max_body_bytes} bytes")
        finally:
            r.release_conn()
        return (
            int(r.status),
            r.headers.get("Content-Type", "") or "",
            r.headers.get("Location", "") or "",
            body,
        )

    def _fetch_one(self, url: str):
        """Same contract and state machine as SyntheticFetcher._fetch_one:
        -> (status, ctype, body, ms, error, final_url, chain)."""
        import time

        cur = url
        chain: list[str] = []
        total_ms = 0.0
        while True:
            t0 = time.perf_counter()
            try:
                s, c, loc, body = self._request(cur)
            except Exception as exc:
                total_ms += (time.perf_counter() - t0) * 1000.0
                name = type(exc).__name__
                kind = "timeout" if "Timeout" in name else "connect"
                return -1, "", None, total_ms, f"{kind}: {name}: {exc}", cur, chain
            total_ms += (time.perf_counter() - t0) * 1000.0
            if s in REDIRECT_STATUSES and loc:
                nxt = self.resolve(cur, loc)
                if nxt is None:
                    return s, c, None, total_ms, f"bad Location {loc!r}", cur, chain
                if len(chain) >= MAX_REDIRECTS or nxt in chain or nxt == url:
                    return s, c, None, total_ms, "too many redirects", nxt, chain
                chain.append(nxt)
                cur = nxt
                continue
            if s == 200:
                return s, c, body, total_ms, "", cur, chain
            return s, c, None, total_ms, f"http status {s}", cur, chain

    def __call__(self, batch: pa.Table) -> pa.Table:
        import time

        urls = batch.column("url").to_pylist()
        results = list(self.executor.map(self._fetch_one, urls))
        _report_counters(self.counters, urls, results)
        now_us = (
            self.now_us if self.now_us is not None else int(time.time() * 1e6)
        )
        return _results_table(batch, urls, results, now_us)


def host_slices(hosts, batch_size: int, n_cpus: int) -> list[np.ndarray]:
    """Split an epoch's scheduled rows by host: the row indices (ascending,
    so each slice keeps the schedule order) of k = min(``n_cpus``,
    ceil(rows / ``batch_size``)) slices, and no more slices than hosts,
    because a host is never split: every host's rows are in exactly one
    slice, so a live ``HttpFetcher``'s ``max_per_host`` stays a per-host
    cap. Hosts are dealt largest first (ties by name), each to the slice
    with the fewest rows so far (lowest index on ties), so the split
    depends only on the rows and no slice is empty."""
    n = len(hosts)
    if n == 0:
        return []
    names, codes = np.unique(
        np.asarray(hosts.to_pylist(), dtype=object), return_inverse=True
    )
    counts = np.bincount(codes)
    k = min(n_cpus, -(-n // batch_size), len(names))
    load = [(0, i) for i in range(k)]
    owner = np.empty(len(names), dtype=np.int64)
    # names are sorted, so a stable sort on -count breaks ties by name
    for h in np.argsort(-counts, kind="stable"):
        rows, i = heapq.heappop(load)
        owner[h] = i
        heapq.heappush(load, (rows + int(counts[h]), i))
    slot = owner[codes]
    return [np.flatnonzero(slot == i) for i in range(k)]


# CORPUS rows plus ``url``, the caption join key (Crawler._attach_captions)
_IMAGE_ROWS = CORPUS.append(pa.field("url", pa.string()))


def _ipc(table: pa.Table) -> pa.Buffer:
    """``table`` as one Arrow IPC stream: a task returns it in about half
    the time a pickled pa.Table takes (a few ms per task round)."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue()


def _extract_block_summary(block: pa.Table):
    """FusedExtractor rows -> ((fetch-log rows, captioned link rows, link
    count, image URLs), link rows); the two tables of the first as
    ``_ipc`` streams. The image URLs are the caption join keys of the
    block's corpus rows (what ``_image_rows`` puts in ``url``)."""
    links = pa.Table.from_struct_array(
        pc.list_flatten(block.column("links").combine_chunks())
    )
    caps = links.filter(pc.not_equal(links.column("caption"), "")).select(
        ["url", "caption"]
    )
    img_urls = pc.filter(
        block.column("final_url"), pc.is_valid(block.column("image_id"))
    ).combine_chunks()
    log = block.drop_columns(["links", *IMAGE_FIELDS])
    return (_ipc(log), _ipc(caps), links.num_rows, img_urls), links


def _image_rows(block: pa.Table) -> pa.Table:
    """FusedExtractor rows -> CORPUS rows (+ the ``url`` join key) of the
    decodable images; the caption is attached by ``_attach_captions``."""
    b = block.filter(pc.is_valid(block.column("image_id")))
    cols = {f: b.column(f) for f in IMAGE_FIELDS}
    cols["caption"] = pa.array([""] * b.num_rows, pa.string())
    # ImageRowBuilder keys image rows on the URL that served them
    cols["url"] = b.column("final_url")
    return pa.table(cols).select(_IMAGE_ROWS.names).cast(_IMAGE_ROWS)


@ray.remote(num_returns=3)
def _fetch_slice(rows: pa.Table, fetcher: tuple, now_us: int, batch_size: int):
    """One host slice of an epoch: fetch -> FusedExtractor per
    ``batch_size`` batch -> (summary, link rows, image rows). ``fetcher``
    is (class, ctor kwargs); the kwargs travel nested, so an ObjectRef
    among them (``pages_ref``) reaches the constructor unresolved."""
    cls, kwargs = fetcher
    fetch = task_stage(cls, kwargs, volatile={"now_us": now_us})
    extract = task_stage(FusedExtractor)
    fused = pa.concat_tables(
        [
            extract(fetch(rows.slice(i, batch_size)))
            for i in range(0, rows.num_rows, batch_size)
        ]
    )
    summary, links = _extract_block_summary(fused)
    return summary, links, _image_rows(fused)


class FetchRound:
    """The running tasks of one epoch's fetch -> extract round, one per
    host slice. ``links`` and ``images`` hold each slice's link rows and
    image rows (``_IMAGE_ROWS``) as object refs; they stay in the object
    store. ``materialize`` is the epoch's barrier 1: it waits for every
    slice and brings only the summaries to the driver."""

    def __init__(self, outs: list):
        self.summary_refs = [s for s, _, _ in outs]
        self.links = [lk for _, lk, _ in outs]
        self.images = [im for _, _, im in outs]

    def materialize(self) -> "FetchRound":
        """Sets ``log`` (fetch-log rows, no bodies), ``captions`` (url,
        caption of every captioned link), ``n_links`` and ``image_urls``
        (one array per slice)."""
        summaries = ray.get(self.summary_refs)
        self.log, self.captions = (
            pa.concat_tables([pa.ipc.open_stream(s[i]).read_all() for s in summaries])
            for i in (0, 1)
        )
        self.n_links = sum(s[2] for s in summaries)
        self.image_urls = [s[3] for s in summaries]
        return self


def fetch_dataset(
    scheduled: pa.Table,
    pages_ref,
    now_us: int = 0,
    batch_size: int = 256,
    counters=None,
    fetcher_cls=None,
    fetcher_kwargs: dict | None = None,
) -> FetchRound:
    """A-F stage with the fused extract: starts one ``_fetch_slice`` task
    per ``host_slices`` slice of the (non-empty) ``scheduled`` FRONTIER
    rows and returns the round without waiting. Default fetcher is the
    in-sandbox SyntheticFetcher; pass ``fetcher_cls=HttpFetcher`` (plus
    its kwargs) to go live — CrawlConfig.fetcher_cls/fetcher_kwargs
    route here. The fetcher instance is cached per worker PROCESS and
    survives epochs (see runtime.task_stage); ``now_us`` is set on it
    before each batch. ``perfbench/trace.py`` wraps it by this name."""
    if fetcher_cls is None:
        cls, kwargs = SyntheticFetcher, {
            "pages_ref": pages_ref, "counters": counters,
        }
    else:
        cls = fetcher_cls
        kwargs = dict(fetcher_kwargs or {})
        kwargs.setdefault("counters", counters)
    slices = host_slices(scheduled.column("host"), batch_size, cluster_cpus())
    return FetchRound(
        [
            _fetch_slice.remote(
                scheduled.take(ix), (cls, kwargs), now_us, batch_size
            )
            for ix in slices
        ]
    )
