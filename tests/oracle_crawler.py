"""Single-process oracle crawler — the reference semantics (SURVEY.md §3.3, §5.2).

/root/reference was empty at build time, so "matching the reference's
crawl ordering and URL-seen set" (BASELINE.json:14) is verified against
this brutally simple implementation: plain dicts and sorts, no Ray, no
Datasets. It shares only the *pure semantic functions* with the engine
(canonicalize, robots matching, priority scoring, extraction regexes,
cuckoo membership, token buckets) and implements the orchestration —
dedup, budgets, ordering, retries, caption pairing — independently, so
the golden test validates the engine's distributed orchestration.

The seen set is a replica of the engine's sharded cuckoo configuration
(same hash64 routing, shard count, capacity): membership answers are
order-independent while no bucket eviction occurs (tiny load factors in
tests), so engine and oracle skip the exact same false positives.
"""

from __future__ import annotations

import pyarrow.parquet as pq

from heroshi_ray.functions.hashing import hash64
from heroshi_ray.functions.robots import ALLOW_ALL, allowed, crawl_delay, parse_robots
from heroshi_ray.functions.urlnorm import canonicalize, resolve
from heroshi_ray.functions.image import decode_image, phash64
from heroshi_ray.state.cuckoo import CuckooFilter
from heroshi_ray.state.tokenbucket import TokenBuckets
from heroshi_ray.stages.extract import _HREF_RE, _IMG_EXT_RE, _IMG_RE


class OracleSeen:
    def __init__(self, n_shards: int, capacity: int):
        self.shards = [CuckooFilter(capacity) for _ in range(n_shards)]
        self.n = n_shards

    def check_and_add(self, surt: str) -> bool:
        key = hash64([surt])
        shard = int(key[0] % self.n)
        return bool(self.shards[shard].add_if_absent_many(key)[0])


class OracleCrawler:
    def __init__(
        self,
        paths: dict,
        epoch_budget: int = 96,
        epoch_seconds: float = 6.0,
        burst: float = 5.0,
        max_epochs: int = 64,
        max_retries: int = 2,
        n_seen_shards: int = 4,
        seen_capacity: int = 1 << 18,
        retry_priority_decay: float = 0.5,
        ua: str = "heroshi-ray",
        max_depth: int = 64,
    ):
        self.epoch_budget = epoch_budget
        self.max_depth = max_depth
        self.epoch_seconds = epoch_seconds
        self.max_epochs = max_epochs
        self.max_retries = max_retries
        self.retry_priority_decay = retry_priority_decay

        pages = pq.read_table(paths["pages"])
        locs = (
            pages.column("location").to_pylist()
            if "location" in pages.column_names
            else [""] * pages.num_rows
        )
        self.pages = {
            u: (s, c, b, lo)
            for u, s, c, b, lo in zip(
                pages.column("url").to_pylist(),
                pages.column("status_code").to_pylist(),
                pages.column("content_type").to_pylist(),
                pages.column("body").to_pylist(),
                locs,
            )
        }
        robots = pq.read_table(paths["robots"])
        self.robots = {
            h: parse_robots(b, status=s, ua=ua)
            for h, b, s in zip(
                robots.column("host").to_pylist(),
                robots.column("robots_body").to_pylist(),
                robots.column("status").to_pylist(),
            )
        }
        with open(paths["seeds"]) as f:
            self.seeds = [line.strip() for line in f if line.strip()]

        self.seen = OracleSeen(n_seen_shards, seen_capacity)
        self.tb = TokenBuckets(epoch_seconds, burst)
        # pending: surt -> (url, host, priority, depth, parent_surt, retries)
        self.pending: dict[str, tuple] = {}
        self.schedule_log: list[tuple] = []  # (epoch, rank, host, url, surt)
        self.admitted: set[str] = set()
        self.captions: dict[str, str] = {}
        self.corpus: dict[str, dict] = {}
        self.denied: list[str] = []
        self.fetch_ok = 0
        self.fetch_err = 0

    # -- shared-semantics helpers ---------------------------------------
    @staticmethod
    def _priority(depth: int) -> float:
        return 1.0 / (1.0 + depth)

    @staticmethod
    def _path_of(url: str, host: str) -> str:
        i = url.find("://")
        j = url.find("/", i + 3 if i != -1 else 0)
        return url[j:] if j != -1 else "/"

    def _admit(self, cands: list[tuple]) -> None:
        """cands: (url, depth, parent_surt). Drop depth > max_depth ->
        canonicalize -> exact dedup (min (depth, parent_surt) per surt)
        -> cuckoo test-and-set."""
        best: dict[str, tuple] = {}
        for url, depth, parent in cands:
            if depth > self.max_depth:
                continue
            c = canonicalize(url)
            if c is None:
                continue
            cu, surt, host = c
            key = (depth, parent)
            if surt not in best or key < best[surt][0]:
                best[surt] = (key, cu, host)
        for surt in sorted(best):
            (depth, parent), cu, host = best[surt]
            if self.seen.check_and_add(surt):
                self.admitted.add(surt)
                self.pending[surt] = (cu, host, self._priority(depth), depth, parent, 0)

    def seed(self) -> None:
        self._admit([(u, 0, "") for u in self.seeds])

    # -- the epoch loop --------------------------------------------------
    def run_epoch(self, e: int) -> None:
        now_s = e * self.epoch_seconds
        # robots gate
        allowed_rows = {}
        for surt, row in list(self.pending.items()):
            url, host, *_ = row
            rules = self.robots.get(host)
            if rules is None or allowed(rules, self._path_of(url, host)):
                allowed_rows[surt] = row
            else:
                self.denied.append(surt)
                del self.pending[surt]
        # budgets
        hosts = sorted({r[1] for r in allowed_rows.values()})
        delays = {h: crawl_delay(self.robots.get(h, ALLOW_ALL)) for h in hosts}
        budgets = {h: self.tb.budget(h, now_s, delays[h]) for h in hosts}
        # K1 per-host top-budget then K2 global order
        per_host: dict[str, list] = {}
        for surt, (url, host, prio, depth, parent, retries) in allowed_rows.items():
            per_host.setdefault(host, []).append((-prio, surt))
        capped = []
        for h, rows in per_host.items():
            rows.sort()
            capped.extend(rows[: budgets.get(h, 0)])
        capped.sort()
        scheduled = capped[: self.epoch_budget]
        counts: dict[str, int] = {}
        cands: list[tuple] = []
        cap_pairs: list[tuple[str, str]] = []
        fetched_images: list[tuple] = []
        retry_rows: list[tuple] = []
        for rank, (negp, surt) in enumerate(scheduled):
            url, host, prio, depth, parent, retries = self.pending.pop(surt)
            counts[host] = counts.get(host, 0) + 1
            self.schedule_log.append((e, rank, host, url, surt))
            # fetch with a bounded 3xx chase (mirrors SyntheticFetcher):
            # terminal page's status/body is the result; every URL the
            # chase discovered is canonicalized and marked seen (never
            # re-fetched as a link), but NOT enqueued as pending
            from heroshi_ray.stages.fetch import MAX_REDIRECTS, REDIRECT_STATUSES

            cur, chain, err = url, [], ""
            status, ctype, body = -1, "", None
            while True:
                rec = self.pages.get(cur)
                if rec is None:
                    status, ctype, body, err = -1, "", None, "connect"
                    break
                s, c, b, loc = rec
                if s in REDIRECT_STATUSES and loc:
                    nxt = resolve(cur, loc)
                    if nxt is None:
                        status, ctype, body, err = s, c, None, "bad location"
                        break
                    if len(chain) >= MAX_REDIRECTS or nxt in chain or nxt == url:
                        status, ctype, body, err = s, c, None, "too many redirects"
                        cur = nxt
                        break
                    chain.append(nxt)
                    cur = nxt
                    continue
                status, ctype, body = s, c, (b if s == 200 else None)
                err = "" if s == 200 else f"http status {s}"
                break
            final_url = cur
            if chain or final_url != url:
                for u in set(chain) | {final_url}:
                    cc = canonicalize(u)
                    if cc is not None:
                        self.seen.check_and_add(cc[1])
            if status != 200 or err:
                self.fetch_err += 1
                if status >= 500 and retries < self.max_retries:
                    retry_rows.append(
                        (surt, url, host, prio * self.retry_priority_decay, depth,
                         retries + 1)
                    )
                continue
            self.fetch_ok += 1
            if ctype.startswith("text/html"):
                html = body.decode("utf-8", "replace")
                for href in _HREF_RE.findall(html):
                    r = resolve(final_url, href)
                    if r is not None:
                        cands.append((r, depth + 1, surt))
                for src, alt in _IMG_RE.findall(html):
                    r = resolve(final_url, src)
                    if r is not None:
                        cands.append((r, depth + 1, surt))
                        cap_pairs.append((r, alt or ""))
            elif ctype.startswith("image/"):
                fetched_images.append((final_url, body))
        # politeness consume
        for h, c in counts.items():
            self.tb.consume(h, now_s, delays[h], c)
        # caption pairing: min caption per url this epoch, first-wins overall
        pairs: dict[str, str] = {}
        for u, cap in cap_pairs:
            if cap and (u not in pairs or cap < pairs[u]):
                pairs[u] = cap
        for u, cap in pairs.items():
            self.captions.setdefault(u, cap)
        # corpus rows
        for url, body in fetched_images:
            m = _IMG_EXT_RE.search(url)
            if not m:
                continue
            image_id, fmt = m.group(1), m.group(2)
            try:
                px = decode_image(body, fmt)
            except (ValueError, NotImplementedError):
                continue
            self.corpus[image_id] = {
                "image_id": image_id,
                "bytes": body,
                "w": px.shape[1],
                "h": px.shape[0],
                "fmt": fmt,
                "caption": self.captions.get(url, ""),
                "phash": phash64(px),
            }
        # admit new candidates
        self._admit(cands)
        # retries re-enter directly (already marked seen)
        for surt, url, host, prio, depth, retries in retry_rows:
            self.pending[surt] = (url, host, prio, depth, "", retries)

    def run(self) -> None:
        self.seed()
        e = 0
        while e < self.max_epochs and self.pending:
            self.run_epoch(e)
            e += 1
        self.epochs_run = e

    # -- golden values ---------------------------------------------------
    def per_host_order(self) -> dict[str, list[str]]:
        out: dict[str, list[str]] = {}
        for epoch, rank, host, url, surt in self.schedule_log:
            out.setdefault(host, []).append(url)
        return out

    def seen_membership(self) -> set[str]:
        return set(self.admitted)
