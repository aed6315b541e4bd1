"""A-R — robots.txt cache actor pool (SURVEY.md §2.3; BASELINE.json:6
"robots.txt cache actors").

Heroshi's io-worker caches parsed robots per host ([UPSTREAM-M],
reference unavailable). Here the cache is an actor pool sharded by
``hash64(host) % n_shards``: each shard holds ``{host: (rules, fetched
epoch)}`` with TTL, and synthesizes a robots-fetch through the provided
fetch function on miss (in-sandbox: the robots fixture table; in
production: an HTTP GET of /robots.txt).

The driver-broadcast path (one parsed robots dict for every host, put
once and matched through stages.schedule.vector_robots_for) is the
right call when that dict fits in one object (≤ ~1e6 hosts); this pool
is the scale path beyond that — the epoch handout then RPCs
``rules_for(hosts)`` once per frontier part, for the hosts it has not
asked about yet this epoch.
"""

from __future__ import annotations

import numpy as np

import ray

from ..functions.hashing import hash64
from ..functions.robots import Rules, parse_robots


@ray.remote(num_cpus=0.1)
class RobotsShard:
    def __init__(self, fetch_table: dict | None, ttl_epochs: int = 1000,
                 ua: str = "heroshi-ray"):
        # fetch_table: {host: (body, status)} — the sandbox "network"
        self.fetch_table = fetch_table or {}
        self.ttl = ttl_epochs
        self.ua = ua
        self.cache: dict[str, tuple[Rules, int]] = {}

    def _fetch_and_parse(self, host: str) -> Rules:
        body, status = self.fetch_table.get(host, (None, 404))
        return parse_robots(body, status=status, ua=self.ua)

    def rules_for(self, hosts: list[str], epoch: int = 0) -> list[Rules]:
        out = []
        for h in hosts:
            hit = self.cache.get(h)
            if hit is None or epoch - hit[1] > self.ttl:
                rules = self._fetch_and_parse(h)
                self.cache[h] = (rules, epoch)
                out.append(rules)
            else:
                out.append(hit[0])
        return out

    def stats(self) -> dict:
        return {"hosts_cached": len(self.cache)}


class RobotsCache:
    """Driver-side handle bundle; shard routing mirrors SeenSet."""

    def __init__(self, fetch_table: dict | None, n_shards: int = 2,
                 ttl_epochs: int = 1000, ua: str = "heroshi-ray"):
        self.n_shards = n_shards
        self.shards = [
            RobotsShard.remote(fetch_table, ttl_epochs, ua) for _ in range(n_shards)
        ]

    def rules_for(self, hosts: list[str], epoch: int = 0) -> dict[str, Rules]:
        if not hosts:
            return {}
        sh = (hash64(hosts) % np.uint64(self.n_shards)).astype(np.int64)
        refs, idxs = [], []
        for s in np.unique(sh):
            idx = np.flatnonzero(sh == s)
            refs.append(self.shards[int(s)].rules_for.remote(
                [hosts[i] for i in idx], epoch))
            idxs.append(idx)
        out: dict[str, Rules] = {}
        for idx, res in zip(idxs, ray.get(refs)):
            for i, r in zip(idx, res):
                out[hosts[i]] = r
        return out

    def stats(self) -> list[dict]:
        return ray.get([s.stats.remote() for s in self.shards])

    def shutdown(self) -> None:
        for s in self.shards:
            ray.kill(s)
        self.shards = []
