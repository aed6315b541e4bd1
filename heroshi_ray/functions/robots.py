"""robots.txt parsing and matching (SURVEY.md §2.2 M11).

Heroshi's io-worker fetches and honors robots.txt per host (reference
unavailable — SURVEY.md §0 [UPSTREAM-H]). This implements the public
robots exclusion protocol (RFC 9309): group selection for our UA (the
longest group token that prefixes it, else ``*``; every group naming
that token applies, merged), ``Allow`` / ``Disallow`` with
longest-match-wins (allow wins length ties), ``*`` wildcards and ``$``
end anchors, and ``Crawl-delay`` (non-RFC but widely used; heroshi-era
crawlers honor it). Rule patterns are percent-normalised like the
canonical URLs they are matched against.

Parsing returns a plain tuple-of-tuples (picklable, broadcastable via
``ray.put``); matching compiles each rule to a regex lazily with an
LRU-style cache keyed by the rule string.
"""

from __future__ import annotations

import re
from functools import lru_cache

from .urlnorm import pct_normalize

DEFAULT_CRAWL_DELAY_S = 1.0

# rules: tuple of (pattern:str, allow:bool) ; parsed robots = (rules, crawl_delay_s)
Rules = tuple[tuple[tuple[str, bool], ...], float]

ALLOW_ALL: Rules = ((), DEFAULT_CRAWL_DELAY_S)


def parse_robots(body: str | None, status: int = 200, ua: str = "heroshi-ray") -> Rules:
    """Parse a robots.txt body into (rules, crawl_delay_s).

    ``status`` 404/410 (or empty body) -> allow-all with the default
    delay; 5xx -> conservative disallow-all (RFC 9309 §2.3.1.4 allows
    treating unreachable as full-disallow).
    """
    if status >= 500:
        return ((("/", False),), DEFAULT_CRAWL_DELAY_S)
    if status in (404, 410) or body is None or not body.strip():
        return ALLOW_ALL

    ua = ua.lower()
    groups: list[tuple[list[str], list[tuple[str, bool]], float | None]] = []
    cur_uas: list[str] = []
    cur_rules: list[tuple[str, bool]] = []
    cur_delay: float | None = None
    last_was_ua = False

    def flush():
        nonlocal cur_uas, cur_rules, cur_delay
        if cur_uas:
            groups.append((cur_uas, cur_rules, cur_delay))
        cur_uas, cur_rules, cur_delay = [], [], None

    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, _, value = line.partition(":")
        field = field.strip().lower()
        value = value.strip()
        if field == "user-agent":
            if not last_was_ua:
                flush()
            if value:  # an empty token names no crawler
                cur_uas.append(value.lower())
            last_was_ua = True
            continue
        last_was_ua = False
        if field == "disallow":
            if value:
                cur_rules.append((pct_normalize(value), False))
            # empty Disallow: allow all (no rule)
        elif field == "allow":
            if value:
                cur_rules.append((pct_normalize(value), True))
        elif field == "crawl-delay":
            try:
                cur_delay = float(value)
            except ValueError:
                pass
    flush()

    # the token we obey: the longest group token that is a prefix of our
    # UA, else "*". A prefix, not an arbitrary substring: a group "a"
    # must not grab "heroshi-ray", while a group "heroshi" applies to it
    tokens = {g for uas, _, _ in groups for g in uas}
    named = [g for g in tokens if g != "*" and ua.startswith(g)]
    token = max(named, key=len) if named else "*"
    # RFC 9309 §2.2.1: every group naming that token applies, merged; the
    # first Crawl-delay among them wins
    merged = [(rules, delay) for uas, rules, delay in groups if token in uas]
    if not merged:
        return ALLOW_ALL
    rules = tuple(r for rs, _ in merged for r in rs)
    delays = [d for _, d in merged if d is not None]
    return rules, (delays[0] if delays else DEFAULT_CRAWL_DELAY_S)


@lru_cache(maxsize=8192)
def _rule_re(pattern: str) -> re.Pattern:
    # translate robots pattern: '*' -> '.*', trailing '$' anchors
    anchored = pattern.endswith("$")
    if anchored:
        pattern = pattern[:-1]
    parts = [re.escape(p) for p in pattern.split("*")]
    rx = ".*".join(parts)
    if anchored:
        rx += "$"
    return re.compile(rx)


def allowed(rules: Rules, path: str) -> bool:
    """Longest-match-wins check of ``path`` against parsed rules.

    Match length = length of the literal rule string (public convention);
    Allow wins ties. No matching rule -> allowed.
    """
    best_len = -1
    best_allow = True
    for pattern, is_allow in rules[0]:
        if _rule_re(pattern).match(path):
            plen = len(pattern)
            if plen > best_len or (plen == best_len and is_allow and not best_allow):
                best_len = plen
                best_allow = is_allow
    return best_allow


def crawl_delay(rules: Rules) -> float:
    return rules[1]


def sitemaps(body: str | None) -> list[str]:
    """Extract ``Sitemap:`` directive URLs from a robots.txt body — the
    sitemaps.org autodiscovery channel (the directive is group-
    independent per the protocol: it applies regardless of User-agent
    sections, so this scans every line). Order preserved, '#' comments
    stripped, blank values skipped."""
    if not body:
        return []
    out: list[str] = []
    for raw in body.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line or ":" not in line:
            continue
        field, value = line.split(":", 1)
        if field.strip().lower() == "sitemap":
            v = value.strip()
            if v:
                out.append(v)
    return out
