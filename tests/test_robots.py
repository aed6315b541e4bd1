"""robots.txt parser + longest-match-wins semantics + token buckets."""

from __future__ import annotations

from heroshi_ray.functions.robots import allowed, crawl_delay, parse_robots
from heroshi_ray.state.tokenbucket import TokenBuckets

BODY = """
# sample
User-agent: *
Disallow: /private/
Allow: /private/ok/
Crawl-delay: 2

User-agent: googlebot
Disallow: /
"""


def test_basic_groups():
    r = parse_robots(BODY)
    assert allowed(r, "/index.html")
    assert not allowed(r, "/private/x")
    assert allowed(r, "/private/ok/y")  # longest match wins, allow beats shorter disallow
    assert crawl_delay(r) == 2.0


def test_specific_ua_group():
    r = parse_robots(BODY, ua="googlebot")
    assert not allowed(r, "/anything")


def test_404_allows_all():
    r = parse_robots(None, status=404)
    assert allowed(r, "/anything")
    assert crawl_delay(r) == 1.0


def test_5xx_disallows_all():
    r = parse_robots("", status=503)
    assert not allowed(r, "/x")


def test_wildcards_and_anchor():
    r = parse_robots("User-agent: *\nDisallow: /*.gif$\nDisallow: /tmp/*/x\n")
    assert not allowed(r, "/pics/a.gif")
    assert allowed(r, "/pics/a.gift")
    assert not allowed(r, "/tmp/abc/x")
    assert allowed(r, "/tmp/abc/y")


def test_empty_disallow_allows():
    r = parse_robots("User-agent: *\nDisallow:\n")
    assert allowed(r, "/x")


def test_tie_allow_wins():
    r = parse_robots("User-agent: *\nDisallow: /a/\nAllow: /a/\n")
    assert allowed(r, "/a/x")


# RFC 9309 forms the fixture robots never use: percent-escaped rule
# patterns (matched against percent-normalised URL paths) and two groups
# for the same agent, which §2.2.1 merges
PCT_BODY = "User-agent: *\nDisallow: /%7Ejoe/\nDisallow: /a%2fb\n"
TWO_STAR_BODY = "User-agent: *\nDisallow: /a\n\nUser-agent: *\nDisallow: /b\n"
# a group whose User-agent line is empty: an empty token names no
# crawler, so only the "*" group applies to us
EMPTY_AGENT_BODY = "User-agent:\nDisallow: /\n\nUser-agent: *\nDisallow: /x\n"


def test_rule_patterns_percent_normalised():
    r = parse_robots(PCT_BODY)
    assert not allowed(r, "/~joe/x")
    assert not allowed(r, "/a%2Fb")
    assert allowed(r, "/joe/x")


def test_same_agent_groups_merge():
    r = parse_robots(TWO_STAR_BODY)
    assert not allowed(r, "/a/x")
    assert not allowed(r, "/b/x")
    assert allowed(r, "/c")


def test_empty_agent_token_names_no_crawler():
    r = parse_robots(EMPTY_AGENT_BODY)
    assert r[0] == (("/x", False),)
    assert allowed(r, "/a")
    assert not allowed(r, "/x/1")


def test_agent_token_prefix_choice():
    """A group applies when its token is a prefix of our agent
    ``heroshi-ray`` (so ``heroshi`` does), the longest such token wins
    over ``*``, and a token our agent does not start with never does."""
    body = (
        "User-agent: *\nDisallow: /star\n\n"
        "User-agent: heroshi\nDisallow: /h\n\n"
        "User-agent: heroshi-ray-beta\nDisallow: /beta\n"
    )
    r = parse_robots(body)
    assert not allowed(r, "/h")
    assert allowed(r, "/star")
    assert allowed(r, "/beta")


def test_token_bucket_budget():
    tb = TokenBuckets(epoch_seconds=60, burst=5)
    # fresh host: full burst
    assert tb.budget("h", 0.0, delay_s=2.0) == 5
    tb.consume("h", 0.0, 2.0, 5)
    assert tb.budget("h", 0.0, 2.0) == 0
    # after 60s at delay 2 -> 30 tokens accrued, capped at burst 5
    assert tb.budget("h", 60.0, 2.0) == 5
    # after 4s -> 2 tokens
    assert tb.budget("h", 4.0, 2.0) == 2
    # state roundtrip
    tb2 = TokenBuckets.from_state(tb.state())
    assert tb2.budget("h", 4.0, 2.0) == 2


def test_vector_robots_matches_scalar_allowed():
    """VectorRobots (the flagship's vectorized gate) must be
    bit-identical to the per-row allowed() matcher across rule shapes:
    plain prefixes, longest-match Allow overrides, '*' wildcards, '$'
    anchors, allow-wins-ties, rule-less hosts, absent hosts,
    percent-escaped patterns and merged same-agent groups."""
    import numpy as np

    from heroshi_ray.functions.robots import allowed, parse_robots
    from heroshi_ray.stages.schedule import VectorRobots, _path_of

    rules_a = parse_robots(
        "User-agent: *\nDisallow: /o/2\nAllow: /o/22\nDisallow: /x*z\n"
        "Disallow: /end$\nAllow: /end$\n"
    )
    rules_b = parse_robots("User-agent: *\nDisallow: /\nAllow: /pub\n")
    robots = {"a.example": rules_a, "b.example": rules_b,
              "empty.example": parse_robots(""),
              "pct.example": parse_robots(PCT_BODY),
              "two.example": parse_robots(TWO_STAR_BODY),
              "emptyua.example": parse_robots(EMPTY_AGENT_BODY)}
    vr = VectorRobots(robots)

    paths = ["/o/1", "/o/2", "/o/22", "/o/23/l/4", "/o/22x", "/xaaz", "/xz",
             "/end", "/endq", "/", "/pub/x", "/private", "/o/2?q=1",
             "/~joe/x", "/a%2Fb", "/b/x"]
    urls, hosts = [], []
    for h in ("a.example", "b.example", "empty.example", "absent.example",
              "pct.example", "two.example", "emptyua.example"):
        for p in paths:
            urls.append(f"http://{h}{p}")
            hosts.append(h)
    got = vr.mask(np.array(urls, dtype=object), np.array(hosts, dtype=object))
    exp = np.array(
        [
            allowed(robots.get(h, ((), 1.0)), _path_of(u, h))
            for u, h in zip(urls, hosts)
        ]
    )
    assert (got == exp).all(), list(zip(urls, got.tolist(), exp.tolist()))
    denied = {u for u, ok in zip(urls, got.tolist()) if not ok}
    assert {
        "http://pct.example/~joe/x", "http://pct.example/a%2Fb",
        "http://two.example/a%2Fb", "http://two.example/b/x",
        "http://emptyua.example/xz",
    } <= denied
    assert "http://emptyua.example/o/1" not in denied
