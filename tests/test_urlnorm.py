"""Unit + property tests for RFC 3986 canonicalization and SURT."""

from __future__ import annotations

import string

from hypothesis import given, settings
from hypothesis import strategies as st

from heroshi_ray.functions.urlnorm import (
    canonicalize,
    canonicalize_batch,
    pct_normalize,
    remove_dot_segments,
    resolve,
)


def canon_url(u):
    c = canonicalize(u)
    return c[0] if c else None


def test_scheme_host_lowercased():
    assert canon_url("HTTP://WWW.Example.COM/") == "http://www.example.com/"


def test_default_port_removed():
    assert canon_url("http://example.com:80/a") == "http://example.com/a"
    assert canon_url("https://example.com:443/a") == "https://example.com/a"
    assert canon_url("http://example.com:8080/a") == "http://example.com:8080/a"
    assert canon_url("https://example.com:80/a") == "https://example.com:80/a"


def test_empty_path_becomes_slash():
    assert canon_url("http://example.com") == "http://example.com/"
    assert canon_url("http://example.com?q=1") == "http://example.com/?q=1"


def test_fragment_dropped():
    assert canon_url("http://example.com/a#frag") == "http://example.com/a"
    assert canon_url("http://example.com/a?x=1#frag") == "http://example.com/a?x=1"


def test_pct_unreserved_decoded_and_upcased():
    # RFC 3986 §6.2.2: %7E (~) is unreserved -> decoded; %2f stays, upcased.
    assert canon_url("http://example.com/%7Euser") == "http://example.com/~user"
    assert canon_url("http://example.com/a%2fb") == "http://example.com/a%2Fb"
    assert pct_normalize("%41%62%2d") == "Ab-"


def test_dot_segments():
    assert remove_dot_segments("/a/b/c/./../../g") == "/a/g"
    assert remove_dot_segments("/./a") == "/a"
    assert remove_dot_segments("/a/..") == "/"
    assert remove_dot_segments("/a/../../b") == "/b"
    assert remove_dot_segments("/a//b") == "/a//b"
    assert canon_url("http://example.com/a/./b/../c") == "http://example.com/a/c"


def test_trailing_question_kept():
    # empty query is preserved (distinct resource per RFC)
    assert canon_url("http://example.com/a?") == "http://example.com/a?"


def test_malformed_rejected():
    assert canonicalize("notaurl") is None
    assert canonicalize("http:/one-slash") is None
    assert canonicalize("http://user:pw@example.com/") is None
    assert canonicalize("http://bad host/") is None
    assert canonicalize("http://example.com:pp/") is None
    assert canonicalize("mailto:x@y.z") is None


def test_surt_form():
    assert canonicalize("http://www.example.com/p?q=1")[1] == "http://(com,example,www,)/p?q=1"
    assert canonicalize("http://example.com:8080/x")[1] == "http://(com,example:8080,)/x"
    # same-domain URLs sort adjacently
    a = canonicalize("http://a.example.com/1")[1]
    b = canonicalize("http://b.example.com/1")[1]
    assert a and b and a.startswith("http://(com,example,a") and b.startswith(
        "http://(com,example,b"
    )


def test_resolve():
    base = "http://example.com/a/b/c"
    assert resolve(base, "d") == "http://example.com/a/b/d"
    assert resolve(base, "../x") == "http://example.com/a/x"
    assert resolve(base, "/root") == "http://example.com/root"
    assert resolve(base, "//other.com/p") == "http://other.com/p"
    assert resolve(base, "http://abs.com/q") == "http://abs.com/q"
    assert resolve(base, "#frag") is None
    assert resolve(base, "javascript:void(0)") is None


def test_batch_matches_scalar():
    urls = [
        "HTTP://EXAMPLE.com:80/a/../b?x=%7e",
        "not a url",
        "https://h.io/p#f",
        None,
    ]
    canon, surt, host, ok = canonicalize_batch(urls)
    assert ok == [True, False, True, False]
    assert canon[0] == "http://example.com/b?x=~"
    assert host[2] == "h.io"


_path_chars = st.text(
    alphabet=string.ascii_letters + string.digits + "/.-_~%",
    max_size=40,
)


@settings(max_examples=200, deadline=None)
@given(
    host=st.from_regex(r"[a-z][a-z0-9-]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True),
    path=_path_chars,
)
def test_idempotent(host, path):
    u = f"http://{host}/{path}"
    c1 = canonicalize(u)
    if c1 is None:
        return
    c2 = canonicalize(c1[0])
    assert c2 is not None
    assert c2[0] == c1[0]
    assert c2[1] == c1[1]
    assert c2[2] == c1[2]


# the four spellings of one URL that perfbench/inputs.py writes: plain,
# upper case with the default port, a "/x/.." segment with a fragment,
# and a "/." segment
PERFBENCH_SPELLINGS = [
    "http://host3.example/o/17/l/2/v/0",
    "HTTP://HOST3.EXAMPLE:80/o/17/l/2/v/0",
    "http://host3.example/x/../o/17/l/2/v/0#frag",
    "http://host3.example/./o/17/l/2/v/0",
]


@settings(max_examples=200, deadline=None)
@given(
    host=st.from_regex(r"[a-z][a-z0-9-]{0,10}(\.[a-z]{2,5}){1,2}", fullmatch=True),
    path=_path_chars,
)
def test_arrow_idempotent(host, path):
    import pyarrow as pa

    from heroshi_ray.functions.urlnorm import canonicalize_batch_arrow

    c1, s1, h1, o1 = canonicalize_batch_arrow(pa.array([f"http://{host}/{path}"]))
    if not o1[0].as_py():
        return
    c2, s2, h2, o2 = canonicalize_batch_arrow(c1)
    assert o2[0].as_py()
    assert [a.to_pylist() for a in (c2, s2, h2)] == [
        a.to_pylist() for a in (c1, s1, h1)
    ]


def test_split_pattern_is_one_pass_shaped():
    # RE2 runs its one-pass matcher only when the pattern is anchored,
    # no two groups can match the same character at the same point, and
    # it has at most 4 capture groups; above that the same split took
    # about 5x as long on a perfbench block
    import re

    from heroshi_ray.functions.urlnorm import _VEC_SPLIT

    assert _VEC_SPLIT.startswith("^") and _VEC_SPLIT.endswith("$")
    assert re.compile(_VEC_SPLIT).groups <= 4


def test_perfbench_spellings_stay_on_the_fast_path(monkeypatch):
    import pyarrow as pa

    from heroshi_ray.functions import urlnorm

    rows = []

    def spy(urls):
        urls = list(urls)
        rows.extend(urls)
        return canonicalize_batch(urls)

    monkeypatch.setattr(urlnorm, "canonicalize_batch", spy)
    canon, _, _, ok = urlnorm.canonicalize_batch_arrow(
        pa.array(PERFBENCH_SPELLINGS * 100)
    )
    assert rows == []
    assert ok.to_pylist() == [True] * 400
    assert set(canon.to_pylist()) == {"http://host3.example/o/17/l/2/v/0"}


def test_arrow_canonicalizer_matches_scalar():
    """canonicalize_batch_arrow must be value-identical to the scalar
    path on adversarial inputs: dot segments (incl. empty-segment
    interplay), ports, userinfo, IPv6, percent-escapes, control chars,
    unicode, and random garbage."""
    import random

    import pyarrow as pa

    from heroshi_ray.functions.urlnorm import (
        canonicalize_batch,
        canonicalize_batch_arrow,
    )

    cases = [
        "http://host1.example/o/1/l/2",
        "HTTP://HOST2.EXAMPLE:80/x/../y#frag",
        "http://h/./a/b/../c", "https://H.E:443/p?q=1",
        "https://h.e:8443/p?q=%7E1", "http://h/%7Euser/%41/%2F",
        "http://user:pass@h/p", "http://[::1]:8080/p",
        "http://h:/p", "http://h:0/p", "http://h:080/p",
        "ftp://h:21/f", "mailto:x@y", "not a url", "",
        "http://h", "http://h?", "http://h#f", "http://h/?#",
        "http://h/a//b///c", "http://h/a/../../..", "http://h/..",
        "http://h/...", "http://h/.hidden/./x", "http://h/a/.//b",
        "http://h/p?a=1&b=%2", "http://h/p%", "http://h/p#f?x",
        "http://h.example/a/b/../../../c", "http://h/./../a",
        "http://h/a/../bb/../../.x", "http://h/a/a/../.../../..",
        "http://h/p q", " http://h/p ", "\thttp://h/p\n", "http://h\x1c/p",
        "http://h/a/b/..", "http://h/a/b/.", "http://h/a/./", "http://h//",
        "HtTpS://MiXeD.CaSe/P/Q", "http://h/a%2Fb", None,
        # every port form: empty, zero, leading zero, the other scheme's
        # default, ten digits
        "http://h:/", "http://h:0", "http://h:080?q", "http://h:443/p",
        "https://h:443", "https://h:80/p", "https://h:0443/p",
        "http://h:1234567890/p", "http://h:123456789/p",
        "http://h?x", "http://h/p?a/../b/./c", "http://h/a/../b?x/..",
        "http://h/p#%41", "http://h/p#a b", "http://h/p?q#f g",
        # the Kelvin sign lowercases to ASCII "k" under str.lower
        "HOST\u212a.e", "http://HOST\u212a.e/p", "http://\u0130x.e/p",
        # whitespace str.strip removes but RE2 does not call a control
        "http://h/p\xa0", "http://h/p?q\u3000", "http://h/p\x85",
        "http://h/a//.", "http://h/a//..", "http://h/.//.",
        *PERFBENCH_SPELLINGS,
    ]
    rng = random.Random(11)
    segs = ["", ".", "..", "a", "bb", "...", ".x", "x.", "a.b", "..c"]
    for _ in range(4000):
        cases.append(
            "http://h.e/" + "/".join(rng.choice(segs) for _ in range(rng.randrange(0, 10)))
        )
    alph = "abcXYZ019.-_~%/?#:@[]\\ é\t\u212a\u0130\xa0"
    for _ in range(2000):
        cases.append("http://" + "".join(rng.choice(alph) for _ in range(rng.randrange(1, 30))))
    for _ in range(1000):
        cases.append("".join(rng.choice(alph + "htp:/") for _ in range(rng.randrange(0, 25))))

    c1, s1, h1, o1 = canonicalize_batch(cases)
    c2, s2, h2, o2 = canonicalize_batch_arrow(pa.array(cases, pa.string()))
    c2l, s2l, h2l, o2l = (
        c2.to_pylist(), s2.to_pylist(), h2.to_pylist(), o2.to_pylist()
    )
    for i, u in enumerate(cases):
        assert o1[i] == bool(o2l[i]), (u, o1[i], o2l[i])
        if o1[i]:
            assert (c1[i], s1[i], h1[i]) == (c2l[i], s2l[i], h2l[i]), (
                u, (c1[i], s1[i], h1[i]), (c2l[i], s2l[i], h2l[i])
            )
