"""RFC 3986 URL canonicalization + SURT keys (SURVEY.md §2.2 M1–M4).

Pure functions, no Ray. The heroshi manager normalizes URLs before
enqueueing them (reference unavailable — SURVEY.md §0 [UPSTREAM-M]);
this module implements the public RFC 3986 §6 syntax-based normalization
plus the public SURT (Sort-friendly URI Reordering Transform) convention:

- lowercase scheme and host,
- uppercase then decode percent-escapes of unreserved characters,
- drop default ports (http:80, https:443),
- remove dot-segments from the path (RFC 3986 §5.2.4),
- empty http(s) path -> "/",
- drop the fragment,
- SURT = ``scheme://(label_n,...,label_1,)/path?query`` so that URLs of
  one registered domain sort adjacently — the frontier's dedup /
  partition / sort key.

These run per string value inside ``map_batches`` batches; everything
here is hot-path code, so regexes are precompiled and allocation is kept
low.  ``canonicalize_batch`` is the vectorized entry point.
"""

from __future__ import annotations

import re
from urllib.parse import urljoin

__all__ = [
    "canonicalize",
    "canonicalize_batch",
    "resolve",
    "remove_dot_segments",
    "pct_normalize",
]

_UNRESERVED = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789-._~"
)
_PCT_RE = re.compile(r"%([0-9a-fA-F]{2})")
_SCHEME_RE = re.compile(r"^([a-zA-Z][a-zA-Z0-9+.-]*):")
_DEFAULT_PORT = {"http": "80", "https": "443"}
_HOST_OK_RE = re.compile(r"^[a-z0-9._~!$&'()*+,;=-]+$")  # reg-name chars (post-decode)


def _pct_repl(m: re.Match) -> str:
    code = int(m.group(1), 16)
    ch = chr(code)
    if ch in _UNRESERVED:
        return ch
    return "%" + m.group(1).upper()


def pct_normalize(s: str) -> str:
    """Uppercase %XX escapes; decode escapes of unreserved chars (RFC 3986 §6.2.2.1-2)."""
    if "%" not in s:
        return s
    return _PCT_RE.sub(_pct_repl, s)


def remove_dot_segments(path: str) -> str:
    """RFC 3986 §5.2.4 remove_dot_segments, for absolute paths.

    Segment-split formulation (equivalent to the RFC's character
    algorithm for paths that begin with "/", which URL paths with an
    authority always do) — ~3x faster than char-stepping in the hot loop.
    """
    if "." not in path:
        return path
    out: list[str] = []
    for seg in path.split("/"):
        if seg == ".":
            continue
        if seg == "..":
            if len(out) > 1:
                out.pop()
            continue
        out.append(seg)
    res = "/".join(out)
    if path.endswith(("/.", "/..")) and not res.endswith("/"):
        res += "/"  # trailing "." / ".." is a directory reference
    return res if res else "/"


def _split(url: str):
    """Minimal, fast urlsplit: (scheme, authority, path, query) or None.

    Fragment is dropped. Returns None when no scheme or no authority
    (the crawler only handles absolute hierarchical URLs).
    """
    m = _SCHEME_RE.match(url)
    if not m:
        return None
    scheme = m.group(1).lower()
    rest = url[m.end() :]
    if not rest.startswith("//"):
        return None
    rest = rest[2:]
    # authority ends at first of / ? #
    end = len(rest)
    for ch in ("/", "?", "#"):
        j = rest.find(ch)
        if j != -1 and j < end:
            end = j
    authority = rest[:end]
    rest = rest[end:]
    frag = rest.find("#")
    if frag != -1:
        rest = rest[:frag]
    q = rest.find("?")
    if q != -1:
        path, query = rest[:q], rest[q + 1 :]
    else:
        path, query = rest, None
    return scheme, authority, path, query


def _norm_authority(scheme: str, authority: str):
    """Lowercase host, strip userinfo? No — reject userinfo (crawler policy),
    drop default port. Returns (host, port_or_None) or None if malformed."""
    if "@" in authority:
        # heroshi-style crawlers do not fetch credentialed URLs; reject.
        return None
    host, port = authority, None
    if authority.startswith("["):  # IPv6 literal
        j = authority.find("]")
        if j == -1:
            return None
        host = authority[: j + 1].lower()
        rest = authority[j + 1 :]
        if rest:
            if not rest.startswith(":"):
                return None
            port = rest[1:]
    else:
        j = authority.rfind(":")
        if j != -1:
            host, port = authority[:j], authority[j + 1 :]
        host = pct_normalize(host.lower())
        if not host or not _HOST_OK_RE.match(host):
            return None
    if port is not None:
        if port == "" or not port.isdigit():
            if port == "":
                port = None  # "http://h:/p" -> drop empty port
            else:
                return None
        elif port == _DEFAULT_PORT.get(scheme):
            port = None
        else:
            port = str(int(port))  # strip leading zeros
    return host, port


def canonicalize(url: str) -> tuple[str, str, str] | None:
    """Canonicalize an absolute URL.

    Returns ``(canonical_url, surt, host)`` or ``None`` when the URL is
    malformed / out of policy (no scheme, non-hierarchical, userinfo,
    bad host or port).
    """
    parts = _split(url.strip())
    if parts is None:
        return None
    scheme, authority, path, query = parts
    auth = _norm_authority(scheme, authority)
    if auth is None:
        return None
    host, port = auth
    path = pct_normalize(path)
    path = remove_dot_segments(path)
    if not path:
        path = "/"
    if query is not None:
        query = pct_normalize(query)
    hostport = host if port is None else f"{host}:{port}"
    canon = f"{scheme}://{hostport}{path}"
    if query is not None:
        canon += "?" + query
    return canon, _surt(scheme, host, port, path, query), host


def _surt(scheme: str, host: str, port, path: str, query) -> str:
    labels = host.split(".") if not host.startswith("[") else [host]
    rev = ",".join(reversed(labels))
    hp = rev if port is None else f"{rev}:{port}"
    s = f"{scheme}://({hp},){path}"
    if query is not None:
        s += "?" + query
    return s


def resolve(base: str, href: str) -> str | None:
    """Resolve ``href`` against ``base`` (urljoin semantics: relative paths,
    ``../``, protocol-relative ``//host/p``) and canonicalize the result."""
    href = href.strip()
    if not href or href.startswith(("javascript:", "mailto:", "data:", "#")):
        return None
    try:
        absu = urljoin(base, href)
    except ValueError:
        return None
    c = canonicalize(absu)
    return c[0] if c else None


def canonicalize_batch(urls) -> tuple[list, list, list, list]:
    """Vectorized canonicalization over an iterable of url strings.

    Returns parallel lists ``(canon, surt, host, ok)`` where malformed
    rows have ``ok=False`` and empty strings. One tight Python loop per
    batch (URL parsing is not expressible in pyarrow.compute kernels);
    the loop body is allocation-lean and all regexes are module-level.
    """
    canon: list[str] = []
    surt: list[str] = []
    host: list[str] = []
    ok: list[bool] = []
    _canonicalize = canonicalize
    for u in urls:
        c = _canonicalize(u) if u is not None else None
        if c is None:
            canon.append("")
            surt.append("")
            host.append("")
            ok.append(False)
        else:
            canon.append(c[0])
            surt.append(c[1])
            host.append(c[2])
            ok.append(True)
    return canon, surt, host, ok


# ------------------------------------------------- vectorized fast path --
# One anchored RE2 split takes the common URL shape; every row it
# rejects goes through the per-string Python path instead (bit-identical
# by construction; tests/test_urlnorm.py pins the equivalence on
# adversarial inputs). It rejects a host outside the ASCII reg-name
# charset (userinfo, IPv6, percent-escapes, non-ASCII), a port with a
# non-digit, a '%' in the path or query, and any control or whitespace
# character: str.strip and RE2 disagree on what whitespace is. The path
# must start with '/', and the query keeps its '?' so that an empty
# query stays distinct from none. The pattern is kept one-pass so that
# RE2 runs its fastest matcher: no two groups may match the same
# character at the same point, and at most 4 capture groups (above that
# RE2 falls back to a slower matcher).
# C0, space, DEL, C1 and NBSP, then the rest of what str.isspace accepts
_WS = r"\x00-\x20\x7F-\xA0" + "\u1680\u2000-\u200a\u2028\u2029\u202f\u205f\u3000"
_VEC_SPLIT = (
    r"^(?P<prefix>[A-Za-z][A-Za-z0-9+.\-]*://"
    r"[A-Za-z0-9._~!$&'()*+,;=\-]+(?::[0-9]*)?)"
    rf"(?P<path>/[^?#%{_WS}]*)?(?P<q>\?[^#%{_WS}]*)?(?:#[^{_WS}]*)?$"
)
_DOT_DETECT = r"/\.\.?(?:/|$)"
# one remove_dot_segments step, each branch replaced by "/": a leading
# "/..", a segment popped by the ".." after it (not "." or ".." itself,
# or a global pass could pop it before its own turn) and a run of "/."
# segments
_DOT_STEP = (
    r"^/\.\.(?:/|$)|/(?:[^/.][^/]*|\.[^/.][^/]*|\.\.[^/]+)/\.\.(?:/|$)"
    r"|/(?:\.(?:/|$))+"
)


def _fast_prefix(prefix: str) -> tuple[str, str, str]:
    """``scheme://authority`` the split regex took -> (canonical prefix,
    SURT prefix, host), by the scalar path's own helpers."""
    scheme, _, authority = prefix.lower().partition("://")
    host, port = _norm_authority(scheme, authority)
    hostport = host if port is None else f"{host}:{port}"
    return f"{scheme}://{hostport}", _surt(scheme, host, port, "", None), host


def canonicalize_batch_arrow(col):
    """Vectorized canonicalize over an Arrow string column.

    Returns ``(canon, surt, host, ok)`` as Arrow arrays, value-identical
    to running :func:`canonicalize` per row. For the rows the split
    regex takes, the scheme and authority are normalized once per
    distinct ``scheme://authority`` (they repeat heavily), and the path
    gets a bounded dot-segment fixpoint in RE2; all other rows (and any
    row the fixpoint cannot prove clean) go through the scalar Python
    path and are stitched back with replace_with_mask.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def _mask(x):
        return pc.fill_null(x, False).to_numpy(zero_copy_only=False)

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    if n == 0:
        empty_str = pa.nulls(0, pa.string())
        return empty_str, empty_str, empty_str, pa.nulls(0, pa.bool_())

    ext = pc.extract_regex(col, _VEC_SPLIT)
    fast = pc.is_valid(ext).to_numpy(zero_copy_only=False)
    path = pc.struct_field(ext, "path")
    query = pc.struct_field(ext, "q")

    # bounded dot-segment fixpoint on the rows that have dot segments.
    # Rows with an empty segment ("//") take the slow path, since
    # remove_dot_segments lets a ".." pop it and a trailing "." merge
    # with it; so do rows the fixpoint does not converge on
    dots = _mask(pc.match_substring_regex(path, _DOT_DETECT))
    if dots.any():
        idx = np.flatnonzero(dots)
        p = path.take(pa.array(idx))
        fast[idx[_mask(pc.match_substring(p, "//"))]] = False
        for _ in range(12):
            p = pc.replace_substring_regex(p, pattern=_DOT_STEP, replacement="/")
            left = _mask(pc.match_substring_regex(p, _DOT_DETECT))
            if not left.any():
                break
        fast[idx[left]] = False
        path = pc.replace_with_mask(path, pa.array(dots), p)
    no_path = _mask(pc.equal(path, ""))
    if no_path.any():
        path = pc.if_else(pa.array(no_path), "/", path)

    prefix = pc.dictionary_encode(pc.struct_field(ext, "prefix"))
    parts = [_fast_prefix(x) for x in prefix.dictionary.to_pylist()]
    canon_p, surt_p, host = (
        pa.array([x[i] for x in parts], pa.string()).take(prefix.indices)
        for i in range(3)
    )
    canon = pc.binary_join_element_wise(canon_p, path, query, "")
    surt = pc.binary_join_element_wise(surt_p, path, query, "")

    if fast.all():
        return canon, surt, host, pa.array(fast)
    slow = pa.array(~fast)
    c2, s2, h2, o2 = canonicalize_batch(col.filter(slow).to_pylist())
    return (
        pc.replace_with_mask(canon, slow, pa.array(c2, pa.string())),
        pc.replace_with_mask(surt, slow, pa.array(s2, pa.string())),
        pc.replace_with_mask(host, slow, pa.array(h2, pa.string())),
        pc.replace_with_mask(pa.array(fast), slow, pa.array(o2, pa.bool_())),
    )
