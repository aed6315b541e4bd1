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
# Arrow/RE2 kernels canonicalize the overwhelmingly common URL shapes in
# C; rows needing percent-normalization, control characters, userinfo,
# IPv6, odd ports, or a dot-segment fixpoint that does not converge fall
# back to the per-string Python path (bit-identical by construction —
# tests/test_urlnorm.py pins equivalence on adversarial inputs).

_VEC_SPLIT = (
    r"^(?P<scheme>[A-Za-z][A-Za-z0-9+.\-]*)://"
    r"(?P<auth>[^/?#]*)(?P<path>[^?#]*)(?P<tail>[?#].*)?$"
)
_VEC_AUTH = r"^(?P<h>[a-z0-9._~!$&'()*+,;=\-]+)(?::(?P<p>[0-9]*))?$"
_DOT_DETECT = r"(^|/)\.\.?(/|$)"
_SEG_NOT_DOTS = r"(?:[^/.][^/]*|\.[^/.][^/]*|\.\.[^/]+)"


def _rev_hostport(hp: str) -> str:
    if ":" in hp:
        h, p = hp.rsplit(":", 1)
        return ",".join(reversed(h.split("."))) + ":" + p
    return ",".join(reversed(hp.split(".")))


def canonicalize_batch_arrow(col):
    """Vectorized canonicalize over an Arrow string column.

    Returns ``(canon, surt, host, ok)`` as Arrow arrays, value-identical
    to running :func:`canonicalize` per row. The fast path handles
    already-clean URLs plus case/port normalization, fragment drop and a
    bounded dot-segment fixpoint entirely in Arrow/RE2 kernels; all
    other rows (and any row the fixpoint cannot prove clean) go through
    the scalar Python path and are stitched back with replace_with_mask.
    """
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    n = len(col)
    empty_str = pa.nulls(n, pa.string())
    if n == 0:
        return empty_str, empty_str, empty_str, pa.nulls(0, pa.bool_())

    def _b(x):
        return pc.fill_null(x, False)

    # any control char / whitespace anywhere -> Python (str.strip and
    # interior-space semantics differ from RE2's \s)
    clean_chars = pc.invert(_b(pc.match_substring_regex(col, r"[\x00-\x20\x7F]")))
    ext = pc.extract_regex(col, _VEC_SPLIT)
    matched = pc.is_valid(ext)
    scheme = pc.utf8_lower(pc.struct_field(ext, "scheme"))
    auth_l = pc.utf8_lower(pc.struct_field(ext, "auth"))
    path = pc.struct_field(ext, "path")
    tail = pc.struct_field(ext, "tail")

    hp = pc.extract_regex(auth_l, _VEC_AUTH)
    auth_ok = pc.is_valid(hp)
    host = pc.struct_field(hp, "h")
    port = pc.struct_field(hp, "p")  # "" when absent or explicitly empty
    port_default = pc.or_kleene(
        pc.and_kleene(pc.equal(scheme, "http"), pc.equal(port, "80")),
        pc.and_kleene(pc.equal(scheme, "https"), pc.equal(port, "443")),
    )
    port_empty = pc.equal(port, "")
    port_plain = pc.match_substring_regex(port, r"^[1-9][0-9]{0,8}$")
    port_ok = pc.or_kleene(pc.or_kleene(port_empty, port_default), port_plain)
    drop_port = _b(pc.or_kleene(port_empty, port_default))

    qext = pc.extract_regex(pc.fill_null(tail, ""), r"^\?(?P<q>[^#]*)")
    has_q = pc.is_valid(qext)
    query = pc.struct_field(qext, "q")

    no_pct = pc.invert(
        pc.or_kleene(
            pc.match_substring(path, "%"),
            pc.fill_null(pc.match_substring(pc.fill_null(query, ""), "%"), False),
        )
    )
    fast = pc.and_kleene(
        pc.and_kleene(_b(matched), clean_chars),
        pc.and_kleene(_b(auth_ok), pc.and_kleene(_b(port_ok), _b(no_pct))),
    )
    fast = _b(fast)

    # bounded dot-segment fixpoint (semantics of remove_dot_segments for
    # authority-rooted paths; rows not converged stay on the slow path).
    # Applied ONLY to the needy subset, scattered back with replace_with_mask
    # — clean-path rows (the common case) never pay the replace passes.
    needs = pc.and_kleene(fast, _b(pc.match_substring_regex(path, _DOT_DETECT)))
    # empty segments ("//") interact with dot-pops in ways the regex
    # rules don't reproduce (a ".." may pop an EMPTY segment) — those
    # rare rows take the Python path instead
    has_dslash = _b(pc.match_substring(pc.fill_null(path, ""), "//"))
    fast = pc.and_kleene(fast, pc.invert(pc.and_kleene(needs, has_dslash)))
    needs = pc.and_kleene(needs, pc.invert(has_dslash))
    needs_np = _b(needs).to_numpy(zero_copy_only=False)
    if needs_np.any():
        p = pc.fill_null(path, "").take(pa.array(np.flatnonzero(needs_np)))
        for _ in range(12):
            p = pc.replace_substring_regex(p, pattern=r"/(\./)+", replacement="/")
            p = pc.replace_substring_regex(p, pattern=r"/\.$", replacement="/")
            # the popped segment must itself not be "." or ".." — else a
            # GlobalReplace pass can consume a ".." that had not yet
            # popped its own predecessor
            p = pc.replace_substring_regex(
                p, pattern="/" + _SEG_NOT_DOTS + r"/\.\./", replacement="/"
            )
            p = pc.replace_substring_regex(
                p, pattern="/" + _SEG_NOT_DOTS + r"/\.\.$", replacement="/"
            )
            p = pc.replace_substring_regex(p, pattern=r"^/\.\./", replacement="/")
            p = pc.replace_substring_regex(p, pattern=r"^/\.\.$", replacement="/")
            if not pc.any(_b(pc.match_substring_regex(p, _DOT_DETECT))).as_py():
                break
        unresolved = _b(pc.match_substring_regex(p, _DOT_DETECT))
        path = pc.replace_with_mask(
            pc.fill_null(path, ""), pa.array(needs_np), p
        )
        # rows whose fixpoint did not converge stay on the slow path
        un_full = np.zeros(n, dtype=bool)
        un_full[np.flatnonzero(needs_np)] = unresolved.to_numpy(zero_copy_only=False)
        fast = pc.and_kleene(fast, pa.array(~un_full))

    path_f = pc.if_else(pc.equal(pc.fill_null(path, ""), ""), "/", path)
    hostport = pc.if_else(
        drop_port,
        host,
        pc.binary_join_element_wise(host, pc.fill_null(port, ""), ":"),
    )
    canon_fast = pc.binary_join_element_wise(
        pc.fill_null(scheme, ""), "://", pc.fill_null(hostport, ""),
        pc.fill_null(path_f, ""), "",
    )
    with_q = pc.binary_join_element_wise(
        canon_fast, "?", pc.fill_null(query, ""), ""
    )
    canon_fast = pc.if_else(_b(has_q), with_q, canon_fast)

    # SURT host-part via dictionary gather: hostports repeat heavily, so
    # the Python label-reversal runs once per UNIQUE hostport
    hp_dict = pc.dictionary_encode(pc.fill_null(hostport, "")).combine_chunks() \
        if isinstance(hostport, pa.ChunkedArray) else pc.dictionary_encode(pc.fill_null(hostport, ""))
    rev = pa.array(
        [_rev_hostport(x) if x else "" for x in hp_dict.dictionary.to_pylist()],
        pa.string(),
    )
    surt_hp = rev.take(hp_dict.indices)
    surt_fast = pc.binary_join_element_wise(
        pc.fill_null(scheme, ""), "://(", surt_hp, ",)",
        pc.fill_null(path_f, ""), "",
    )
    surt_q = pc.binary_join_element_wise(surt_fast, "?", pc.fill_null(query, ""), "")
    surt_fast = pc.if_else(_b(has_q), surt_q, surt_fast)

    fast_np = fast.to_numpy(zero_copy_only=False)
    if fast_np.all():
        ok = pa.array(np.ones(n, dtype=bool))
        return canon_fast, surt_fast, host, ok

    slow_mask = pa.array(~fast_np)
    slow_idx = np.flatnonzero(~fast_np)
    c2, s2, h2, o2 = canonicalize_batch(col.take(pa.array(slow_idx)).to_pylist())
    canon = pc.replace_with_mask(canon_fast, slow_mask, pa.array(c2, pa.string()))
    surt = pc.replace_with_mask(surt_fast, slow_mask, pa.array(s2, pa.string()))
    host_o = pc.replace_with_mask(host, slow_mask, pa.array(h2, pa.string()))
    ok = pc.replace_with_mask(
        pa.array(fast_np), slow_mask, pa.array(o2, pa.bool_())
    )
    return canon, surt, host_o, ok
