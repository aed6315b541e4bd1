"""Sitemap-protocol (sitemaps.org) parsing.

A crawler brain discovers URLs from two feeds: extracted links and the
hosts' published sitemaps. This module implements the XML side —
`<urlset>` documents per the public protocol at
https://www.sitemaps.org/protocol.html — as a pure function so the Ray
stage (pipelines/webops.py) stays a thin vectorized wrapper. No
reference code exists to cite (SURVEY.md §0); semantics follow the
public protocol: `loc` required, `lastmod` W3C date, `priority` in
[0.0, 1.0] default 0.5.

Parsing is per-document (XML is not vectorizable); a document yields
many URL rows, so the per-entry Python cost amortizes the same way the
link extractor's per-page regex does.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

_NS = "{http://www.sitemaps.org/schemas/sitemap/0.9}"


def parse_urlset(xml_text: str):
    """Parse one `<urlset>` document -> list of
    (loc, host, lastmod, priority_e1) tuples.

    - namespace-aware (the protocol requires the 0.9 xmlns; documents
      without it are also accepted — some hosts omit it);
    - `lastmod` missing -> empty string; `priority` missing -> 5
      (protocol default 0.5), stored as e1 fixed-point int so results
      hash bit-stably;
    - host is derived from `loc` (scheme-stripped authority, lowercased)
      so downstream politeness grouping never re-parses.
    Malformed XML raises ValueError with the parse error attached —
    callers quarantine the document, mirroring the fetch stage's
    error-row convention.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as e:  # quarantine, don't kill the task
        raise ValueError(f"bad sitemap XML: {e}") from e
    ns = _NS if root.tag.startswith(_NS) else ""
    if root.tag != f"{ns}urlset":
        raise ValueError(f"not a urlset document: root={root.tag!r}")
    out = []
    for url_el in root.iter(f"{ns}url"):
        loc_el = url_el.find(f"{ns}loc")
        if loc_el is None or not (loc_el.text or "").strip():
            continue  # loc is required; skip entry per protocol
        loc = loc_el.text.strip()
        lm_el = url_el.find(f"{ns}lastmod")
        lastmod = (lm_el.text or "").strip() if lm_el is not None else ""
        pr_el = url_el.find(f"{ns}priority")
        if pr_el is not None and (pr_el.text or "").strip():
            pe1 = int(round(float(pr_el.text.strip()) * 10))
        else:
            pe1 = 5
        # authority: after scheme '://', up to first '/', lowercased
        rest = loc.split("://", 1)[1] if "://" in loc else loc
        host = rest.split("/", 1)[0].lower()
        out.append((loc, host, lastmod, pe1))
    return out
