"""X1 — parse fetched pages: link extraction (M5), resolution (M4),
image/caption pairing, and corpus-row construction (M8+M9).

Heroshi's Python worker parses HTML with lxml and urljoins every href
([UPSTREAM-M], reference unavailable). The fixture HTML is generated
from a fixed template, so a compiled-regex extractor is exact here; a
production build would swap in an HTML5 parser behind the same batch
interface (state in ``__init__`` — this is an actor-pool stage).

Outputs of ``LinkExtractor``: candidate link rows
``(url, parent_surt, depth, caption)`` — ``caption`` non-empty only for
<img> refs (the alt text that becomes the corpus caption when the image
is fetched later).

``ImageRowBuilder`` turns successfully fetched image/* results into
CORPUS rows: decode (M8) -> w/h -> phash (M9); caption looked up from
the broadcast captions-discovered-so-far dict (small side of J3; at
full scale this becomes a hash join on image url — documented in
pipelines/crawl.py).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

import ray

from ..functions.image import decode_image, phash64

_HREF_RE = re.compile(r'<a\s+[^>]*?href="([^"]*)"', re.I)
_IMG_RE = re.compile(r'<img\s+[^>]*?src="([^"]*)"(?:\s+alt="([^"]*)")?', re.I)

LINKS_SCHEMA = pa.schema(
    [
        ("url", pa.string()),
        ("parent_surt", pa.string()),
        ("depth", pa.int32()),
        ("caption", pa.string()),
    ]
)


class LinkExtractor:
    """Actor-pool stage: FETCH rows (html) -> candidate link rows."""

    def __init__(self):
        self.href_re = _HREF_RE
        self.img_re = _IMG_RE

    def __call__(self, batch: pa.Table) -> pa.Table:
        # relative hrefs resolve against the URL that actually served the
        # content — the redirect-terminal final_url (browser semantics)
        from urllib.parse import urljoin

        from ..functions.urlnorm import canonicalize_batch_arrow

        urls = (
            batch.column("final_url").to_pylist()
            if "final_url" in batch.column_names
            else batch.column("url").to_pylist()
        )
        surts = batch.column("surt").to_pylist()
        depths = (
            batch.column("depth").to_pylist()
            if "depth" in batch.column_names
            else [0] * len(urls)
        )
        ctypes = batch.column("content_type").to_pylist()
        ok = batch.column("success").to_pylist()
        contents = batch.column("content").to_pylist()
        # gather raw (absolute-url, parent, depth, caption) rows first,
        # then canonicalize ONCE via the vectorized Arrow/RE2 kernel —
        # the scalar resolve() ran the full canonicalizer per href
        # (resolve()'s skip/urljoin semantics replicated verbatim)
        abs_url: list[str] = []
        out_parent: list[str] = []
        out_depth: list[int] = []
        out_cap: list[str] = []

        def _emit(base, href, surt, depth, cap):
            href = href.strip()
            if not href or href.startswith(
                ("javascript:", "mailto:", "data:", "#")
            ):
                return
            try:
                absu = urljoin(base, href)
            except ValueError:
                return
            abs_url.append(absu)
            out_parent.append(surt)
            out_depth.append(depth + 1)
            out_cap.append(cap)

        for url, surt, depth, ct, succ, content in zip(
            urls, surts, depths, ctypes, ok, contents
        ):
            if not succ or content is None or not ct.startswith("text/html"):
                continue
            html = content.decode("utf-8", "replace")
            for href in self.href_re.findall(html):
                _emit(url, href, surt, depth, "")
            for src, alt in self.img_re.findall(html):
                _emit(url, src, surt, depth, alt or "")
        if not abs_url:
            return LINKS_SCHEMA.empty_table()
        canon, _surt, _host, okm = canonicalize_batch_arrow(
            pa.array(abs_url, pa.string())
        )
        keep = pa.array(
            np.asarray(okm.to_numpy(zero_copy_only=False), dtype=bool)
        )
        return pa.table(
            {
                "url": canon,
                "parent_surt": pa.array(out_parent, pa.string()),
                "depth": pa.array(out_depth, pa.int32()),
                "caption": pa.array(out_cap, pa.string()),
            },
            schema=LINKS_SCHEMA,
        ).filter(keep)


_IMG_EXT_RE = re.compile(r"/([^/]+)\.(png|qpng)$")


class ImageRowBuilder:
    """Actor-pool stage: FETCH rows (image/*) -> CORPUS rows (+ a ``url``
    join key). Captions are attached DOWNSTREAM by joining against the
    append-only captions sink on url (pipelines/crawl.py) — the caption
    store grows with the corpus and must never live on the driver or be
    re-broadcast per epoch. ``captions_ref`` remains as an optional
    broadcast fast path for bounded runs/tests."""

    def __init__(self, captions_ref=None):
        self.captions = ray.get(captions_ref) if captions_ref is not None else {}

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = (
            batch.column("final_url").to_pylist()
            if "final_url" in batch.column_names
            else batch.column("url").to_pylist()
        )
        ok = batch.column("success").to_pylist()
        ctypes = batch.column("content_type").to_pylist()
        contents = batch.column("content").to_pylist()
        ids, blobs, ws, hs, fmts, caps, phs = [], [], [], [], [], [], []
        img_urls: list[str] = []
        for url, succ, ct, content in zip(urls, ok, ctypes, contents):
            if not succ or content is None or not ct.startswith("image/"):
                continue
            m = _IMG_EXT_RE.search(url)
            if not m:
                continue
            image_id, fmt = m.group(1), m.group(2)
            try:
                px = decode_image(content, fmt)
            except (ValueError, NotImplementedError):
                continue
            ids.append(image_id)
            blobs.append(content)
            hs.append(px.shape[0])
            ws.append(px.shape[1])
            fmts.append(fmt)
            caps.append(self.captions.get(url, ""))
            phs.append(phash64(px))
            img_urls.append(url)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array(np.array(ws, dtype=np.int32), pa.int32()),
                "h": pa.array(np.array(hs, dtype=np.int32), pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "caption": pa.array(caps, pa.string()),
                "phash": pa.array(np.array(phs, dtype=np.int64), pa.int64()),
                "url": pa.array(img_urls, pa.string()),
            }
        )
