"""X1 — parse fetched pages: link extraction (M5), resolution (M4),
image/caption pairing, and corpus-row construction (M8+M9).

Heroshi's Python worker parses HTML with lxml and urljoins every href
([UPSTREAM-M], reference unavailable). The fixture HTML is generated
from a fixed template, so a compiled-regex extractor is exact here; a
production build would swap in an HTML5 parser behind the same batch
interface (state in ``__init__``, built once per worker process:
the crawl runs these classes through ``runtime.task_stage``).

Outputs of ``LinkExtractor``: candidate link rows
``(url, parent_surt, depth, caption)`` — ``caption`` non-empty only for
<img> refs (the alt text that becomes the corpus caption when the image
is fetched later).

``ImageRowBuilder`` turns successfully fetched image/* results into
CORPUS rows: format (PNG, QPNG, JPEG or GIF; ``image_format``) ->
decode (M8) -> w/h -> phash (M9). Captions are attached
downstream, from the captions sink (pipelines/crawl.py).

Both kernels tag each output row with ``row``, the index of the fetched
row it came from, so ``FusedExtractor`` — the crawl epoch's one
post-fetch stage — can line their outputs up with the fetched rows.
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa

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
_LINK_ROWS = LINKS_SCHEMA.append(pa.field("row", pa.int32()))


class LinkExtractor:
    """FETCH rows (html) -> candidate link rows (LINKS_SCHEMA + ``row``),
    in input-row order."""

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
        out_row: list[int] = []

        def _emit(row, base, href, surt, depth, cap):
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
            out_row.append(row)

        for row, (url, surt, depth, ct, succ, content) in enumerate(
            zip(urls, surts, depths, ctypes, ok, contents)
        ):
            if not succ or content is None or not ct.startswith("text/html"):
                continue
            html = content.decode("utf-8", "replace")
            for href in self.href_re.findall(html):
                _emit(row, url, href, surt, depth, "")
            for src, alt in self.img_re.findall(html):
                _emit(row, url, src, surt, depth, alt or "")
        if not abs_url:
            return _LINK_ROWS.empty_table()
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
                "row": pa.array(out_row, pa.int32()),
            },
            schema=_LINK_ROWS,
        ).filter(keep)


_IMG_EXT_RE = re.compile(r"/([^/]+)\.(png|qpng|jpe?g|gif)$")
_IMG_NOEXT_RE = re.compile(r"/([^/.]+)$")
_EXT_FMT = {"jpg": "jpeg"}
_MAGIC_FMT = (
    (b"\x89PNG\r\n\x1a\n", "png"),
    (b"\xff\xd8\xff", "jpeg"),
    (b"GIF87a", "gif"),
    (b"GIF89a", "gif"),
)


def image_format(url: str, content: bytes) -> tuple[str, str] | None:
    """(image_id, fmt) of a fetched image, or None when the URL names no
    image the crawl decodes. A ``.png``/``.qpng``/``.jpg``/``.jpeg``/
    ``.gif`` URL is decided by its extension: the fixture serves qpng
    as image/png, so the bytes cannot tell it from png. A URL whose last
    segment has no extension is decided by the PNG/JPEG/GIF magic
    bytes."""
    m = _IMG_EXT_RE.search(url)
    if m:
        return m.group(1), _EXT_FMT.get(m.group(2), m.group(2))
    m = _IMG_NOEXT_RE.search(url)
    if m:
        for magic, fmt in _MAGIC_FMT:
            if content.startswith(magic):
                return m.group(1), fmt
    return None


class ImageRowBuilder:
    """FETCH rows (image/*) -> CORPUS rows (+ a ``url`` join key and
    ``row``), one per decodable image. ``caption`` is empty: captions are
    attached downstream from the append-only captions sink on url
    (``Crawler._attach_captions``)."""

    def __call__(self, batch: pa.Table) -> pa.Table:
        urls = (
            batch.column("final_url").to_pylist()
            if "final_url" in batch.column_names
            else batch.column("url").to_pylist()
        )
        ok = batch.column("success").to_pylist()
        ctypes = batch.column("content_type").to_pylist()
        contents = batch.column("content").to_pylist()
        ids, blobs, ws, hs, fmts, phs = [], [], [], [], [], []
        img_urls: list[str] = []
        rows: list[int] = []
        for row, (url, succ, ct, content) in enumerate(
            zip(urls, ok, ctypes, contents)
        ):
            if not succ or content is None or not ct.startswith("image/"):
                continue
            named = image_format(url, content)
            if named is None:
                continue
            image_id, fmt = named
            try:
                px = decode_image(content, fmt)
            except (ValueError, NotImplementedError):
                continue
            ids.append(image_id)
            blobs.append(content)
            hs.append(px.shape[0])
            ws.append(px.shape[1])
            fmts.append(fmt)
            phs.append(phash64(px))
            img_urls.append(url)
            rows.append(row)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "w": pa.array(np.array(ws, dtype=np.int32), pa.int32()),
                "h": pa.array(np.array(hs, dtype=np.int32), pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "caption": pa.array([""] * len(ids), pa.string()),
                "phash": pa.array(np.array(phs, dtype=np.int64), pa.int64()),
                "url": pa.array(img_urls, pa.string()),
                "row": pa.array(rows, pa.int32()),
            }
        )


# the corpus-row fields FusedExtractor carries per fetched row (null
# unless the row is a decodable image); the caption is attached later
IMAGE_FIELDS = ("image_id", "bytes", "w", "h", "fmt", "phash")


class FusedExtractor:
    """The crawl epoch's one post-fetch stage. It runs on each fetched
    batch in the same task as the fetch, one task per host slice of the
    epoch (``stages/fetch.fetch_dataset``): ``LinkExtractor`` and
    ``ImageRowBuilder`` over the same fetched rows, returned as ONE row
    per fetched URL — the fetch-log columns (the
    batch without ``content``), ``links`` (that page's link rows, a list
    of LINKS_SCHEMA structs) and the IMAGE_FIELDS of its corpus row.
    Page bodies are dropped here: they never leave the fetch task."""

    def __init__(self):
        self.links = LinkExtractor()
        self.images = ImageRowBuilder()

    def __call__(self, batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        links = self.links(batch)
        # link rows arrive in input-row order: per-row counts -> offsets
        counts = np.bincount(links.column("row").to_numpy(), minlength=n)
        offsets = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
        structs = pa.StructArray.from_arrays(
            [links.column(f.name).combine_chunks() for f in LINKS_SCHEMA],
            fields=list(LINKS_SCHEMA),
        )
        out = batch.drop_columns(["content"]).append_column(
            "links", pa.ListArray.from_arrays(pa.array(offsets), structs)
        )
        # scatter the image rows onto their fetched rows (null elsewhere)
        imgs = self.images(batch)
        at = np.full(n, -1, dtype=np.int64)
        at[imgs.column("row").to_numpy()] = np.arange(imgs.num_rows)
        imgs = imgs.take(pa.array(at, mask=at < 0))
        for name in IMAGE_FIELDS:
            out = out.append_column(name, imgs.column(name))
        return out
