"""WARC 1.1 (ISO 28500) export/import for fetch results.

WARC is the crawl-archive interchange format (the IIPC/Common Crawl
standard: one gzip member per record, response records carrying the
full HTTP message). A crawler that cannot emit WARC cannot feed the
standard downstream tooling (CDX indexers, warcio readers, Common
Crawl-style pipelines), so the engine gets the sink/source pair here,
built from the PUBLIC spec (iipc.github.io/warc-specifications):

- ``write_warc``: Dataset(FETCH-shaped rows) -> {prefix}-*.warc.gz
  files. A ``map_batches`` stage serializes ONE file per batch (bytes
  never gather on the driver; files write in parallel) and returns a
  manifest row (path, n_records, n_bytes, first/last URL). Each record
  is its own gzip member (the spec's recommended layout — readers can
  seek to member boundaries); member mtime is pinned to 0 and records
  are written in sorted-URL order, so identical input produces
  byte-identical files (digest-tested). File names derive from the
  batch's min url hash (content-addressed, not task-ordinal) and
  writes are tmp+rename atomic with skip-if-complete — the resumable
  contract the parquet/tar sinks follow.
- ``read_warc``: read_binary_files over the dir -> per-file gzip
  member walk (zlib streams with unused_data chaining) -> WARC header
  + HTTP message parse back to rows. One task holds one file — the
  file-size bound, not the corpus.

Only ``response`` records are emitted/parsed (the fetch log's
content); record IDs are deterministic urn:uuid values derived from
(url, date) so re-exports are stable.
"""

from __future__ import annotations

import gzip
import hashlib
import os
import zlib
from http.client import responses as _HTTP_REASONS

import numpy as np
import pyarrow as pa

import ray
import ray.data

_CRLF = "\r\n"


def _iso_date(ts_us: int) -> str:
    # fixed epoch arithmetic (no tz deps): WARC-Date is UTC ISO-8601.
    # WARC 1.1 allows sub-second precision; emit microseconds so an
    # export -> import roundtrip preserves fetched_at exactly (whole-
    # second timestamps previously truncated sub-second values).
    import datetime as _dt

    return (
        _dt.datetime(1970, 1, 1) + _dt.timedelta(microseconds=int(ts_us))
    ).strftime("%Y-%m-%dT%H:%M:%S.%fZ")


def _parse_iso_us(s: str) -> int:
    # accept both the WARC 1.1 fractional form (ours) and the whole-
    # second WARC 1.0 form (foreign archives, pre-1.1 writers)
    import datetime as _dt

    fmt = "%Y-%m-%dT%H:%M:%S.%fZ" if "." in s else "%Y-%m-%dT%H:%M:%SZ"
    delta = _dt.datetime.strptime(s, fmt) - _dt.datetime(1970, 1, 1)
    return delta.days * 86_400_000_000 + delta.seconds * 1_000_000 + delta.microseconds


def _record_id(url: str, date: str) -> str:
    h = hashlib.md5((url + "|" + date).encode()).hexdigest()
    return (
        f"<urn:uuid:{h[0:8]}-{h[8:12]}-{h[12:16]}-{h[16:20]}-{h[20:32]}>"
    )


def record_bytes(
    url: str,
    status: int,
    headers: list,
    content: bytes,
    content_type: str,
    ts_us: int,
) -> bytes:
    """ONE response record as a standalone gzip member (deterministic:
    mtime=0, level 9, sorted caller order)."""
    reason = _HTTP_REASONS.get(int(status), "")
    http_lines = [f"HTTP/1.1 {int(status)} {reason}"]
    seen_ct = False
    for k, v in headers or []:
        # the writer owns framing: a fetch row recorded from the wire may
        # carry its own Content-Length / Transfer-Encoding, but the stored
        # body is already de-chunked and this function appends the
        # authoritative Content-Length below — copying the originals would
        # emit duplicate/conflicting framing headers that the reader then
        # drops anyway (lossy roundtrip)
        if k.lower() in ("content-length", "transfer-encoding"):
            continue
        http_lines.append(f"{k}: {v}")
        if k.lower() == "content-type":
            seen_ct = True
    if not seen_ct and content_type:
        http_lines.append(f"Content-Type: {content_type}")
    body = content or b""
    http_lines.append(f"Content-Length: {len(body)}")
    block = (_CRLF.join(http_lines) + _CRLF + _CRLF).encode() + body
    date = _iso_date(ts_us)
    warc_headers = [
        "WARC/1.1",
        "WARC-Type: response",
        f"WARC-Record-ID: {_record_id(url, date)}",
        f"WARC-Date: {date}",
        f"WARC-Target-URI: {url}",
        "Content-Type: application/http;msgtype=response",
        f"Content-Length: {len(block)}",
    ]
    raw = (_CRLF.join(warc_headers) + _CRLF + _CRLF).encode() + block + b"\r\n\r\n"
    return gzip.compress(raw, compresslevel=9, mtime=0)


def write_warc(
    ds: "ray.data.Dataset",
    out_dir: str,
    records_per_file: int = 2048,
    prefix: str = "crawl",
) -> "ray.data.Dataset":
    """FETCH-shaped Dataset -> {out_dir}/{prefix}-{key}.warc.gz files +
    manifest Dataset (path, n_records, n_bytes, url_min, url_max).

    EAGER sink (the manifest materializes before returning) so the
    out_dir can be reconciled against it: file names are
    content-addressed by min-url hash, so a re-export with a different
    ``records_per_file`` or a shrunken input would otherwise leave
    stale ``{prefix}-*.warc.gz`` files behind that read_warc silently
    includes as phantom records. Files under this prefix that the new
    manifest does not claim are deleted (same cleared-prefix contract
    as the parquet epoch sink); foreign prefixes in the dir are left
    alone."""
    os.makedirs(out_dir, exist_ok=True)

    def write_file(batch: pa.Table) -> pa.Table:
        urls = batch.column("url").to_pylist()
        order = np.argsort(np.asarray(urls, dtype=object), kind="stable")
        st = batch.column("status_code").to_pylist()
        hd = (
            batch.column("headers").to_pylist()
            if "headers" in batch.column_names
            else [None] * len(urls)
        )
        ct = batch.column("content_type").to_pylist()
        bo = batch.column("content").to_pylist()
        ts_col = batch.column("fetched_at")
        ts = ts_col.cast(pa.int64()).to_pylist()  # us since epoch
        parts = []
        for i in order:
            parts.append(
                record_bytes(
                    urls[i], st[i] or 0, hd[i], bo[i], ct[i] or "", ts[i] or 0
                )
            )
        payload = b"".join(parts)
        key = hashlib.md5(min(urls).encode()).hexdigest()[:12] if urls else "empty"
        path = os.path.join(out_dir, f"{prefix}-{key}.warc.gz")
        # skip-if-complete must honor the byte-deterministic contract:
        # size alone keeps a stale same-size file with wrong bytes, so
        # compare content (the payload is in memory; reading the existing
        # file back is file-size-bounded, same as writing it)
        complete = (
            os.path.exists(path)
            and os.path.getsize(path) == len(payload)
            and open(path, "rb").read() == payload
        )
        if not complete:
            tmp = path + ".tmp"
            with open(tmp, "wb") as f:
                f.write(payload)
            os.replace(tmp, path)
        return pa.table(
            {
                "path": pa.array([path], pa.string()),
                "n_records": pa.array([len(urls)], pa.int64()),
                "n_bytes": pa.array([len(payload)], pa.int64()),
                "url_min": pa.array([min(urls) if urls else ""], pa.string()),
                "url_max": pa.array([max(urls) if urls else ""], pa.string()),
            }
        )

    man = ds.map_batches(
        write_file, batch_format="pyarrow", batch_size=records_per_file
    ).materialize()
    claimed = {
        os.path.basename(p) for p in man.to_pandas()["path"] if p
    }
    for f in os.listdir(out_dir):
        if (
            f.startswith(f"{prefix}-")
            and (f.endswith(".warc.gz") or f.endswith(".warc.gz.tmp"))
            and f not in claimed
        ):
            os.unlink(os.path.join(out_dir, f))
    return man


def _gzip_members(data: bytes):
    """Yield decompressed gzip members from a concatenated stream."""
    rest = data
    while rest:
        d = zlib.decompressobj(wbits=31)
        yield d.decompress(rest)
        rest = d.unused_data


def _raw_records(raw: bytes):
    """Sequential record walk over a decompressed WARC stream: yields
    (warc-header dict, block bytes) per record, advancing by
    Content-Length (the spec's framing). Tolerant of foreign writers:
    header names are case-folded and order-free, the version line may
    be WARC/1.0 or WARC/1.1, and any run of extra CRLFs between
    records (some tools pad) is skipped."""
    i, n = 0, len(raw)
    while i < n:
        while raw.startswith(b"\r\n", i):  # inter-record padding
            i += 2
        if i >= n:
            return
        j = raw.find(b"\r\n\r\n", i)
        if j < 0:
            return
        head = raw[i:j].decode()
        lines = head.split(_CRLF)
        wh = {}
        for ln in lines[1:]:
            k, _, v = ln.partition(":")
            wh[k.strip().lower()] = v.strip()
        clen = int(wh.get("content-length", "0"))
        yield wh, raw[j + 4 : j + 4 + clen]
        i = j + 4 + clen + 4  # skip the record's trailing \r\n\r\n


def parse_warc_file(data: bytes) -> pa.Table:
    """One WARC file's response records back to FETCH-shaped rows.
    Accepts raw bytes with per-record gzip members OR an
    already-decompressed stream (Ray's read_binary_files decompresses
    .gz by extension) — detected by the gzip magic."""
    if data[:2] == b"\x1f\x8b":
        streams = _gzip_members(data)
    else:
        streams = [data]
    urls, sts, hds, cts, bods, tss = [], [], [], [], [], []
    # segmented records (WARC 1.1 §continuation): a response whose
    # payload spans records carries WARC-Segment-Number: 1; follow-up
    # records of type "continuation" reference it via
    # WARC-Segment-Origin-ID and the LAST one carries
    # WARC-Segment-Total-Length. Reassembly here is within-file (the
    # common archive layout, and the only one a one-file-per-task
    # reader can honor — a segment chain split ACROSS files is dropped
    # with its partial prefix rather than emitted truncated).
    pending: dict = {}  # origin-id -> (first-record headers, [blocks])
    for raw in streams:
        if not raw:
            continue
        for wh, block in _raw_records(raw):
            wtype = wh.get("warc-type")
            if wtype == "continuation":
                origin = wh.get("warc-segment-origin-id", "")
                ent = pending.get(origin)
                if ent is None:
                    continue  # orphan segment (chain started elsewhere)
                ent[1].append(block)
                if "warc-segment-total-length" in wh:
                    head, blocks = pending.pop(origin)
                    whole = b"".join(blocks)
                    total = int(wh["warc-segment-total-length"])
                    if len(whole) == total:
                        _parse_response(
                            head, whole, urls, sts, hds, cts, bods, tss
                        )
                continue
            if wtype != "response":
                continue
            if wh.get("warc-segment-number", "").strip() == "1":
                pending[wh.get("warc-record-id", "")] = (wh, [block])
                continue
            _parse_response(wh, block, urls, sts, hds, cts, bods, tss)
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "status_code": pa.array(sts, pa.int32()),
            "headers": pa.array(hds, pa.map_(pa.string(), pa.string())),
            "content_type": pa.array(cts, pa.string()),
            "content": pa.array(bods, pa.binary()),
            "fetched_at": pa.array(tss, pa.int64()).cast(pa.timestamp("us")),
        }
    )


def _parse_response(wh, block, urls, sts, hds, cts, bods, tss) -> None:
    bhead_end = block.index(b"\r\n\r\n")
    bl = block[:bhead_end].decode().split(_CRLF)
    status = int(bl[0].split(" ", 2)[1])
    pairs = []
    ct = ""
    for ln in bl[1:]:
        k, _, v = ln.partition(":")
        k, v = k.strip(), v.strip()
        if k.lower() == "content-length":
            continue
        pairs.append((k, v))
        if k.lower() == "content-type":
            ct = v
    urls.append(wh["warc-target-uri"])
    sts.append(status)
    hds.append(pairs)
    cts.append(ct)
    bods.append(block[bhead_end + 4 :])
    tss.append(_parse_iso_us(wh["warc-date"]))


def read_warc(warc_dir: str) -> "ray.data.Dataset":
    """{dir}/*.warc.gz -> Dataset of response rows (url, status_code,
    headers, content_type, content, fetched_at)."""
    files = ray.data.read_binary_files(warc_dir, file_extensions=["gz"])

    def parse(batch: pa.Table) -> pa.Table:
        tbls = [parse_warc_file(b) for b in batch.column("bytes").to_pylist()]
        if not tbls:
            return parse_warc_file(b"")
        return pa.concat_tables(tbls, promote_options="none")

    return files.map_batches(parse, batch_format="pyarrow")
