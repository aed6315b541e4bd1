"""WARC 1.1 sink/source (ISO 28500): roundtrip equality, deterministic
bytes, resumable overwrite, manifest accounting, spec-shape checks."""

from __future__ import annotations

import gzip
import hashlib
import os

import pyarrow as pa

import ray

from heroshi_ray.sources.warc import read_warc, write_warc


def _fetch_table(n: int = 37) -> pa.Table:
    urls, st, hd, ct, bo, ts = [], [], [], [], [], []
    for i in range(n):
        urls.append(f"http://h{i % 5}.example/p/{i}")
        st.append(200 if i % 7 else 404)
        c = "image/qpng" if i % 3 else "text/html"
        # Content-Type carried in the headers (the writer only injects
        # one when the fetch recorded none)
        hd.append([("Server", "unit"), ("X-Seq", str(i)), ("Content-Type", c)])
        ct.append(c)
        bo.append(bytes([i % 251]) * (10 + i * 3))
        # sub-second microseconds on purpose: the roundtrip must preserve
        # them (WARC-Date is emitted at microsecond precision per WARC 1.1)
        ts.append(1_700_000_000_000_000 + i * 1_000_000 + i * 137 + (i % 2))
    return pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "status_code": pa.array(st, pa.int32()),
            "headers": pa.array(hd, pa.map_(pa.string(), pa.string())),
            "content_type": pa.array(ct, pa.string()),
            "content": pa.array(bo, pa.binary()),
            "fetched_at": pa.array(ts, pa.int64()).cast(pa.timestamp("us")),
        }
    )


def _rows(t: pa.Table):
    out = []
    for r in t.to_pylist():
        out.append(
            (
                r["url"],
                r["status_code"],
                tuple(tuple(p) for p in (r["headers"] or [])),
                r["content_type"],
                r["content"],
                r["fetched_at"],
            )
        )
    return sorted(out)


def test_warc_roundtrip_and_manifest(ray_session, tmp_path):
    out = str(tmp_path / "warc")
    src = _fetch_table()
    man = write_warc(
        ray.data.from_arrow(src).repartition(3), out, records_per_file=16
    ).to_pandas()
    assert man["n_records"].sum() == src.num_rows
    files = sorted(f for f in os.listdir(out) if f.endswith(".warc.gz"))
    assert set(os.path.basename(p) for p in man["path"]) == set(files)
    for row in man.itertuples():
        assert os.path.getsize(row.path) == row.n_bytes

    back = pa.Table.from_pandas(read_warc(out).to_pandas())
    assert _rows(back) == _rows(src)


def test_warc_deterministic_and_resumable(ray_session, tmp_path):
    out = str(tmp_path / "w1")
    src = _fetch_table(20)
    write_warc(ray.data.from_arrow(src), out, records_per_file=20).to_pandas()
    files = sorted(os.listdir(out))
    digests = {
        f: hashlib.md5(open(os.path.join(out, f), "rb").read()).hexdigest()
        for f in files
    }
    mtimes = {f: os.path.getmtime(os.path.join(out, f)) for f in files}
    # identical re-run: same bytes, nothing rewritten
    write_warc(ray.data.from_arrow(src), out, records_per_file=20).to_pandas()
    assert {
        f: hashlib.md5(open(os.path.join(out, f), "rb").read()).hexdigest()
        for f in sorted(os.listdir(out))
    } == digests
    assert {f: os.path.getmtime(os.path.join(out, f)) for f in files} == mtimes


def test_warc_reconcile_stale_files(ray_session, tmp_path):
    """A re-export with different file-chunking (or a shrunken input)
    must not leave stale content-addressed files behind for read_warc
    to surface as phantom records; foreign prefixes survive."""
    out = str(tmp_path / "w3")
    src = _fetch_table(37)
    write_warc(
        ray.data.from_arrow(src).repartition(3), out, records_per_file=8
    )
    n_files_1 = len([f for f in os.listdir(out) if f.endswith(".warc.gz")])
    assert n_files_1 > 1
    foreign = os.path.join(out, "other-deadbeef.warc.gz")
    open(foreign, "wb").write(b"")
    # same prefix, one chunk: every first-run file except (at most) one
    # is stale now
    write_warc(ray.data.from_arrow(src), out, records_per_file=64)
    files = [f for f in os.listdir(out) if f.startswith("crawl-")]
    assert len(files) == 1
    assert os.path.exists(foreign)  # other prefixes untouched
    os.unlink(foreign)
    back = pa.Table.from_pandas(read_warc(out).to_pandas())
    assert _rows(back) == _rows(src)


def test_warc_stale_same_size_rewritten(ray_session, tmp_path):
    """skip-if-complete compares bytes, not size: a same-size corrupted
    file at the content-addressed path is repaired on re-export."""
    out = str(tmp_path / "w4")
    src = _fetch_table(9)
    write_warc(ray.data.from_arrow(src), out, records_per_file=9)
    f = [p for p in os.listdir(out) if p.endswith(".warc.gz")][0]
    path = os.path.join(out, f)
    good = open(path, "rb").read()
    bad = bytearray(good)
    bad[len(bad) // 2] ^= 0xFF
    open(path, "wb").write(bytes(bad))
    write_warc(ray.data.from_arrow(src), out, records_per_file=9)
    assert open(path, "rb").read() == good


def test_warc_framing_headers_not_duplicated(ray_session, tmp_path):
    """Fetch rows recorded from the wire carry their own Content-Length /
    Transfer-Encoding; the writer owns framing, so the serialized HTTP
    block must hold exactly ONE Content-Length and no Transfer-Encoding."""
    import gzip as _gz

    from heroshi_ray.sources.warc import record_bytes

    raw = _gz.decompress(
        record_bytes(
            "http://h.example/a",
            200,
            [
                ("Content-Length", "999"),  # wrong on purpose
                ("Transfer-Encoding", "chunked"),
                ("Content-Type", "text/html"),
            ],
            b"hello",
            "text/html",
            1_700_000_000_123_456,
        )
    )
    block = raw.split(b"\r\n\r\n", 1)[1]
    http_head = block.split(b"\r\n\r\n", 1)[0]
    assert http_head.lower().count(b"content-length:") == 1
    assert b"Content-Length: 5" in http_head
    assert b"transfer-encoding" not in http_head.lower()
    assert b"WARC-Date: 2023-11-14T22:13:20.123456Z" in raw


def _foreign_warc(tmp_path) -> tuple[str, bytes, bytes]:
    """A WARC file following ANOTHER tool's conventions: WARC/1.0
    version line, non-canonical header order and casing, whole-second
    WARC-Date, warcinfo + request records interleaved, a response
    split across continuation records, inter-record padding, and the
    whole file as ONE gzip member (not member-per-record)."""
    import gzip as _gz

    def rec(headers: list[str], block: bytes) -> bytes:
        head = "\r\n".join(headers + [f"Content-Length: {len(block)}"])
        return head.encode() + b"\r\n\r\n" + block + b"\r\n\r\n"

    info = rec(
        ["WARC/1.0", "WARC-Type: warcinfo",
         "WARC-Record-ID: <urn:uuid:0000>"],
        b"software: foreign-tool 1.0\r\n",
    )
    req = rec(
        ["WARC/1.0", "WARC-Type: request",
         "WARC-Target-URI: http://f.example/a",
         "WARC-Record-ID: <urn:uuid:0001>",
         "WARC-Date: 2020-01-02T03:04:05Z"],
        b"GET /a HTTP/1.1\r\nHost: f.example\r\n\r\n",
    )
    body_a = b"A" * 600
    resp_a = b"HTTP/1.1 200 OK\r\nserver: foreign\r\ncontent-type: text/plain\r\n\r\n" + body_a
    # headers deliberately out of canonical order + lowercase type value casing
    resp = rec(
        ["WARC/1.0",
         "WARC-Target-URI: http://f.example/a",
         "warc-type: response",
         "WARC-Date: 2020-01-02T03:04:06Z",
         "WARC-Record-ID: <urn:uuid:0002>"],
        resp_a,
    )
    # segmented response: header part + first body half, then continuation
    body_b = bytes(range(256)) * 4
    resp_b = (
        b"HTTP/1.1 206 Partial Content\r\nContent-Type: application/octet-stream\r\n\r\n"
        + body_b
    )
    seg1, seg2 = resp_b[:100], resp_b[100:]
    segrec1 = rec(
        ["WARC/1.0", "WARC-Type: response",
         "WARC-Record-ID: <urn:uuid:0003>",
         "WARC-Segment-Number: 1",
         "WARC-Target-URI: http://f.example/b",
         "WARC-Date: 2020-01-02T03:04:07Z"],
        seg1,
    )
    segrec2 = rec(
        ["WARC/1.0", "WARC-Type: continuation",
         "WARC-Record-ID: <urn:uuid:0004>",
         "WARC-Segment-Origin-ID: <urn:uuid:0003>",
         "WARC-Segment-Number: 2",
         f"WARC-Segment-Total-Length: {len(resp_b)}"],
        seg2,
    )
    stream = info + req + resp + b"\r\n\r\n" + segrec1 + segrec2
    out = str(tmp_path / "foreign")
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "foreign-0.warc.gz"), "wb") as f:
        f.write(_gz.compress(stream))  # ONE member for the whole file
    return out, body_a, body_b


def test_warc_foreign_profile(ray_session, tmp_path):
    """read_warc over a file written by another tool's conventions."""
    out, body_a, body_b = _foreign_warc(tmp_path)
    back = read_warc(out).to_pandas().sort_values("url").reset_index(drop=True)
    assert list(back["url"]) == ["http://f.example/a", "http://f.example/b"]
    assert list(back["status_code"]) == [200, 206]
    assert back["content"][0] == body_a
    assert back["content"][1] == body_b  # reassembled from segments
    assert back["content_type"][0] == "text/plain"
    # whole-second WARC 1.0 date parsed exactly (2020-01-02T03:04:06Z)
    assert int(back["fetched_at"][0].value) // 1000 == 1577934246 * 1_000_000


def test_warc_spec_shape(ray_session, tmp_path):
    """Each record is its own gzip member; headers follow the WARC/1.1
    grammar; the block is a parseable HTTP response."""
    out = str(tmp_path / "w2")
    src = _fetch_table(5)
    write_warc(ray.data.from_arrow(src), out, records_per_file=5).to_pandas()
    f = [p for p in os.listdir(out) if p.endswith(".warc.gz")][0]
    data = open(os.path.join(out, f), "rb").read()
    # gzip multi-member: the magic appears once per record
    assert data.count(b"\x1f\x8b\x08") == 5
    first = gzip.decompress(data)  # gzip.decompress walks all members
    assert first.startswith(b"WARC/1.1\r\n")
    head = first.split(b"\r\n\r\n", 1)[0].decode()
    assert "WARC-Type: response" in head
    assert "WARC-Target-URI: " in head
    assert "WARC-Record-ID: <urn:uuid:" in head
    assert "Content-Type: application/http;msgtype=response" in head
    block = first.split(b"\r\n\r\n", 1)[1]
    assert block.startswith(b"HTTP/1.1 ")
