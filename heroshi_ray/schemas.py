"""Fixed Arrow schemas for every engine table (SURVEY.md §1.1).

All engine tables are columnar Arrow; one ``ray.data.Dataset`` per table.
The corpus schema is dictated verbatim by BASELINE.json:15 (input_hint).
"""

from __future__ import annotations

import pyarrow as pa

# T1 — corpus: image+caption pairs (BASELINE.json:15, column list verbatim).
CORPUS = pa.schema(
    [
        ("image_id", pa.string()),
        ("bytes", pa.binary()),
        ("w", pa.int32()),
        ("h", pa.int32()),
        ("fmt", pa.string()),  # "png" lossless | "qpng" lossy-quantized
        ("caption", pa.string()),
        ("phash", pa.int64()),  # 64-bit average-hash, signed reinterpret
    ]
)

# T2 — frontier: the crawl queue, hash-partitioned by host (SURVEY.md §1.1).
FRONTIER = pa.schema(
    [
        ("url", pa.string()),
        ("surt", pa.string()),
        ("host", pa.string()),
        ("priority", pa.float64()),
        ("depth", pa.int32()),
        ("parent_surt", pa.string()),
        ("discovered_at", pa.timestamp("us")),
        ("state", pa.uint8()),  # see STATE_* below
        ("retries", pa.int32()),
        ("epoch", pa.int64()),
    ]
)

STATE_PENDING = 0
STATE_IN_FLIGHT = 1
STATE_DONE = 2
STATE_FAILED = 3
STATE_ROBOTS_DENIED = 4

# T3 — fetch results (relationalized heroshi io-worker stdout record).
# Headers are a typed map (SURVEY.md §1.1 T3); the fetcher follows 3xx
# chains itself (heroshi's Go http.Client does the same), recording the
# terminal URL, hop count, and every URL the chase discovered.
FETCH = pa.schema(
    [
        ("url", pa.string()),
        ("surt", pa.string()),
        ("host", pa.string()),
        ("status_code", pa.int32()),
        ("success", pa.bool_()),
        ("headers", pa.map_(pa.string(), pa.string())),
        ("content", pa.binary()),
        ("content_type", pa.string()),
        ("fetch_ms", pa.float64()),
        ("fetched_at", pa.timestamp("us")),
        ("error", pa.string()),
        ("final_url", pa.string()),      # terminal URL of the redirect chase (== url when direct)
        ("n_redirects", pa.int32()),
        ("redirect_chain", pa.list_(pa.string())),  # URLs discovered by the chase, in hop order
    ]
)

# T4 — robots cache rows.
ROBOTS = pa.schema(
    [
        ("host", pa.string()),
        ("robots_body", pa.string()),
        ("status", pa.int32()),
    ]
)

# T5 — metrics / lineage (BASELINE.json:14 "per-partition lineage + metrics").
METRICS = pa.schema(
    [
        ("epoch", pa.int64()),
        ("stage", pa.string()),
        ("urls_in", pa.int64()),
        ("urls_deduped", pa.int64()),
        ("urls_scheduled", pa.int64()),
        ("fetch_ok", pa.int64()),
        ("fetch_err", pa.int64()),
        ("wall_ms", pa.float64()),
        # seen-set gauges of the epoch's commit snapshot
        ("seen_keys", pa.int64()),
        ("seen_load_max", pa.float64()),
        # link rows extracted and corpus rows written by the epoch
        ("links_out", pa.int64()),
        ("corpus_rows", pa.int64()),
    ]
)


def empty_table(schema: pa.Schema) -> pa.Table:
    return schema.empty_table()
