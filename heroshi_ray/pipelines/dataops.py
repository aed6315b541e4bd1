"""Training-data pipeline operators over the testdata tables: exact +
near dedup (n-gram Jaccard, embedding cosine), similarity search (brute
force + IVF-bucketed near-dup), text analysis, image decode.

These are first-class engine components for a 100-TB corpus pipeline.
Every stage follows the scale pattern it documents:
- dedup: content-hash inside map_batches, ONE shuffle on the hash bucket;
- ANN: per-batch matmul against a broadcast query matrix, partial top-k
  merged at the end (the only driver-side object is k rows/query);
- IVF: fit coarse centroids on a sample, assign = one map_batches pass.

Public designs implemented here (no reference code exists — SURVEY.md
§0): all-pairs prefix filtering (Bayardo, Ma & Srikant, WWW'07); IVF
coarse quantization (Jégou et al., "Product quantization for nearest
neighbor search", PAMI'11 — coarse stage only).
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

import ray
import ray.data

from ..functions.ann import IVFIndex, as_matrix, l2_normalize
from ..functions.text import token_count_ws
from ..runtime import arrow_blocks, default_buckets, join_partitions, tune_join_resources
from ..sources.io import _pq
from ..stages.dedup import dedup_first

_CACHE_DIR = "/tmp/heroshi_ray_cache"


def _cache_path(name: str, sf_dir: str | None = None) -> str:
    """Path of a derived fixture file under the shared cache dir (which
    is created). A file built from ``sf_dir``'s tables must pass it: a
    digest of the resolved dir is folded into the name, so fixtures of
    two scale factors (or two test dirs) never share one cache file."""
    os.makedirs(_CACHE_DIR, exist_ok=True)
    if sf_dir is not None:
        import hashlib

        tag = hashlib.sha1(os.path.realpath(sf_dir).encode()).hexdigest()[:10]
        stem, ext = os.path.splitext(name)
        name = f"{stem}_{tag}{ext}"
    return os.path.join(_CACHE_DIR, name)


def _centroid_sample(
    sf_dir: str, n_centroids: int, per_centroid: int = 64, floor: int = 2048
) -> np.ndarray:
    """Deterministic, corpus-spread codebook training sample (the
    10^9-vector sizing rule): target = max(floor, per_centroid *
    n_centroids) rows — ~64 points per centroid keeps Lloyd's variance
    flat as n_centroids grows, and the floor keeps small codebooks
    saturated. Rows are drawn by vec_id hash
    threshold, NOT ``limit(n)``: at 10^9 vectors limit() trains the
    codebook on the first blocks of one shard's distribution (the
    recall cliff when ingest order correlates with content — e.g. a
    corpus appended source-by-source); the hash draw touches every
    block of ONE column-pruned pass and is batching/order independent.
    Expected draw is ~2x target (exact parquet row counts size the
    threshold), then cut deterministically to exactly target by
    (hash, vec_id)."""
    import pyarrow.parquet as pq_mod

    from ..functions.ann import as_matrix
    from ..functions.hashing import hash64

    target = max(floor, per_centroid * n_centroids)
    path = os.path.join(sf_dir, "embeddings.parquet")
    n_rows = pq_mod.read_metadata(path).num_rows
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"], split=True)
    if n_rows <= target:
        df = ds.to_pandas()
        order = np.lexsort((df["vec_id"].to_numpy(),))
        return as_matrix(df["embedding"].to_numpy()[order].tolist())
    # uint64 threshold for ~2x-target expected keep rate
    thresh = np.uint64(min((2 * target / n_rows), 1.0) * float(2**64 - 1))

    def pick(batch: pa.Table) -> pa.Table:
        h = hash64(batch.column("vec_id"))
        return batch.filter(pa.array(h <= thresh)).append_column(
            "__h", pa.array(h[h <= thresh].view(np.int64), pa.int64())
        )

    df = ds.map_batches(pick, batch_format="pyarrow", zero_copy_batch=True).to_pandas()
    order = np.lexsort(
        (df["vec_id"].to_numpy(), df["__h"].to_numpy().view(np.uint64))
    )[:target]
    return as_matrix(df["embedding"].to_numpy()[order].tolist())


# ------------------------------------------------------------ exact dedup
def q_dedup_exact(sf_dir: str):
    """Exact dedup on text content: min doc_id per text. Shuffle keyed on
    hash(text)%B — rows with equal text co-locate; the full text is the
    key only inside a bucket (at 100 TB you'd key on a 64-bit content
    fingerprint and verify equality in-bucket; identical layout)."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    return dedup_first(ds, key="text", tie_cols=("doc_id",), n_buckets=default_buckets())


def q_dedup_first(sf_dir: str):
    """First lineitem row per l_orderkey, ties broken by (l_linenumber,
    l_partkey, l_quantity): ``dedup_first`` with an integer key and a
    three-column tie-break (``q_dedup_exact`` covers a string key and
    one tie column)."""
    ds = _pq(
        sf_dir, "lineitem",
        columns=["l_orderkey", "l_partkey", "l_linenumber", "l_quantity"],
    )
    return dedup_first(
        ds, key="l_orderkey",
        tie_cols=("l_linenumber", "l_partkey", "l_quantity"),
        n_buckets=default_buckets(),
    )


def q_dedup_cluster_hist(sf_dir: str):
    """Duplicate-cluster size profile — the corpus-card histogram
    (cluster_size, n_clusters) over exact text duplicates: size 1 =
    unique docs, the tail shows how pathological the duplication is
    (Lee et al. 2022 report exactly this curve before/after dedup).

    Layout: per-batch partial (text, n) counts collapse each block's
    repeats before the shuffle (combiner), ONE groupby on text merges
    partials (grouping by the text itself keeps exactness — no hash
    collision caveat), and the histogram reduce runs over cluster
    SIZES (tiny int domain). Only distinct texts cross the wire."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = df.groupby("text", sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "text": pa.array(g["text"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    sizes = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("text")
        .aggregate(Sum("n", alias_name="n"))
    )

    def to_hist(batch: pa.Table) -> pa.Table:
        n = batch.column("n").to_numpy(zero_copy_only=False).astype(np.int64)
        ids, cnt = np.unique(n, return_counts=True)
        return pa.table(
            {
                "cluster_size": pa.array(ids, pa.int64()),
                "n_clusters": pa.array(cnt.astype(np.int64), pa.int64()),
            }
        )

    return (
        sizes.map_batches(to_hist, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("cluster_size")
        .aggregate(Sum("n_clusters", alias_name="n_clusters"))
    )


def _group_pairs(group_key: np.ndarray, payloads: list) -> list:
    """All unordered within-group pairs, degree-class-vectorized (the
    shared core of q_triangle_count's wedge stage and q_edit_neardup's
    candidate stage): rows must arrive SORTED by group_key; rows are
    re-ordered by group size so every same-size group stacks into one
    (m, k) matrix and a single triu gather emits all pairs — zero
    per-group Python. Returns [(pay_a, pay_b), ...] per payload array."""
    change = np.r_[True, group_key[1:] != group_key[:-1]]
    gid = np.cumsum(change) - 1
    sizes = np.bincount(gid)
    order = np.argsort(sizes[gid], kind="stable")  # group rows stay contiguous
    k_of_row = sizes[gid][order]
    pays = [p[order] for p in payloads]
    outs = [([], []) for _ in payloads]
    start = 0
    for k in np.unique(sizes):
        n_rows = int((k_of_row == k).sum())
        if k < 2:
            start += n_rows
            continue
        iu, ju = np.triu_indices(k, 1)
        for p, (oa, ob) in zip(pays, outs):
            mat = p[start : start + n_rows].reshape(-1, k)
            oa.append(mat[:, iu].ravel())
            ob.append(mat[:, ju].ravel())
        start += n_rows
    empty = np.empty(0, payloads[0].dtype if payloads else np.int64)
    return [
        (
            np.concatenate(oa) if oa else np.empty(0, p.dtype),
            np.concatenate(ob) if ob else np.empty(0, p.dtype),
        )
        for p, (oa, ob) in zip(payloads, outs)
    ]


def _dedup_pairs(cand: "ray.data.Dataset", a_col: str, b_col: str,
                 n_buckets: int | None = None) -> "ray.data.Dataset":
    """Distributed (a, b) pair dedup: one shuffle keyed on hash(pair)%B,
    per-bucket vectorized drop_duplicates — equal pairs co-locate, so no
    pair set ever reaches the driver."""
    from ..functions.hashing import hash64

    n_buckets = n_buckets or default_buckets()

    def add_pk(batch: pa.Table) -> pa.Table:
        keys = [
            f"{a}|{b}"
            for a, b in zip(
                batch.column(a_col).to_pylist(), batch.column(b_col).to_pylist()
            )
        ]
        pk = (hash64(keys) % np.uint64(n_buckets)).astype(np.int32)
        return batch.append_column("__pk", pa.array(pk, pa.int32()))

    def drop_dup(g: pd.DataFrame) -> pd.DataFrame:
        return g.drop_duplicates(subset=[a_col, b_col]).drop(columns=["__pk"])

    return (
        cand.map_batches(add_pk, batch_format="pyarrow")
        .groupby("__pk")
        .map_groups(drop_dup, batch_format="pandas")
    )


def _attach_pair_texts(
    cand: "ray.data.Dataset", ds: "ray.data.Dataset", n_cand: int
) -> "ray.data.Dataset":
    """Attach both documents' texts to each of the ``n_cand`` (doc_a,
    doc_b) candidate pairs for an exact verify stage: two distributed
    hash joins back to the documents table, so neither the corpus nor
    anything candidate-sized reaches the driver."""
    tune_join_resources()
    # squeeze out zero-row blocks (sparse pair buckets): Ray's hash
    # join aborts on partitions that receive only empty blocks
    cand = cand.repartition(max(1, min(8, n_cand // 1000)))

    def _renamed(col_id: str, col_text: str):
        return ds.map_batches(
            lambda b, ci=col_id, ct=col_text: pa.table(
                {ci: b.column("doc_id"), ct: b.column("text")}
            ),
            batch_format="pyarrow",
        )

    return cand.join(
        _renamed("doc_a", "__text_a"), join_type="inner",
        num_partitions=join_partitions(8), on=("doc_a",),
    ).join(
        _renamed("doc_b", "__text_b"), join_type="inner",
        num_partitions=join_partitions(8), on=("doc_b",),
    )


# --------------------------------------------------------------- text ---
def q_token_count(sf_dir: str):
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def tc(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(token_count_ws(texts), pa.int64()),
            }
        )

    return ds.map_batches(tc, batch_format="pyarrow", zero_copy_batch=True)


def q_stopword_stats(sf_dir: str):
    """Integer-exact stopword counters per document (the SQL-expressible
    core of stopword-ratio quality gating, split out so it hash-checks
    against a DuckDB list_filter twin): whitespace token count and the
    number of tokens whose lowercase form is a stopword. Vectorized —
    polars extract_all + list-eval, zero Python per-row work."""
    import polars as pl

    from ..functions.text import STOPWORDS

    stop = sorted(STOPWORDS)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def counters(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.extract_all(r"\S+")
        d = pl.select(
            n_tokens=toks.list.len().cast(pl.Int64),
            n_stop=toks.list.eval(
                pl.element().str.to_lowercase().is_in(stop)
            ).list.sum().fill_null(0).cast(pl.Int64),
        ).to_arrow()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": d.column("n_tokens"),
                "n_stop": d.column("n_stop"),
            }
        )

    return ds.map_batches(counters, batch_format="pyarrow", zero_copy_batch=True)


def q_quality_stats(sf_dir: str):
    """Integer-exact quality counters per document (the SQL-expressible
    half of the quality-scoring bundle, split out so it is hash-checked
    against the DuckDB oracle): char count, whitespace-token count,
    punctuation count (neither alnum nor whitespace) and uppercase
    count. Fully vectorized — polars count_matches over an Arrow column,
    zero Python per-row work. The corpus is printable-ASCII, so the RE2
    classes in the SQL twin and the Rust-regex classes here agree."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def counters(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        d = pl.select(
            n_chars=s.str.len_chars().cast(pl.Int64),
            n_words=s.str.count_matches(r"\S+").cast(pl.Int64),
            n_punct=s.str.count_matches(r"[^A-Za-z0-9\s]").cast(pl.Int64),
            n_upper=s.str.count_matches(r"[A-Z]").cast(pl.Int64),
        ).to_arrow()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_chars": d.column("n_chars"),
                "n_words": d.column("n_words"),
                "n_punct": d.column("n_punct"),
                "n_upper": d.column("n_upper"),
            }
        )

    return ds.map_batches(counters, batch_format="pyarrow", zero_copy_batch=True)


def q_token_histogram(sf_dir: str, bucket: int = 10):
    """Token-length distribution: whitespace token count per doc,
    bucketed to width-10 bins, counted — partial histogram per batch
    (combiner), tiny final groupby. The corpus-statistics shape every
    training-data pipeline reports."""
    ds = _pq(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        n = token_count_ws(batch.column("text").to_pylist())
        b = (n // bucket) * bucket
        u, c = np.unique(b, return_counts=True)
        return pa.table(
            {
                "token_bucket": pa.array(u.astype(np.int64), pa.int64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token_bucket")
        .aggregate(Sum("cnt", alias_name="n_docs"))
    )


def q_lang_count(sf_dir: str):
    from ray.data.aggregate import Count

    ds = _pq(sf_dir, "documents", columns=["lang"])
    return ds.groupby("lang").aggregate(Count(alias_name="n"))


def q_bigram_count(sf_dir: str, min_count: int = 5):
    """Global bigram (consecutive-token-pair) counts over the corpus —
    the co-occurrence-statistics shape (phrase mining, tokenizer-merge
    candidates) every training-data pipeline computes.

    Combiner layout: each batch explodes its own bigrams and counts them
    locally (polars split/shift/explode — zero Python per row), so the
    shuffle moves per-batch partial counts (bounded by the batch's
    distinct-bigram vocabulary), not one row per bigram occurrence; one
    final groupby-sum + threshold filter. Tokenization is a literal
    single-space split, identical to the DuckDB twin's string_split."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.column("text")).str.split(" ")
        pairs = (
            pl.select(a=t, b=t.list.shift(-1))
            .explode(["a", "b"])
            .filter(pl.col("b").is_not_null())
            .select(bigram=pl.col("a") + " " + pl.col("b"))
            .group_by("bigram")
            .len()
        )
        return pa.table(
            {
                "bigram": pairs["bigram"].to_arrow(),
                "cnt": pairs["len"].cast(pl.Int64).to_arrow(),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bigram")
        .aggregate(Sum("cnt", alias_name="cnt"))
    )
    return counts.map_batches(
        lambda b: b.filter(pc.greater_equal(b.column("cnt"), min_count)),
        batch_format="pyarrow",
    )


def q_tfidf(sf_dir: str, terms: tuple = ("table", "hash", "sort")):
    """Integer-exact tf-idf retrieval scoring for a fixed term set.

    idf is fixed-point ``(N_docs * 10^6) // df`` (floored integer — a
    float ln-idf would diverge from any SQL twin in last-ulp ordering),
    so ``tfidf_e6 = Σ_t tf_t * idf_e6_t`` hash-matches DuckDB exactly.

    Scale shape: pass 1 computes per-term document frequencies as
    per-batch partial sums -> O(|terms|) numbers on the driver (the
    idf map is |terms|-sized, broadcast-safe at any corpus size);
    pass 2 scores each doc with one vectorized polars pass. Tokens =
    literal single-space split, same as the oracle's string_split."""
    import polars as pl

    terms = list(terms)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def df_partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.column("text")).str.split(" ")
        return pa.table(
            {
                "term": pa.array(terms, pa.string()),
                "df": pa.array(
                    [int((t.list.count_matches(w) > 0).sum()) for w in terms],
                    pa.int64(),
                ),
            }
        )

    from ray.data.aggregate import Sum

    df_rows = (
        ds.map_batches(df_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .take_all()
    )  # O(|terms|) rows — the only driver contact
    n_docs = ds.count()
    idf = {
        r["term"]: (n_docs * 10**6) // r["df"] if r["df"] else 0 for r in df_rows
    }

    def score(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.column("text")).str.split(" ")
        total = np.zeros(batch.num_rows, dtype=np.int64)
        for w in terms:
            tf = t.list.count_matches(w).cast(pl.Int64).to_numpy()
            total += tf * idf[w]
        out = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "tfidf_e6": pa.array(total, pa.int64()),
            }
        )
        return out.filter(pc.greater(out.column("tfidf_e6"), 0))

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# ---------------------------------------------------------------- ANN ---
def _query_matrix(sf_dir: str, n_queries: int, with_label: bool = False):
    """First ``n_queries`` vectors by vec_id, selected with a distributed
    per-block partial min-n + tiny driver merge (shuffle-free global
    top-n). Each block contributes at most n_queries rows to the
    driver, so this never materializes the embeddings table — at 100 TB
    the driver sees O(blocks * n_queries) rows, not the corpus."""
    cols = ["vec_id", "embedding"] + (["label"] if with_label else [])
    ds = _pq(sf_dir, "embeddings", columns=cols, split=True)

    def partial_min(batch: pa.Table) -> pa.Table:
        order = pc.sort_indices(batch, sort_keys=[("vec_id", "ascending")])
        return batch.take(order[:n_queries])

    df = (
        ds.map_batches(partial_min, batch_format="pyarrow")
        .to_pandas()
        .sort_values("vec_id")
        .head(n_queries)
    )
    if with_label:
        return (
            df["vec_id"].to_numpy(),
            as_matrix(df["embedding"].tolist()),
            df["label"].to_numpy().astype(np.int64),
        )
    return df["vec_id"].to_numpy(), as_matrix(df["embedding"].tolist())


def _merge_topk(parts: pd.DataFrame, k: int) -> pa.Table:
    """Driver merge of per-batch partial top-ks (k x blocks rows in):
    deterministic (sim desc, vec_id asc) top-k per query, sims rounded
    to e4 ints so the result is order-insensitively hashable. Shared by
    every ANN variant — the tie-break and rounding rule here IS the
    equality contract between q_ann_knn, q_ann_filtered and their
    DuckDB twins."""
    rows = []
    for qid, g in parts.groupby("query_id"):
        g = g.sort_values(
            ["cos_sim_raw", "vec_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        for r in g.itertuples():
            rows.append((qid, r.vec_id, int(round(r.cos_sim_raw * 10000))))
    rows.sort()
    return pa.table(
        {
            "query_id": pa.array([r[0] for r in rows], pa.int64()),
            "vec_id": pa.array([r[1] for r in rows], pa.int64()),
            "cos_sim_e4": pa.array([r[2] for r in rows], pa.int64()),
        }
    )


def q_ann_knn(
    sf_dir: str,
    n_queries: int = 5,
    k: int = 3,
    driver_vecs_max: int = 500_000,
    force_distributed: bool = False,
):
    """Brute-force cosine top-k per query: per-batch matmul against the
    broadcast query matrix, per-batch partial top-k, driver merge of
    (n_queries × k) rows. Exact — the DuckDB twin cross-joins.

    Size-adaptive: exact scoring makes the per-batch top-k union
    batching-independent, so under ``driver_vecs_max`` rows (parquet
    metadata) the SAME partial kernel runs once on a driver-read table
    — identical output, zero plan launches. Equivalence-tested."""
    import pyarrow.parquet as pq_mod

    qids, qmat = _query_matrix(sf_dir, n_queries)
    q_ref = ray.put((qids, l2_normalize(qmat.astype(np.float64))))
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        qids_, qn = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        mat = l2_normalize(as_matrix(batch.column("embedding").to_pylist()).astype(np.float64))
        sims = mat @ qn.T  # (n, nq)
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(qids_):
            s = sims[:, j]
            mask = ids != qid
            order = np.lexsort((ids[mask], -s[mask]))[:k]
            sel_ids = ids[mask][order]
            sel_s = s[mask][order]
            out_q.extend([qid] * len(order))
            out_v.extend(sel_ids.tolist())
            out_s.extend(sel_s.tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos_sim_raw": pa.array(out_s, pa.float64()),
            }
        )

    emb_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")
    ).num_rows
    if emb_rows <= driver_vecs_max and not force_distributed:
        tbl = pq_mod.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        )
        return _merge_topk(partial(tbl).to_pandas(), k)

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k)


def q_embed_neardup(
    sf_dir: str,
    threshold: float = 0.45,
    n_centroids: int = 16,
    n_assign: int = 6,
    driver_vecs_max: int = 500_000,
    force_distributed: bool = False,
):
    """Embedding-cosine near-dup pairs via IVF bucketing (the scale
    path): coarse centroids fit on a sample, every vector multi-assigned
    to its ``n_assign`` nearest cells (one map_batches pass, explode),
    all-pairs comparison only WITHIN a cell (groupby(cell).map_groups,
    vectorized matmul), duplicate pairs removed by one hash(pair)
    shuffle. Compute is O(N^2 / C * A^2) instead of O(N^2), and nothing
    is broadcast except the centroid matrix.

    Multi-assignment makes recall exact on this data: a pair at
    cosine >= threshold has near-parallel vectors, so their top-cell
    rankings agree within the first few entries; tests assert equality
    against the brute-force all-pairs result (and the DuckDB oracle
    cross-join is the driver's check). Size-adaptive: the distributed
    plan replicates every embedding ``n_assign``x through TWO
    all-to-alls (the cell shuffle, then the pair-dedup shuffle) —
    correct at corpus scale, pure tax under ``driver_vecs_max`` rows
    (exact parquet metadata), where the identical assign/cell_pairs
    kernels run in one driver pass (same deterministic hash-drawn
    centroid sample — _centroid_sample, batching-independent,
    same e4 rounding, so the forks are bit-identical —
    equivalence-tested). Returns (vec_a, vec_b, cos_sim_e4),
    vec_a < vec_b."""
    import pyarrow.parquet as pq_mod

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"], split=True)
    sample = _centroid_sample(sf_dir, n_centroids)
    index = IVFIndex(n_centroids=n_centroids).fit(sample)
    idx_ref = ray.put(index)

    def assign_explode(batch: pa.Table) -> pa.Table:
        ix = ray.get(idx_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        emb = batch.column("embedding")
        mat = as_matrix(emb.to_pylist())
        cells = ix.assign_topn(mat, n_assign)  # (n, A)
        n, a = cells.shape
        rep = np.repeat(np.arange(n), a)
        return pa.table(
            {
                "cell": pa.array(cells.ravel(), pa.int32()),
                "vec_id": pa.array(ids[rep], pa.int64()),
                "embedding": emb.take(pa.array(rep)),
            }
        )

    def cell_pairs(g: pd.DataFrame) -> pd.DataFrame:
        ids = g["vec_id"].to_numpy()
        # one row per distinct vec per cell partition (several cells land
        # in one coarse group; pairs are still generated per cell)
        out_a, out_b, out_s = [], [], []
        for _, cg in g.groupby("cell", sort=False):
            cid = cg["vec_id"].to_numpy()
            if len(cid) < 2:
                continue
            mat = l2_normalize(as_matrix(cg["embedding"].tolist()).astype(np.float64))
            sims = mat @ mat.T
            iu, ju = np.triu_indices(len(cid), k=1)
            cand = sims[iu, ju] >= threshold - 1e-9  # matmul = candidate detect only
            if not cand.any():
                continue
            ci, cj = iu[cand], ju[cand]
            # final value via per-pair einsum: context-independent floats,
            # so the same pair found in two cells rounds identically and
            # the downstream pair-dedup is deterministic
            s = np.einsum("ij,ij->i", mat[ci], mat[cj])
            keep = s >= threshold
            if not keep.any():
                continue
            a = np.minimum(cid[ci[keep]], cid[cj[keep]])
            b = np.maximum(cid[ci[keep]], cid[cj[keep]])
            out_a.extend(a.tolist())
            out_b.extend(b.tolist())
            out_s.extend([int(round(float(x) * 10000)) for x in s[keep]])
        return pd.DataFrame(
            {
                "vec_a": pd.Series(out_a, dtype=np.int64),
                "vec_b": pd.Series(out_b, dtype=np.int64),
                "cos_sim_e4": pd.Series(out_s, dtype=np.int64),
            }
        )

    empty = pa.table(
        {
            "vec_a": pa.array([], pa.int64()),
            "vec_b": pa.array([], pa.int64()),
            "cos_sim_e4": pa.array([], pa.int64()),
        }
    )

    emb_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "embeddings.parquet")
    ).num_rows
    if emb_rows <= driver_vecs_max and not force_distributed:
        edf = pq_mod.read_table(
            os.path.join(sf_dir, "embeddings.parquet"),
            columns=["vec_id", "embedding"],
        ).to_pandas()  # gate-bounded
        ids = edf["vec_id"].to_numpy()
        cells = index.assign_topn(
            as_matrix(edf["embedding"].tolist()), n_assign
        )
        rep = np.repeat(np.arange(len(ids)), cells.shape[1])
        g = pd.DataFrame(
            {
                "cell": cells.ravel(),
                "vec_id": ids[rep].astype(np.int64),
                "embedding": edf["embedding"].to_numpy()[rep],
            }
        )
        out = (
            cell_pairs(g)
            .drop_duplicates(["vec_a", "vec_b"])
            .sort_values(["vec_a", "vec_b"], kind="mergesort")
        )
        if not len(out):
            return empty
        return pa.Table.from_pandas(out, preserve_index=False)

    pairs_ds = (
        ds.map_batches(assign_explode, batch_format="pyarrow")
        .groupby("cell")
        .map_groups(cell_pairs, batch_format="pandas")
    )
    pairs_ds = _dedup_pairs(pairs_ds, "vec_a", "vec_b")
    blocks = arrow_blocks(pairs_ds)
    if not blocks:
        return empty

    merged = pa.concat_tables(blocks, promote_options="none").select(
        ["vec_a", "vec_b", "cos_sim_e4"]
    )
    return merged.take(
        pc.sort_indices(
            merged, sort_keys=[("vec_a", "ascending"), ("vec_b", "ascending")]
        )
    )


def q_embed_dedup(sf_dir: str, threshold: float = 0.45):
    """Near-dup DEDUP keep-list (the materialized form of
    q_embed_neardup): drop every vector that has a near-duplicate with a
    smaller vec_id; keep the rest. The drop set is the pair list's
    right column — O(|pairs|), broadcast into a streaming is_in filter
    over the table (no shuffle). Oracled via a NOT IN cross-join twin."""
    pairs = q_embed_neardup(sf_dir, threshold)
    drop = pa.array(sorted(set(pairs.column("vec_b").to_pylist())), pa.int64())
    drop_ref = ray.put(drop)
    ds = _pq(sf_dir, "embeddings", columns=["vec_id"])

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.invert(
            pc.is_in(batch.column("vec_id"), value_set=ray.get(drop_ref))
        )
        return batch.filter(mask)

    return ds.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)


def q_dedup_clusters(
    sf_dir: str,
    threshold: float = 0.45,
    max_iters: int = 64,
    driver_labels_max: int = 2_000_000,
    stats: dict | None = None,
):
    """Near-dup CLUSTERS: connected components over the embedding
    near-dup graph — the transitive-closure form of dedup (a~b and b~c
    put a and c in one cluster even when a,c are not directly similar),
    which keep-lists like q_embed_dedup cannot express. The iterative-
    algorithm class of the engine.

    Layout: hash-min label propagation WITH POINTER DOUBLING (each
    round: one edge pass folding neighbor labels via groupby-Min, then
    label[x] <- label[label[x]] path compression), so rounds are
    O(log diameter) instead of O(diameter). Two size-adaptive layouts:

    - |edge-subgraph nodes| <= driver_labels_max: labels are one int64
      numpy vector on the driver, edge passes are distributed
      map_batches + groupby-Min, doubling is an in-memory gather —
      cheapest when near-dups are rare (label state is output-scale).
    - above the bound (web corpora run 30%+ duplicate, where the edge
      subgraph is corpus-sized): labels live in a Dataset; each round
      is edges⋈labels hash join → per-node groupby-Min → self-join
      pointer doubling, and convergence is detected by the Sum of all
      labels (min-propagation is monotone decreasing, so an unchanged
      sum IS the fixpoint — no driver-side label diff needed). Nothing
      corpus-sized ever touches the driver.

    Non-convergence within max_iters raises rather than silently
    returning partially-propagated ids. Isolated nodes never enter the
    loop — they get their own id in the final streaming attach pass.
    Oracled by a DuckDB RECURSIVE CTE computing min-reachable-id —
    edge sets agree exactly because q_embed_neardup itself is
    oracle-green under the same predicate. The size-adaptive core is
    _cc_attach_int."""
    pairs = q_embed_neardup(sf_dir, threshold)
    ds = _pq(sf_dir, "embeddings", columns=["vec_id"])
    if stats is not None:
        stats["iters"] = 0
    if pairs.num_rows == 0:
        return ds.map_batches(
            lambda b: pa.table(
                {"vec_id": b.column("vec_id"), "cluster_id": b.column("vec_id")}
            ),
            batch_format="pyarrow",
        )

    return _cc_attach_int(
        ds,
        "vec_id",
        pairs.column("vec_a").to_numpy(),
        pairs.column("vec_b").to_numpy(),
        max_iters,
        driver_labels_max,
        stats,
    )


def _cc_join_attach(ds, id_col: str, labels):
    """Distributed attach of a Dataset-resident label table: corpus
    left-outer-joins the (node, lbl) labels on id_col; rows with no
    verified near-dup coalesce to their own id."""
    tune_join_resources()
    nparts = join_partitions(8)
    lbl2 = labels.map_batches(
        lambda t: pa.table({id_col: t.column("node"), "_cc_lbl": t.column("lbl")}),
        batch_format="pyarrow",
    ).repartition(nparts)
    n_rows = ds.count()
    joined = ds.repartition(max(2, min(nparts, n_rows // 4096 + 1))).join(
        lbl2, join_type="left_outer", num_partitions=nparts, on=(id_col,)
    )

    def fill(batch: pa.Table) -> pa.Table:
        v = batch.column(id_col)
        lbl = pc.coalesce(batch.column("_cc_lbl"), v)
        return pa.table({id_col: v, "cluster_id": lbl})

    return joined.map_batches(fill, batch_format="pyarrow")


def _cc_attach_int(
    ds,
    id_col: str,
    a: np.ndarray,
    b: np.ndarray,
    max_iters: int,
    driver_labels_max: int,
    stats: dict | None = None,
):
    """Size-adaptive connected-components core for int64 ids:
    pair endpoints (a, b) -> per-row (id_col, cluster_id) over ds,
    cluster_id = min reachable id. Below driver_labels_max the label
    vector lives on the driver (_cc_labels_driver; edge passes stay
    distributed); above it labels are Dataset-resident
    (_cc_labels_distributed) and the attach is a left-outer hash join
    (_cc_join_attach) — nothing corpus-sized touches the driver."""
    a = np.asarray(a, np.int64)
    b = np.asarray(b, np.int64)
    edges_tbl = pa.table(
        {
            "src": pa.array(np.concatenate([a, b]), pa.int64()),
            "dst": pa.array(np.concatenate([b, a]), pa.int64()),
        }
    )
    n_nodes = len(np.unique(np.concatenate([a, b])))

    if n_nodes > driver_labels_max:
        labels = _cc_labels_distributed(edges_tbl, max_iters, stats)
        return _cc_join_attach(ds, id_col, labels)

    ns, ls = _cc_labels_driver(edges_tbl, max_iters, stats)
    final_ref = ray.put((ns, ls))

    def attach(batch: pa.Table) -> pa.Table:
        ns, ls = ray.get(final_ref)
        v = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
        out = v.copy()  # isolated nodes: own id
        if len(ns):
            pos = np.clip(np.searchsorted(ns, v), 0, len(ns) - 1)
            hit = ns[pos] == v
            out[hit] = ls[pos[hit]]
        return pa.table(
            {
                id_col: pa.array(v, pa.int64()),
                "cluster_id": pa.array(out, pa.int64()),
            }
        )

    return ds.map_batches(attach, batch_format="pyarrow")


def _cc_pointer_double(nodes: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """In-memory path compression: label[x] <- label[label[x]] until
    stable. Valid because every label value is itself a node id of the
    edge subgraph (min-propagation only moves existing ids)."""
    while True:
        nxt = labels[np.searchsorted(nodes, labels)]
        if np.array_equal(nxt, labels):
            return labels
        labels = nxt


def _cc_labels_driver(edges_tbl: pa.Table, max_iters: int, stats: dict | None):
    """Hash-min label propagation, labels resident on the driver
    (edge-subgraph-scale). Edge passes stay distributed; pointer
    doubling is a numpy gather per round."""
    from ray.data.aggregate import Min

    edges_ds = ray.data.from_arrow(edges_tbl)
    nodes = np.unique(edges_tbl.column("src").to_numpy())
    labels = nodes.copy()

    for it in range(max_iters):
        lbl_ref = ray.put((nodes, labels))

        def msgs(batch: pa.Table) -> pa.Table:
            ns, ls = ray.get(lbl_ref)
            s = batch.column("src").to_numpy(zero_copy_only=False)
            d = batch.column("dst").to_numpy(zero_copy_only=False)
            return pa.table(
                {
                    "node": pa.array(d, pa.int64()),
                    "lbl": pa.array(ls[np.searchsorted(ns, s)], pa.int64()),
                }
            )

        agg = (
            edges_ds.map_batches(msgs, batch_format="pyarrow")
            .groupby("node")
            .aggregate(Min("lbl", alias_name="lbl"))
            .to_pandas()  # ≤ |edge-subgraph nodes| rows — output-scale
        )
        new = labels.copy()
        idx = np.searchsorted(nodes, agg["node"].to_numpy())
        np.minimum.at(new, idx, agg["lbl"].to_numpy())
        new = _cc_pointer_double(nodes, new)
        if stats is not None:
            stats["iters"] = it + 1
        if np.array_equal(new, labels):
            return nodes, labels
        labels = new
    raise RuntimeError(
        f"q_dedup_clusters: label propagation did not converge in "
        f"{max_iters} rounds (pathological graph?); refusing to return "
        f"partially-propagated cluster ids"
    )


def _cc_labels_distributed(edges_tbl: pa.Table, max_iters: int, stats: dict | None):
    """Hash-min label propagation with Dataset-resident labels — the
    100-TB path for web-scale duplicate rates where the edge subgraph
    is corpus-sized. Per round: edges⋈labels hash join (src lookup) →
    per-node groupby-Min over messages ∪ self-labels → pointer-doubling
    self-join. The fixpoint is detected by the (monotone-decreasing)
    global label Sum of the int64 ids — the driver holds two scalars."""
    from ray.data.aggregate import Min

    if isinstance(edges_tbl, ray.data.Dataset):
        # dataset-resident edge sets (q_cc_sizes' 100-TB fork): never
        # collected; the row count comes from count()
        n_edge_rows = edges_tbl.count()
        edges_in = edges_tbl
    else:
        n_edge_rows = edges_tbl.num_rows
        edges_in = ray.data.from_arrow(edges_tbl)
    tune_join_resources()
    nparts = join_partitions(8)
    edges_ds = (
        edges_in
        .map_batches(
            lambda b: pa.table({"node": b.column("src"), "dst": b.column("dst")}),
            batch_format="pyarrow",
        )
        .repartition(max(2, min(nparts, n_edge_rows // 4096 + 1)))
        .materialize()
    )
    # distinct nodes, label = own id (symmetrized edges: src covers all)
    labels = (
        edges_ds.map_batches(
            lambda b: pa.table({"node": b.column("node"), "lbl": b.column("node")}),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Min("lbl", alias_name="lbl"))
        .repartition(nparts)
        .materialize()
    )
    prev_sum = labels.sum(on="lbl")

    for it in range(max_iters):
        # 1 hop: every node receives its neighbors' current labels
        msgs = edges_ds.join(
            labels, join_type="inner", num_partitions=nparts, on=("node",)
        ).map_batches(
            lambda b: pa.table({"node": b.column("dst"), "lbl": b.column("lbl")}),
            batch_format="pyarrow",
        )
        new = (
            msgs.union(labels)
            .groupby("node")
            .aggregate(Min("lbl", alias_name="lbl"))
        )
        # pointer doubling: lbl <- label-of-label (≤ lbl by monotonicity)
        parent = new.map_batches(
            lambda b: pa.table({"lbl": b.column("node"), "plbl": b.column("lbl")}),
            batch_format="pyarrow",
        ).repartition(nparts)
        new = (
            new.repartition(nparts)
            .join(parent, join_type="inner", num_partitions=nparts, on=("lbl",))
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("node"),
                        "lbl": pc.min_element_wise(
                            b.column("lbl"), b.column("plbl")
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
            .repartition(nparts)
            .materialize()
        )
        cur_sum = new.sum(on="lbl")
        converged = cur_sum == prev_sum
        prev_sum = cur_sum
        labels = new
        if stats is not None:
            stats["iters"] = it + 1
        if converged:
            return labels  # Dataset(node, lbl) — never on the driver
    raise RuntimeError(
        f"q_dedup_clusters: distributed label propagation did not "
        f"converge in {max_iters} rounds"
    )


def q_pagerank(
    sf_dir: str,
    n_iters: int = 6,
    broadcast_limit: int = 2_000_000,
    force_distributed: bool = False,
    seed_mod: int | None = None,
    driver_edges_max: int = 4_000_000,
):
    """Integer PageRank over a deterministic customer link graph —
    the link-analysis / crawl-prioritization shape (heroshi-class
    crawlers rank the frontier by link authority), and with
    q_dedup_clusters the second member of the iterative-algorithm class.

    Graph: node = c_custkey, edge o_custkey -> (o_orderkey mod |nodes|)
    per order row (parallel edges keep multiplicity). All arithmetic is
    int64 fixed-point: rank mass 10^12, per-source share floored by
    outdegree, damping 85/100 applied AFTER the in-edge sum — float
    PageRank would diverge from any SQL twin in summation order, the
    integer form hash-matches the DuckDB unrolled-CTE twin exactly.

    Scale shape: edges pre-aggregate to (src, dst, cnt) + outdegree (one
    combiner groupby each); per iteration ONE join of ranks into edges
    on src and one groupby-sum on dst. Below ``broadcast_limit`` nodes
    the rank vector rides ``ray.put`` and the join is a map-side numpy
    lookup; above it ranks stay a Dataset and the join is a distributed
    hash join (both paths equivalence-tested).

    Size-adaptive driver fork (the q_opic/q_degree_stats pattern):
    below ``driver_edges_max`` orders rows (exact parquet metadata, no
    scan) the whole power iteration runs in one driver numpy pass —
    the per-iteration Ray plan launches were the entire cost at small
    scale, and the int64 fixed-point arithmetic makes the fork
    BIT-IDENTICAL to both distributed plans (three-way
    equivalence-tested).

    ``seed_mod`` switches to PERSONALIZED PageRank (q_ppr): teleport
    mass and the initial distribution concentrate on the seed set
    {node % seed_mod == 0} instead of spreading uniformly. Seed
    membership is pure node arithmetic, so the distributed path needs
    no seed-vector broadcast — each map computes it from the dst
    column inline."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    cust = pq_mod.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_nodes = cust.num_rows
    nodes = cust.column("c_custkey").to_numpy()  # 0..n-1 contiguous by fixture
    is_seed = (
        (np.arange(n_nodes, dtype=np.int64) % seed_mod == 0)
        if seed_mod
        else np.ones(n_nodes, bool)
    )
    n_active = int(is_seed.sum())
    r0 = np.int64(10**12 // n_active)
    base = np.int64(15 * int(r0) // 100)
    r0v = np.where(is_seed, r0, np.int64(0)).astype(np.int64)
    basev = np.where(is_seed, base, np.int64(0)).astype(np.int64)

    orders_path = os.path.join(sf_dir, "orders.parquet")
    if (
        pq_mod.read_metadata(orders_path).num_rows <= driver_edges_max
        and not force_distributed
    ):
        tbl = pq_mod.read_table(
            orders_path, columns=["o_custkey", "o_orderkey"]
        )
        src = tbl.column("o_custkey").to_numpy().astype(np.int64)
        dst = tbl.column("o_orderkey").to_numpy().astype(np.int64) % n_nodes
        key = src * n_nodes + dst
        u, cnt = np.unique(key, return_counts=True)
        esrc, edst = (u // n_nodes), (u % n_nodes)
        cnt = cnt.astype(np.int64)
        deg = np.zeros(n_nodes, np.int64)
        np.add.at(deg, esrc, cnt)
        safe_deg = np.maximum(deg, 1)
        ranks = r0v.copy()
        for _ in range(n_iters):
            share = ranks // safe_deg
            w = cnt * share[esrc]
            ranks = basev.copy()
            inflow = np.zeros(n_nodes, np.int64)
            np.add.at(inflow, edst, w)
            ranks += 85 * inflow // 100
        return pa.table(
            {
                "custkey": pa.array(nodes.astype(np.int64), pa.int64()),
                "pagerank_e12": pa.array(ranks, pa.int64()),
            }
        )

    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        dst = batch.column("o_orderkey").to_numpy(zero_copy_only=False) % n_nodes
        key = src.astype(np.int64) * n_nodes + dst  # in-batch combine
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "src": pa.array((u // n_nodes).astype(np.int64), pa.int64()),
                "dst": pa.array((u % n_nodes).astype(np.int64), pa.int64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    edges = (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["src", "dst"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )

    if n_nodes <= broadcast_limit and not force_distributed:
        # outdegree as an O(n_nodes) driver vector (broadcast regime)
        deg_rows = edges.groupby("src").aggregate(Sum("cnt", alias_name="deg")).take_all()
        deg = np.zeros(n_nodes, dtype=np.int64)
        for r in deg_rows:
            deg[r["src"]] = r["deg"]
        ranks = r0v.copy()
        safe_deg = np.maximum(deg, 1)
        for _ in range(n_iters):
            share_ref = ray.put(ranks // safe_deg)

            def contrib(batch: pa.Table, _ref=share_ref) -> pa.Table:
                sh = ray.get(_ref)
                s = batch.column("src").to_numpy(zero_copy_only=False)
                d = batch.column("dst").to_numpy(zero_copy_only=False)
                c = batch.column("cnt").to_numpy(zero_copy_only=False)
                w = c * sh[s]
                u, inv = np.unique(d, return_inverse=True)
                agg = np.zeros(len(u), dtype=np.int64)
                np.add.at(agg, inv, w)
                return pa.table(
                    {
                        "dst": pa.array(u, pa.int64()),
                        "c": pa.array(agg, pa.int64()),
                    }
                )

            s_rows = (
                edges.map_batches(contrib, batch_format="pyarrow")
                .groupby("dst")
                .aggregate(Sum("c", alias_name="c"))
                .take_all()
            )  # O(n_nodes) rows — bounded by the broadcast_limit regime
            ranks = basev.copy()
            for r in s_rows:
                ranks[r["dst"]] += 85 * r["c"] // 100
        return pa.table(
            {
                "custkey": pa.array(nodes.astype(np.int64), pa.int64()),
                "pagerank_e12": pa.array(ranks, pa.int64()),
            }
        )

    # ---- distributed path: ranks never leave the cluster ----
    tune_join_resources()
    nparts = join_partitions(8)
    deg_ds = edges.groupby("src").aggregate(Sum("cnt", alias_name="deg"))
    edges_deg = (
        edges.repartition(nparts)
        .join(deg_ds.repartition(nparts), join_type="inner",
              num_partitions=nparts, on=("src",))
        .materialize()
    )
    nodes_ds = ray.data.from_arrow(
        pa.table({"dst": pa.array(nodes.astype(np.int64), pa.int64())})
    ).repartition(nparts)
    def _node_vec(d: np.ndarray, val: np.int64) -> np.ndarray:
        # seed membership is node arithmetic — no vector ships anywhere
        if seed_mod:
            return np.where(d % seed_mod == 0, val, np.int64(0))
        return np.full(len(d), val, np.int64)

    ranks_ds = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "src": b.column("dst"),
                "r": pa.array(
                    _node_vec(
                        b.column("dst").to_numpy(zero_copy_only=False), r0
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    for _ in range(n_iters):
        contrib = (
            edges_deg.repartition(nparts)
            .join(ranks_ds.repartition(nparts), join_type="inner",
                  num_partitions=nparts, on=("src",))
            .map_batches(
                lambda b: pa.table(
                    {
                        "dst": b.column("dst"),
                        "c": pc.multiply(
                            b.column("cnt"),
                            pc.divide(b.column("r"), b.column("deg")),
                        ),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        # union with zero-contribution rows so sink-only nodes keep base
        zeros = nodes_ds.map_batches(
            lambda b: pa.table(
                {
                    "dst": b.column("dst"),
                    "c": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        def _apply_base(b: pa.Table) -> pa.Table:
            d = b.column("dst").to_numpy(zero_copy_only=False)
            c = b.column("c").to_numpy(zero_copy_only=False)
            r = _node_vec(d, base) + 85 * c // 100
            return pa.table(
                {
                    "src": b.column("dst"),
                    "r": pa.array(r.astype(np.int64), pa.int64()),
                }
            )

        ranks_ds = (
            contrib.union(zeros)
            .groupby("dst")
            .aggregate(Sum("c", alias_name="c"))
            .map_batches(_apply_base, batch_format="pyarrow")
            .materialize()
        )
    out = ranks_ds.map_batches(
        lambda b: pa.table(
            {"custkey": b.column("src"), "pagerank_e12": b.column("r")}
        ),
        batch_format="pyarrow",
    )
    return out


# ------------------------------------------------------------- crawler ---
def q_canonicalize(sf_dir: str):
    """RFC 3986 + SURT canonicalization over URLs synthesized
    deterministically from the events table. Oracle-checked: the input
    template is fixed, so the DuckDB twin constructs the expected
    canonical url / surt / host with plain string concatenation."""
    from ..stages.canonicalize import canonicalize_dataset

    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["event_id", "user_id"]
    )

    def to_urls(batch: pa.Table) -> pa.Table:
        eid = batch.column("event_id").to_numpy(zero_copy_only=False)
        uid = batch.column("user_id").to_numpy(zero_copy_only=False)
        urls = [
            f"HTTP://Host{u}.Example:80/e/{e}/x/../y?q=%7e{e % 3}#frag"
            for e, u in zip(eid, uid)
        ]
        return pa.table({"url": pa.array(urls, pa.string())})

    out = canonicalize_dataset(ds.map_batches(to_urls, batch_format="pyarrow"))
    return out.select_columns(["url", "surt", "host"])


def _ensure_codec_oracle(sf_dir: str) -> str:
    """SQL-predictable codec corpus keyed off the ``part`` table (the
    r4 VERDICT's 'promote the codec invariants into the driver window'
    item): for every p_partkey < 96 the image's width, height and fmt
    are pure integer functions of the key — w = 32 + 16*(k % 3),
    h = 32 + 16*((k // 3) % 3), fmt = (png, jpeg, gif, qpng)[k % 4] —
    while the PIXELS are the standard fixture synthesis seeded by k.
    The DuckDB twin states the expected (image_id, w, h, fmt, ok) rows
    from ``part`` alone, so a hash-green driver row certifies that the
    real T.81 JPEG and LZW GIF decoders (plus the PNG path) produced
    the right dimensions and >= 40 dB fidelity on every row."""
    import pyarrow.parquet as pq_mod

    from ..fixtures import _pixels
    from ..functions.image import encode_image

    path = _cache_path("codec_oracle96.parquet", sf_dir)
    if not os.path.exists(path):
        keys = pq_mod.read_table(
            os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
        ).column("p_partkey").to_numpy()
        keys = np.sort(keys[keys < 96])
        fmts4 = ("png", "jpeg", "gif", "qpng")
        ids, blobs, fmts = [], [], []
        for k in keys.tolist():
            w = 32 + 16 * (k % 3)
            h = 32 + 16 * ((k // 3) % 3)
            px = _pixels(np.random.default_rng(k), h, w)
            fmt = fmts4[k % 4]
            ids.append(f"img{k}")
            blobs.append(encode_image(px, fmt))
            fmts.append(fmt)
        tbl = pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
                "fmt": pa.array(fmts, pa.string()),
            }
        )
        tmp = path + ".tmp"
        pq_mod.write_table(tbl, tmp)
        os.replace(tmp, path)
    return path


def q_codec_decode(sf_dir: str):
    """Driver-trust codec gate (SQL-oracled): decode every row of the
    part-keyed codec corpus with the REAL decoders, regenerate the
    source pixels from the key, and emit (image_id, w, h, fmt, ok)
    where w/h are the DECODED dimensions and ok is the BASELINE.json:15
    per-row invariant (bytes-exact for png, PSNR >= 40 dB for
    jpeg/gif/qpng). The DuckDB twin predicts every column from
    ``part`` arithmetic with ok = TRUE, so any wrong dimension, failed
    decode, or fidelity miss is a driver hash mismatch."""
    path = _ensure_codec_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def check(batch: pa.Table) -> pa.Table:
        from ..fixtures import _pixels
        from ..functions.image import decode_image, psnr

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        ws, hs, oks = [], [], []
        for i, f, b in zip(ids, fmts, blobs):
            k = int(i[3:])
            arr = decode_image(b, f)  # strict: raises on bad bytes
            hs.append(int(arr.shape[0]))
            ws.append(int(arr.shape[1]))
            src = _pixels(
                np.random.default_rng(k), 32 + 16 * ((k // 3) % 3), 32 + 16 * (k % 3)
            )
            if src.shape != arr.shape:
                oks.append(False)
            elif f == "png":
                oks.append(bool(np.array_equal(src, arr)))
            else:
                oks.append(bool(psnr(src, arr) >= 40.0))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "w": pa.array(ws, pa.int32()),
                "h": pa.array(hs, pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "ok": pa.array(oks, pa.bool_()),
            }
        )

    return ds.map_batches(check, batch_format="pyarrow", batch_size=16)


def q_sample(sf_dir: str, mod: int = 97):
    """Deterministic ~1% monitoring sample (K4): multiplicative hash-mod
    of the row key, fully vectorized — and expressible in ANSI SQL, so
    the driver hash-checks it against a DuckDB twin (keep rows where
    ((l_orderkey % 1000003) * 31 + l_partkey) % 97 == 0)."""
    ds = _pq(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey", "l_quantity"])

    def sample(batch: pa.Table) -> pa.Table:
        ok = batch.column("l_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        pk = batch.column("l_partkey").to_numpy(zero_copy_only=False).astype(np.int64)
        mask = ((ok % 1000003) * 31 + pk) % mod == 0
        return batch.filter(pa.array(mask))

    return ds.map_batches(sample, batch_format="pyarrow", zero_copy_batch=True)


# -------------------------------------------- exact n-gram Jaccard join --
def q_ngram_jaccard(
    sf_dir: str,
    threshold_e4: int = 6000,
    n: int = 12,
    broadcast_limit: int = 2_000_000,
    df_broadcast_limit: int = 5_000_000,
):
    """EXACT character-n-gram Jaccard similarity self-join: all
    document pairs with trigram-set Jaccard >= threshold, no false
    negatives.

    Scale layout is the AllPairs/prefix-filtering algorithm (Bayardo,
    Ma & Srikant, "Scaling Up All Pairs Similarity Search", WWW'07):
    a pair at Jaccard >= t shares at least ceil(t*|A|) grams, so it is
    guaranteed to collide on at least one gram inside each document's
    PREFIX — the first L = |A| - ceil(t*|A|) + 1 grams under any fixed
    global gram order (here: order by 64-bit gram hash). Only prefix
    grams are exploded and grouped, cutting candidate generation by
    ~(1-t) squared versus a full inverted index, with zero recall loss
    (candidates and verify both operate on 64-bit polynomial gram
    hashes; a collision — deterministic for the fixed base,
    random-model rate ~|grams|²·2⁻⁶⁴ ≈ 10⁻¹⁴ per doc — could merge two
    distinct grams and shift a count by one; accepted and documented,
    the same trade every hash-fingerprint dedup in this module makes).

    The global gram order is ASCENDING DOCUMENT FREQUENCY (AllPairs'
    key trick): prefixes then hold each document's RAREST grams, so two
    documents only become a candidate pair when they share a rare gram
    — on a template-heavy corpus (where every pair shares hundreds of
    common grams) this cuts candidates by orders of magnitude versus a
    hash-ordered prefix, with zero recall loss (the lemma holds for ANY
    fixed total order). DF is one extra combiner explode pass, then
    SIZE-ADAPTIVE on the per-block partial row count (an upper bound on
    |vocab|; ``df_broadcast_limit``):
    - bounded gram space (char n-grams): per-block DF partials merge on
      the DRIVER (the map is broadcast right after, so a distributed
      groupby first is a pure all-to-all tax — measured 11.2 of 17.8 s
      at sf0.1) and ship as two sorted numpy arrays;
    - unbounded gram space: a distributed hash join of DF onto the
      exploded (doc, gram) rows, then a groupby(doc) prefix selection
      — nothing vocab-sized touches the driver. Both paths are
      equivalence-tested (tests/test_neardup_distributed.py).

    Two further AllPairs prunes ride along: the LENGTH filter (a pair
    at Jaccard >= t needs t*max(|A|,|B|) <= min(|A|,|B|), checked from
    set sizes carried on the prefix rows) and a per-doc gram-set cache
    in the verify stage (each doc's set is built once per verify batch,
    not once per pair). The gram width n is a knob: wider grams
    are more discriminative — on template-heavy corpora (like this
    fixture, whose 500 docs share ~all character trigrams) n=12 keeps
    the candidate set ~100x below all-pairs where n=3 cannot prune at
    all; the result is exact at every n, only the similarity DEFINITION
    (n-gram resemblance) shifts.

    Stages: explode distinct grams → DF groupby → per-doc DF-sorted
    prefix rows (map_batches) → groupby(gram bucket) in-bucket pair
    generation (bucket-local dedup only — cross-bucket duplicates are
    cheaper to re-verify than to shuffle away) → verify. The verify is
    size-adaptive: when the candidate set is bounded, the candidate
    docs' SORTED GRAM-HASH ARRAYS (8 bytes/gram — corpus text never
    moves) are broadcast and each pair intersects two sorted int64
    arrays via one vectorized searchsorted; past the bound it falls
    back to the distributed text hash-join (_attach_pair_texts) with a
    per-doc gram-array cache. Keep iff |A∩B|*10^4 >= t_e4*|A∪B| —
    integer floor division on both sides makes the DuckDB twin
    hash-exact.
    Returns (doc_a, doc_b, jac_e4), doc_a < doc_b, sorted."""
    from ray.data.aggregate import Sum

    # a single parquet file arrives as ~1 block; the gram passes are
    # CPU-bound per doc, so split the read across the cluster
    ds = ray.data.read_parquet(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "text"],
        override_num_blocks=default_buckets(),
    )
    pw = _poly_powers(n)
    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "jac_e4": pa.array([], pa.int64()),
        }
    )

    def _gram_hashes(t: str) -> np.ndarray:
        # single-doc wrapper over the vectorized batch kernel (used by
        # the per-doc caches in the verify stages). Hashes come back in
        # uint64 order — re-sort the INT64 view, because the verify's
        # searchsorted intersection compares as int64
        _d, hh = _batch_distinct_grams([t], n, pw)
        return np.sort(hh.view(np.int64))

    def explode_grams(batch: pa.Table) -> pa.Table:
        # partial DF inside the batch (combiner): one row per distinct
        # gram per batch, so the groupby moves ~|vocab| rows per block.
        # _batch_distinct_grams is already per-doc-distinct, so the
        # unique-counts here ARE document frequencies.
        texts = batch.column("text").to_pylist()
        _d, hh = _batch_distinct_grams(texts, n, pw)
        uniq, counts = np.unique(hh, return_counts=True)
        return pa.table(
            {"gram": pa.array(uniq.view(np.int64), pa.int64()),
             "df": pa.array(counts.astype(np.int64), pa.int64())}
        )

    _empty_pref = pa.table(
        {"gram": pa.array([], pa.int64()),
         "doc_id": pa.array([], pa.int64()),
         "sz": pa.array([], pa.int64())}
    )
    df_parts = ds.map_batches(explode_grams, batch_format="pyarrow").materialize()
    n_part_rows = df_parts.count()  # >= |vocab|; block-partial DF rows

    if n_part_rows <= df_broadcast_limit:
        # bounded gram space: the DF map ends up broadcast to every
        # task anyway, so a distributed groupby before the driver pull
        # is a pure all-to-all tax — MEASURED 11.2 s of a 17.8 s total
        # at sf0.1/32cpu for a 131k vocab. Merge the per-block partials
        # on the driver instead (vocab-bounded rows, exact int sums)
        # and broadcast two sorted numpy arrays — a searchsorted lookup
        # is vectorized where a dict probe is a Python loop per gram.
        from ..runtime import arrow_blocks as _ab

        _parts = _ab(df_parts)
        if not _parts:  # no doc long enough to yield a single n-gram
            return empty
        part_tbl = pa.concat_tables(_parts, promote_options="none")
        g_all = part_tbl.column("gram").to_numpy(zero_copy_only=False)
        d_all = part_tbl.column("df").to_numpy(zero_copy_only=False)
        dfk_s, inv = np.unique(g_all, return_inverse=True)
        dfv_s = np.zeros(len(dfk_s), np.int64)
        np.add.at(dfv_s, inv, d_all)
        df_ref = ray.put((dfk_s, dfv_s))

        def prefix_rows(batch: pa.Table) -> pa.Table:
            dfk_s, dfv_s = ray.get(df_ref)
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            texts = batch.column("text").to_pylist()
            d, hh = _batch_distinct_grams(texts, n, pw)
            if not len(d):
                return _empty_pref
            h_all = hh.view(np.int64)
            dfs_all = dfv_s[np.searchsorted(dfk_s, h_all)]
            # per-doc boundaries (d is sorted by construction)
            bounds = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
            ends = np.r_[bounds[1:], len(d)]
            out_g, out_d, out_s = [], [], []
            for s0, e0 in zip(bounds, ends):
                h = h_all[s0:e0]
                dfs = dfs_all[s0:e0]
                m = e0 - s0
                order = np.lexsort((h, dfs))  # rare grams first, hash tiebreak
                L = m - (threshold_e4 * m + 9999) // 10000 + 1
                did = int(ids[d[s0]])
                out_g.append(h[order[:L]])
                out_d.append(np.full(L, did, dtype=np.int64))
                out_s.append(np.full(L, m, dtype=np.int64))
            return pa.table(
                {
                    "gram": pa.array(np.concatenate(out_g), pa.int64()),
                    "doc_id": pa.array(np.concatenate(out_d), pa.int64()),
                    "sz": pa.array(np.concatenate(out_s), pa.int64()),
                }
            )

        pref = ds.map_batches(prefix_rows, batch_format="pyarrow")
    else:
        # unbounded gram space: hash-join DF onto the exploded
        # (doc, gram) rows, then select each doc's DF-ascending prefix
        # in a groupby(doc_id) — the driver never sees the vocab
        def explode_doc_grams(batch: pa.Table) -> pa.Table:
            ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
            texts = batch.column("text").to_pylist()
            d, hh = _batch_distinct_grams(texts, n, pw)
            if not len(d):
                return _empty_pref
            # per-doc sizes scattered back onto the gram rows
            sizes = np.bincount(d, minlength=len(texts)).astype(np.int64)
            return pa.table(
                {
                    "gram": pa.array(hh.view(np.int64), pa.int64()),
                    "doc_id": pa.array(ids[d].astype(np.int64), pa.int64()),
                    "sz": pa.array(sizes[d], pa.int64()),
                }
            )

        tune_join_resources()
        df_ds = (
            df_parts.groupby("gram")
            .aggregate(Sum("df", alias_name="df"))
            .materialize()
        )
        n_vocab = df_ds.count()
        dg = ds.map_batches(explode_doc_grams, batch_format="pyarrow").materialize()
        n_dg = dg.count()
        if n_dg == 0:
            return empty
        dg = dg.repartition(max(1, min(join_partitions(), n_dg // 4096)))
        df_rp = df_ds.repartition(max(1, min(join_partitions(), n_vocab // 4096)))
        joined = dg.join(
            df_rp, join_type="inner", num_partitions=join_partitions(),
            on=("gram",),
        )

        def doc_prefix(g: pd.DataFrame) -> pd.DataFrame:
            # grams are distinct per doc, so m == len(g) == sz
            order = np.lexsort((g["gram"].to_numpy(), g["df"].to_numpy()))
            m = int(g["sz"].iloc[0])
            L = m - (threshold_e4 * m + 9999) // 10000 + 1
            sel = order[:L]
            return pd.DataFrame(
                {
                    "gram": g["gram"].to_numpy()[sel],
                    "doc_id": g["doc_id"].to_numpy()[sel],
                    "sz": g["sz"].to_numpy()[sel],
                }
            )

        pref = joined.groupby("doc_id").map_groups(
            doc_prefix, batch_format="pandas"
        )

    # Hoisted to the driver so every map task closes over the SAME
    # modulus: default_buckets() reads live cluster CPU state, and a
    # mid-run cluster resize would otherwise give different tasks
    # different moduli, splitting a shared gram across __bkt groups and
    # silently dropping candidate pairs (recall loss in an EXACT op).
    n_bkt = np.uint64(default_buckets(per_cpu=8, hi=1024))

    def add_bucket(batch: pa.Table) -> pa.Table:
        # coarse bucket over the gram id: shuffle on ~B buckets, not on
        # millions of singleton gram groups
        b = (
            batch.column("gram").to_numpy(zero_copy_only=False).astype(np.uint64)
            % n_bkt
        ).astype(np.int32)
        return batch.append_column("__bkt", pa.array(b, pa.int32()))

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        # all within-gram pairs through the shared degree-class-
        # vectorized kernel (_group_pairs), then ONE vectorized
        # AllPairs length filter: J >= t forces
        # t * max(|A|,|B|) <= min(|A|,|B|). Zero Python per pair.
        g = g.drop_duplicates(["gram", "doc_id"]).sort_values(
            ["gram", "doc_id"], kind="mergesort"
        )
        (da, db), (sa, sb) = _group_pairs(
            g["gram"].to_numpy(),
            [g["doc_id"].to_numpy(), g["sz"].to_numpy()],
        )
        if not len(da):
            return pd.DataFrame(
                {"doc_a": pd.Series(dtype=np.int64), "doc_b": pd.Series(dtype=np.int64)}
            )
        m = np.minimum(sa, sb) * 10000 >= threshold_e4 * np.maximum(sa, sb)
        return pd.DataFrame({"doc_a": da[m], "doc_b": db[m]})

    cand = (
        pref.map_batches(add_bucket, batch_format="pyarrow")
        .groupby("__bkt")
        .map_groups(
            lambda g: bucket_pairs(g).drop_duplicates(["doc_a", "doc_b"]),
            batch_format="pandas",
        )
    ).materialize()
    # cross-bucket duplicate candidates are NOT shuffled away here:
    # they die in the verify-stage driver dedup (bounded branch) or the
    # final drop_duplicates — a driver pair walk was measured NO faster
    # than this bucket plan once bucket_pairs went vectorized (the pair
    # expansion itself is the cost, and the shuffle spreads it)
    n_cand = cand.count()
    if n_cand == 0:
        return empty

    def _intersect_count(A: np.ndarray, B: np.ndarray) -> int:
        # |A ∩ B| for two SORTED int64 arrays: one vectorized
        # searchsorted — O(|A| log |B|), no Python-level set ops
        if len(A) > len(B):
            A, B = B, A
        pos = np.searchsorted(B, A)
        mask = pos < len(B)
        return int((B[pos[mask]] == A[mask]).sum())

    def _emit_pairs(da, db, arr_of) -> pa.Table:
        out_a, out_b, out_j = [], [], []
        for a, b in zip(da, db):
            A = arr_of(a)
            B = arr_of(b)
            if A is None or B is None or not len(A) or not len(B):
                continue
            ni = _intersect_count(A, B)
            un = len(A) + len(B) - ni
            if ni * 10000 >= threshold_e4 * un:
                out_a.append(a)
                out_b.append(b)
                out_j.append(ni * 10000 // un)
        return pa.table(
            {
                "doc_a": pa.array(out_a, pa.int64()),
                "doc_b": pa.array(out_b, pa.int64()),
                "jac_e4": pa.array(out_j, pa.int64()),
            }
        )

    if n_cand <= broadcast_limit:
        # gram-ARRAY broadcast verify: candidate docs' sorted gram
        # hashes (8 bytes/gram) are gathered in one streaming pass and
        # broadcast; pairs never carry text at all. Cross-bucket
        # duplicate candidates (a pair sharing k prefix grams arrives k
        # times) are dropped HERE in one driver drop_duplicates — the
        # pull is already O(candidates), and each duplicate would cost
        # a full searchsorted verify downstream (measured ~3x dup
        # factor on the template-heavy fixture).
        cd = cand.to_pandas().drop_duplicates(["doc_a", "doc_b"])
        ids = pa.array(sorted(set(cd["doc_a"]) | set(cd["doc_b"])), pa.int64())
        ids_ref = ray.put(ids)

        def doc_arrays(batch: pa.Table) -> pa.Table:
            b = batch.filter(
                pc.is_in(batch.column("doc_id"), value_set=ray.get(ids_ref))
            )
            texts = b.column("text").to_pylist()
            d, hh = _batch_distinct_grams(texts, n, pw)
            h_all = hh.view(np.int64)  # per-doc slices already sorted asc
            bounds = np.flatnonzero(np.r_[True, d[1:] != d[:-1]]) if len(d) else np.empty(0, np.int64)
            ends = np.r_[bounds[1:], len(d)] if len(d) else np.empty(0, np.int64)
            arrs = [np.empty(0, np.int64)] * len(texts)
            for s0, e0 in zip(bounds, ends):
                # uint64-order slice -> int64-order for the verify's
                # searchsorted intersection
                arrs[d[s0]] = np.sort(h_all[s0:e0])
            return pa.table(
                {
                    "doc_id": b.column("doc_id"),
                    "grams": pa.array([a.tolist() for a in arrs], pa.list_(pa.int64())),
                }
            )

        gdf = ds.map_batches(doc_arrays, batch_format="pyarrow").to_pandas()
        gmap_ref = ray.put(
            {int(i): np.asarray(g, dtype=np.int64) for i, g in
             zip(gdf["doc_id"], gdf["grams"])}
        )

        def verify(batch: pa.Table) -> pa.Table:
            gm = ray.get(gmap_ref)
            return _emit_pairs(
                batch.column("doc_a").to_pylist(),
                batch.column("doc_b").to_pylist(),
                gm.get,
            )

        # verify the DEDUPED pair set, re-blocked so the searchsorted
        # work spreads across the cluster
        cand_dd = ray.data.from_arrow(
            pa.Table.from_pandas(cd[["doc_a", "doc_b"]], preserve_index=False)
        ).repartition(max(1, min(default_buckets(), len(cd) // 4096)))
        verified = cand_dd.map_batches(verify, batch_format="pyarrow")
    else:
        # corpus-scale fallback: distributed text attach, per-doc
        # gram-array cache inside the verify batch
        joined = _attach_pair_texts(cand, ds, n_cand)

        def verify(batch: pa.Table) -> pa.Table:
            da = batch.column("doc_a").to_pylist()
            db = batch.column("doc_b").to_pylist()
            ta = batch.column("__text_a").to_pylist()
            tb = batch.column("__text_b").to_pylist()
            texts = {}
            for i, a in enumerate(da):
                texts.setdefault(a, ta[i])
            for i, b in enumerate(db):
                texts.setdefault(b, tb[i])
            cache: dict[int, np.ndarray] = {}

            def arr_of(did: int):
                a = cache.get(did)
                if a is None:
                    a = np.sort(_gram_hashes(texts.get(did) or ""))
                    cache[did] = a
                return a

            return _emit_pairs(da, db, arr_of)

        verified = joined.map_batches(verify, batch_format="pyarrow")

    blocks = arrow_blocks(verified)
    if not blocks:
        return empty
    merged = (
        pa.concat_tables(blocks, promote_options="none")
        .to_pandas()
        .drop_duplicates(["doc_a", "doc_b"])
        .sort_values(["doc_a", "doc_b"], kind="mergesort")
    )
    return pa.table(
        {
            "doc_a": pa.array(merged["doc_a"], pa.int64()),
            "doc_b": pa.array(merged["doc_b"], pa.int64()),
            "jac_e4": pa.array(merged["jac_e4"], pa.int64()),
        }
    )


# ------------------------------------------------------ frequent items --
def q_frequent_items(sf_dir: str, phi_e4: int = 75, k: int = 134):
    """EXACT φ-frequent-items (keys with count >= φ·N) in two passes —
    the Misra-Gries / SpaceSaving layout (Misra & Gries '82; merged
    summaries per Agarwal et al., "Mergeability of summaries", PODS'12):

    Pass 1 (candidate generation, one streaming map + tiny union): each
    block emits the keys whose IN-BLOCK count exceeds n_block/k, plus
    its row count. A key with global count > N/k must exceed n_b/k in
    at least one block (else its total would be ≤ Σ n_b/k = N/k), so
    the union of block summaries is a GUARANTEED superset of every
    global φ-heavy key whenever φ >= 1/k — the per-block summary is
    ≤ k entries regardless of block cardinality, exactly a merged MG
    sketch's state, but fully vectorized (value_counts) instead of a
    per-row counter loop.

    Pass 2 (exact verify): broadcast the candidate set, one combiner
    count pass restricted to candidates, keep count*10^4 >= φ_e4·N —
    integer math, so the DuckDB HAVING twin hash-matches exactly.

    Scale shape: pass-1 output is ≤ k·|blocks| rows; pass 2 moves only
    candidate partials. Nothing key-cardinality-sized shuffles."""
    from ray.data.aggregate import Sum

    assert phi_e4 * k >= 10_000, "superset guarantee needs phi >= 1/k"
    ds = _pq(sf_dir, "events", columns=["user_id"])

    def block_summary(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False)
        keys, counts = np.unique(u, return_counts=True)
        # >= (not >) so the superset guarantee holds at the phi == 1/k
        # boundary: a key with global count exactly N/k must reach
        # n_b/k in some block, which this inclusive filter admits.
        keep = counts * k >= len(u)
        return pa.table({"user_id": pa.array(keys[keep], pa.int64())})

    summaries = ds.map_batches(block_summary, batch_format="pyarrow").to_pandas()
    n_total = ds.count()
    cand = pa.array(sorted(set(summaries["user_id"].astype(int))), pa.int64())
    if len(cand) == 0:
        return pa.table(
            {"user_id": pa.array([], pa.int64()), "cnt": pa.array([], pa.int64())}
        )
    cand_ref = ray.put(cand)

    def count_cands(batch: pa.Table) -> pa.Table:
        b = batch.filter(
            pc.is_in(batch.column("user_id"), value_set=ray.get(cand_ref))
        )
        keys, counts = np.unique(
            b.column("user_id").to_numpy(zero_copy_only=False), return_counts=True
        )
        return pa.table(
            {
                "user_id": pa.array(keys, pa.int64()),
                "cnt": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(count_cands, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("cnt", alias_name="cnt"))
        .to_pandas()  # ≤ |candidates| rows
    )
    agg = agg[agg["cnt"] * 10_000 >= phi_e4 * n_total].sort_values("user_id")
    return pa.table(
        {
            "user_id": pa.array(agg["user_id"].astype("int64"), pa.int64()),
            "cnt": pa.array(agg["cnt"].astype("int64"), pa.int64()),
        }
    )


# -------------------------------------------------- curation composite --
def q_curate(sf_dir: str, min_chars: int = 100, min_tokens: int = 20):
    """End-to-end curation composite — the everyday training-data
    pipeline as ONE chained Dataset: quality gate (length + token
    floor, vectorized per batch) → exact text dedup (first doc per
    distinct surviving text, one bucketed shuffle) → per-doc token
    count carried through. Demonstrates operator composition: each
    stage is the same streaming building block the standalone queries
    use, fused by Ray's pipelining with no materialization between
    stages. Fully SQL-expressible, so the whole CHAIN is hash-checked
    against one DuckDB twin."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text", "n_chars"])

    def gate(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_tokens"] = token_count_ws(df["text"].tolist())
        df = df[(df["n_chars"] >= min_chars) & (df["n_tokens"] >= min_tokens)]
        return pa.table(
            {
                "doc_id": pa.array(df["doc_id"], pa.int64()),
                "text": pa.array(df["text"], pa.string()),
                "n_tokens": pa.array(df["n_tokens"].astype("int64"), pa.int64()),
            }
        )

    kept = dedup_first(
        ds.map_batches(gate, batch_format="pyarrow"),
        key="text", tie_cols=("doc_id",), n_buckets=default_buckets(),
    )
    return kept.map_batches(
        lambda b: b.select(["doc_id", "n_tokens"]), batch_format="pyarrow"
    )


# ----------------------------------------------------- vocab top-k ------
def q_vocab_topk(sf_dir: str, k: int = 10):
    """Per-language top-k vocabulary (token -> frequency) — the
    tokenizer-/vocab-building aggregation every multilingual training
    pipeline runs before fitting BPE merges.

    Combiner layout: each batch lowercases + whitespace-tokenizes in
    polars (``extract_all(r'\\S+')`` — zero Python per row) and counts
    (lang, token) locally, so the two-key groupby shuffle moves
    per-batch vocabulary partials (bounded by the batch's distinct
    vocab), never one row per token occurrence. A per-lang
    ``map_groups`` then takes the top k with the deterministic
    (count desc, token asc) tie-break — identical to the SQL twin's
    ``row_number() OVER (ORDER BY n DESC, token)``. Corpus text is
    printable ASCII, so polars/DuckDB lower() and binary string
    ordering agree exactly."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["lang", "text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        c = (
            df.select(
                lang=pl.col("lang"),
                token=pl.col("text").str.to_lowercase().str.extract_all(r"\S+"),
            )
            .explode("token")
            .drop_nulls("token")
            .group_by(["lang", "token"])
            .len()
        )
        return pa.table(
            {
                "lang": c["lang"].to_arrow(),
                "token": c["token"].to_arrow(),
                "n": c["len"].cast(pl.Int64).to_arrow(),
            }
        )

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "token"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n", "token"], ascending=[False, True], kind="mergesort")
        return g.head(k)

    return counts.groupby("lang").map_groups(topk, batch_format="pandas")


# -------------------------------------------------- label centroids -----
def q_centroids(sf_dir: str, dims: int = 64):
    """Per-label embedding centroids (class prototypes — the vector
    aggregation every k-means / prototype-classifier / dataset-balance
    step runs). Output long-form (label, dim, sum_e6, n): exact integer
    sums of the e6-scaled components plus counts — the mean is
    derivable, the sums are hashable (no float summation order in the
    result).

    Combiner layout: each batch flattens the list column ZERO-COPY
    (ListArray values -> (n, dims) numpy view), partial-sums per label
    with one np.add.at scatter, and emits <= |labels| x dims partial
    rows; the two-key groupby moves those partials, never embeddings.
    Components are upcast to float64 BEFORE the e6 scaling so the
    engine matches the DuckDB twin's DOUBLE arithmetic bit-exactly
    (float32 multiply would round differently)."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "embeddings", columns=["label", "embedding"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        lab = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        col = batch.column("embedding").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        emb = flat.reshape(len(lab), dims).astype(np.float64)
        v = np.round(emb * 1e6).astype(np.int64)
        uniq, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(uniq), dims), dtype=np.int64)
        np.add.at(sums, inv, v)
        counts = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        lab_col = np.repeat(uniq, dims)
        dim_col = np.tile(np.arange(dims, dtype=np.int64), len(uniq))
        return pa.table(
            {
                "label": pa.array(lab_col, pa.int64()),
                "dim": pa.array(dim_col, pa.int64()),
                "sum_e6": pa.array(sums.reshape(-1), pa.int64()),
                "n": pa.array(np.repeat(counts, dims), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["label", "dim"])
        .aggregate(Sum("sum_e6", alias_name="sum_e6"), Sum("n", alias_name="n"))
    )


def q_chunk(sf_dir: str, size: int = 200, stride: int = 150):
    """Fixed-size overlapping text chunking (the RAG / context-window
    prep stage: every doc becomes ceil(len/stride) chunks of up to
    ``size`` chars starting at offsets 0, stride, 2*stride, ...).

    Pure flat-map shape: no shuffle, no state, output ~len/stride x
    input rows. Vectorized end-to-end in polars — int_ranges builds the
    per-doc chunk index list, one explode, one str.slice with a per-row
    offset expression; zero Python per-row work. Corpus is
    printable-ASCII (FIXTURES.md) so char offsets == byte offsets and
    the DuckDB substring twin is exact."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def chunks(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = (
            df.with_columns(
                __n=(
                    (pl.col("text").str.len_bytes().cast(pl.Int64) + (stride - 1))
                    // stride
                ),
            )
            .with_columns(chunk_id=pl.int_ranges(0, pl.col("__n")))
            .explode("chunk_id")
            .filter(pl.col("chunk_id").is_not_null())
            .with_columns(
                chunk=pl.col("text").str.slice(pl.col("chunk_id") * stride, size)
            )
            .select("doc_id", pl.col("chunk_id").cast(pl.Int64), "chunk")
        )
        return out.to_arrow()

    return ds.map_batches(chunks, batch_format="pyarrow", zero_copy_batch=True)


def q_decontaminate(sf_dir: str, n: int = 16, eval_mod: int = 97):
    """Benchmark decontamination: flag training documents sharing any
    character ``n``-gram with the eval set (docs where
    doc_id % eval_mod == 0 stand in for a benchmark). The standard
    pre-training hygiene pass (e.g. GPT-3 appendix C / PaLM-style
    13-gram overlap, done here at n=16 chars).

    Scale layout: the eval side of this op is a BENCHMARK — fixed-size
    by definition (thousands of questions), never corpus-sized — so its
    distinct-gram set is built distributed (explode -> groupby) and then
    broadcast once via ray.put; the 100-TB train side streams through
    one map_batches pass per batch. No shuffle touches the train
    corpus.

    The train-side gram pass is fully vectorized: per batch, ONE
    codepoint sliding-window polynomial-hash sweep
    (`_batch_distinct_grams` — the same kernel the containment/span
    family uses; zero Python per gram) and one np.isin against the
    broadcast uint64 eval-gram hashes prefilters candidate docs; only
    docs with >= 1 hash hit (contamination is sparse by construction)
    fall back to exact STRING extraction + pc.is_in, so the emitted
    (n_grams, hit_grams) stay string-exact with no collision caveat —
    hash collisions only cost a wasted verify, never a wrong row — and
    the DuckDB twin hash-matches.

    Returns (doc_id, n_grams, hit_grams) for contaminated train docs
    (hit_grams >= 1), where n_grams is the doc's distinct-gram count —
    the pair gives the overlap fraction downstream filters threshold
    on."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def eval_grams(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        grams: set[str] = set()
        for i, t in zip(ids, texts):
            if int(i) % eval_mod == 0 and t and len(t) >= n:
                grams.update(t[j : j + n] for j in range(len(t) - n + 1))
        return pa.table({"g": pa.array(sorted(grams), pa.string())})

    # distinct across batches (combiner already dedups within a batch):
    # the distinct set is benchmark-bounded and pulled to the driver
    # either way, so a distributed groupby first was a pure string
    # all-to-all tax — one driver set-union replaces it
    ev_strings = sorted(
        set(
            ds.map_batches(
                eval_grams, batch_format="pyarrow", zero_copy_batch=True
            )
            .to_pandas()["g"]
        )
    )  # driver contact = benchmark gram set, fixed-size by definition
    ev_set = pa.array(ev_strings, pa.string())
    pw = _poly_powers(n)
    # each eval gram is an n-char text with exactly one window — hashing
    # them through the same kernel guarantees both sides agree bit-exact
    _d, ev_hh = _batch_distinct_grams(ev_strings, n, pw)
    ev_ref = ray.put((ev_set, np.unique(ev_hh)))

    def hits(batch: pa.Table) -> pa.Table:
        ev_arr, ev_hashes = ray.get(ev_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        kept_ids, kept_texts = [], []
        for i, t in zip(ids, texts):
            if int(i) % eval_mod == 0 or not t or len(t) < n:
                continue
            kept_ids.append(int(i))
            kept_texts.append(t)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_grams": pa.array([], pa.int64()),
                "hit_grams": pa.array([], pa.int64()),
            }
        )
        if not kept_texts:
            return empty
        # vectorized prefilter: one hash sweep + one np.isin C kernel
        d, hh = _batch_distinct_grams(kept_texts, n, pw)
        if not len(d):
            return empty
        cand_docs = np.unique(d[np.isin(hh, ev_hashes)])
        if not len(cand_docs):
            return empty
        # exact string verify, candidate docs only (sparse): per-doc
        # distinct gram strings -> one pc.is_in against the eval set
        doc_ids, n_grams, hit_grams = [], [], []
        for di in cand_docs:
            t = kept_texts[int(di)]
            grams = list({t[j : j + n] for j in range(len(t) - n + 1)})
            nh = int(
                pc.sum(
                    pc.cast(
                        pc.is_in(pa.array(grams, pa.string()), value_set=ev_arr),
                        pa.int64(),
                    )
                ).as_py()
                or 0
            )
            if nh > 0:
                doc_ids.append(kept_ids[int(di)])
                n_grams.append(len(grams))
                hit_grams.append(nh)
        if not doc_ids:
            return empty
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_grams": pa.array(n_grams, pa.int64()),
                "hit_grams": pa.array(hit_grams, pa.int64()),
            }
        )

    return ds.map_batches(hits, batch_format="pyarrow", zero_copy_batch=True)


def q_pack_sequences(sf_dir: str, budget: int = 512):
    """Sequence packing for training (token-budget bin assignment):
    docs in doc_id order are laid head-to-tail on the global token
    stream; a doc belongs to the pack containing its START offset,
    pack_id = exclusive-prefix-sum(n_tokens) // budget. This is naive
    contiguous packing (docs may straddle pack boundaries and get
    truncated/continued downstream) — the deterministic, shuffle-light
    variant used when exact first-fit is not worth a sequential pass.

    Distributed layout = the row-number core: ONE range sort on
    doc_id (the only all-to-all; payload is (doc_id, n_tokens) ints),
    a metadata round of per-block token SUMS (two ints per block to the
    driver, never rows), block offsets by cumsum, then an
    embarrassingly-parallel attach pass doing a vectorized in-block
    cumsum + floor division. SUM OVER (ORDER BY) in the DuckDB twin."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def tc(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": pa.array(token_count_ws(texts), pa.int64()),
            }
        )

    from ..runtime import sorted_block_offsets

    counted = ds.map_batches(tc, batch_format="pyarrow", zero_copy_batch=True)
    sorted_ds = counted.sort("doc_id").materialize()
    refs, offsets = sorted_block_offsets(
        sorted_ds, lambda b: int(pc.sum(b.column("n_tokens")).as_py() or 0)
    )

    @ray.remote
    def _attach(block: pa.Table, off: int) -> pa.Table:
        nt = block.column("n_tokens").to_numpy(zero_copy_only=False)
        # exclusive prefix sum within the block + global block offset
        excl = off + np.cumsum(nt) - nt
        return pa.table(
            {
                "doc_id": block.column("doc_id"),
                "n_tokens": block.column("n_tokens"),
                "pack_id": pa.array(excl // budget, pa.int64()),
            }
        )

    out_refs = [_attach.remote(r, int(o)) for r, o in zip(refs, offsets)]
    return ray.data.from_arrow_refs(out_refs)


# language sampling weights (percent kept) and oversample factors for
# q_data_mix — module-level constants so the oracle twin can embed the
# same table.
MIX_WEIGHTS = {"en": 60, "de": 80, "es": 80, "fr": 80, "zh": 40}
MIX_REPEATS = {"en": 1, "de": 2, "es": 1, "fr": 3, "zh": 1}


def q_data_mix(sf_dir: str):
    """Weighted dataset mixing with oversampling (the data-mixture step
    of a pre-training run): per-language KEEP rates (downsample the
    over-represented languages) plus integer REPEAT factors (oversample
    the low-resource ones). Output one row per (doc, epoch-copy).

    The keep gate is a deterministic Knuth multiplicative hash on
    doc_id — (doc_id * 2654435761) mod 2^32 mod 100 < weight — chosen
    over library hashes because both numpy and ANSI SQL compute it
    exactly (the sampling decision is reproducible everywhere, the
    property data-mixture configs need for resumable runs). Pure
    map_batches: gate + np.repeat per batch, no shuffle, no driver
    contact; weight maps are O(languages) closures."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "lang"], split=True)

    def mix(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        langs = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        h = (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
        gate = (h % np.uint64(100)).astype(np.int64)
        w = np.array([MIX_WEIGHTS.get(l, 0) for l in langs], np.int64)
        keep = gate < w
        ids, langs = ids[keep], langs[keep]
        reps = np.array([MIX_REPEATS.get(l, 1) for l in langs], np.int64)
        out_ids = np.repeat(ids, reps)
        out_langs = np.repeat(langs, reps)
        # copy index 0..reps-1 per kept doc, vectorized
        cum = np.cumsum(reps)
        copy = np.arange(cum[-1] if len(cum) else 0, dtype=np.int64) - np.repeat(
            cum - reps, reps
        )
        return pa.table(
            {
                "doc_id": pa.array(out_ids, pa.int64()),
                "lang": pa.array(out_langs.tolist(), pa.string()),
                "copy": pa.array(copy, pa.int64()),
            }
        )

    return ds.map_batches(mix, batch_format="pyarrow", zero_copy_batch=True)


def q_quantize_embeddings(sf_dir: str, dims: int = 64, levels: int = 255):
    """Per-dimension affine int8 quantization of the embedding column
    (the embedding-compression step before an ANN index ships to serving
    — 4x smaller vectors, table-driven dequant). Entirely integer
    arithmetic so the DuckDB twin hash-matches: components scale to e6
    ints, per-dim (min, span) come from pass 1, and
    code = (v - min) * levels // span in [0, levels].

    Pass 1 is a per-batch per-dim (min, max) combiner -> a ``dims``-key
    groupby (the all-to-all moves <= dims x blocks tiny rows); pass 2
    re-maps the scan with the 2 x dims constants closed over — same
    two-pass zero-data-shuffle layout as a min-max scaler, vectorized over
    the ListArray's flattened (n, dims) numpy view."""
    from ray.data.aggregate import Max, Min

    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"], split=True)

    def _mat(batch: pa.Table) -> np.ndarray:
        col = batch.column("embedding").combine_chunks()
        flat = col.flatten().to_numpy(zero_copy_only=False)
        emb = flat.reshape(-1, dims).astype(np.float64)
        return np.round(emb * 1e6).astype(np.int64)

    def mm(batch: pa.Table) -> pa.Table:
        v = _mat(batch)
        if v.shape[0] == 0:
            return pa.table(
                {"dim": pa.array([], pa.int64()),
                 "mn": pa.array([], pa.int64()),
                 "mx": pa.array([], pa.int64())}
            )
        return pa.table(
            {
                "dim": pa.array(np.arange(dims, dtype=np.int64), pa.int64()),
                "mn": pa.array(v.min(axis=0), pa.int64()),
                "mx": pa.array(v.max(axis=0), pa.int64()),
            }
        )

    stats = (
        ds.map_batches(mm, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Min("mn", alias_name="mn"), Max("mx", alias_name="mx"))
        .to_pandas()
        .sort_values("dim")
    )  # driver holds 2 x dims ints
    mn = stats["mn"].to_numpy()
    span = np.maximum(stats["mx"].to_numpy() - mn, 1)

    def quant(batch: pa.Table) -> pa.Table:
        v = _mat(batch)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False).astype(np.int64)
        code = (v - mn) * levels // span
        n = v.shape[0]
        return pa.table(
            {
                "vec_id": pa.array(np.repeat(ids, dims), pa.int64()),
                "dim": pa.array(np.tile(np.arange(dims, dtype=np.int64), n), pa.int64()),
                "code": pa.array(code.reshape(-1), pa.int64()),
            }
        )

    return ds.map_batches(quant, batch_format="pyarrow", zero_copy_batch=True)


def _link_edges(sf_dir: str, n_nodes: int) -> "ray.data.Dataset":
    """DISTINCT undirected (u < v) edges of the synthetic link graph
    (node = c_custkey, edge o_custkey <-> o_orderkey mod n_nodes,
    self-loops dropped) — the ONE graph definition shared by
    q_triangle_count and q_bfs_distance, so the "same link graph"
    queries and their oracles cannot silently diverge. q_pagerank keeps
    parallel edges and direction, so it builds its own edge list.
    Per-batch combiner dedup, then one distinct groupby; materialized
    because both consumers scan it repeatedly."""
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)

    def to_edges(batch: pa.Table, _n=n_nodes) -> pa.Table:
        return _link_edge_batch(batch, _n)

    return (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["u", "v"])
        .count()
        .select_columns(["u", "v"])
        .materialize()
    )


def _link_edge_batch(batch: pa.Table, n_nodes: int) -> pa.Table:
    """Per-block kernel of the shared link-graph edge definition (see
    _link_edges) — factored out so the size-adaptive driver fork and
    the distributed groupby fork cannot diverge on edge semantics."""
    a = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
    b = (
        batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        % n_nodes
    )
    u, v = np.minimum(a, b), np.maximum(a, b)
    keep = u != v  # drop self-loops
    pairs = np.unique(np.stack([u[keep], v[keep]], axis=1), axis=0)
    return pa.table(
        {"u": pa.array(pairs[:, 0], pa.int64()),
         "v": pa.array(pairs[:, 1], pa.int64())}
    )


def _link_edges_driver(sf_dir: str, n_nodes: int):
    """Driver-combined DISTINCT link-graph edges: one distributed
    map_batches builds per-block deduped (u, v) partials (<= one row
    per orders row — callers gate on the orders parquet row count), the
    driver merges them with one np.unique on packed int64 keys. Returns
    sorted packed keys k = u*n_nodes + v (u < v)."""
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)
    parts = orders.map_batches(
        lambda b, _n=n_nodes: _link_edge_batch(b, _n),
        batch_format="pyarrow",
        zero_copy_batch=True,
    ).to_pandas()
    return np.unique(
        parts["u"].to_numpy() * np.int64(n_nodes) + parts["v"].to_numpy()
    )


def q_triangle_count(
    sf_dir: str,
    broadcast_limit: int = 5_000_000,
    driver_edges_max: int = 4_000_000,
    wedge_driver_max: int = 30_000_000,
    force_distributed: bool = False,
):
    """Distributed triangle counting over the q_pagerank link graph
    (node = c_custkey, distinct undirected edges from
    o_custkey <-> o_orderkey mod |nodes|) — the third graph-analytics
    member after PageRank and connected components; triangle density is
    the standard web-graph spam/community signal.

    Layout is the node-iterator++ / degree-ordering algorithm (Schank &
    Wagner 2005; the MapReduce form in Suri & Vassilvitskii, WWW'11):
    orient every edge from the (degree, node)-lower endpoint to the
    higher; each triangle then has exactly ONE vertex with two outgoing
    oriented edges, so emitting out-neighbor pairs per vertex counts
    every triangle once and the quadratic wedge blowup concentrates on
    the LOWEST-degree centers (max out-degree is O(sqrt(|E|))
    regardless of skew — the reason this survives power-law web graphs
    where naive neighbor-pairing dies on hub nodes).

    Stages: distinct-edge groupby -> degree combiner groupby -> wedge
    generation inside map_groups (vectorized np pair expansion per
    center) -> hash-bucket shuffle of wedges against oriented edges ->
    per-bucket sorted-array membership (searchsorted). Driver sees one
    int64.

    Size-adaptive triple fork (q_opic's pattern, gated on EXACT parquet
    row counts — no scan):
    - |orders| <= driver_edges_max AND the exact oriented wedge count
      (computed from driver-resident out-degrees, Σ k(k-1)/2) <=
      wedge_driver_max: per-block edge partials merge in one driver
      np.unique pass and the whole count — degrees, orientation,
      degree-class wedge expansion, searchsorted membership — is pure
      vectorized numpy, zero shuffles (profiled 5.0 s -> ~0.5 s at
      sf0.1: four shuffle stages were fixed overhead on a ~150k-edge
      graph).
    - the degree table is node-scale: under ``broadcast_limit`` nodes
      it rides ``ray.put`` as one int64 array and orientation is a
      map-side gather; above the bound (or ``force_distributed``)
      degrees stay a Dataset and attach to the edge list via two
      distributed hash joins (deg(u), deg(v)) — nothing node-scale
      touches the driver. All forks equivalence-tested."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows
    orders_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "orders.parquet")
    ).num_rows

    if orders_rows <= driver_edges_max and not force_distributed:
        k = _link_edges_driver(sf_dir, n_nodes)  # sorted packed (u<v) keys
        eu = (k // n_nodes).astype(np.int64)
        ev = (k % n_nodes).astype(np.int64)
        deg = np.bincount(eu, minlength=n_nodes) + np.bincount(
            ev, minlength=n_nodes
        )
        rank = deg.astype(np.int64) * np.int64(n_nodes) + np.arange(
            n_nodes, dtype=np.int64
        )
        swap = rank[eu] > rank[ev]
        src = np.where(swap, ev, eu)
        dst = np.where(swap, eu, ev)
        od = np.bincount(src, minlength=n_nodes).astype(np.int64)
        n_wedges = int((od * (od - 1) // 2).sum())
        if n_wedges <= wedge_driver_max:
            order = np.lexsort((dst, src))
            ((a, b),) = _group_pairs(src[order], [dst[order]])
            wk = np.minimum(a, b) * np.int64(n_nodes) + np.maximum(a, b)
            # k is exactly the sorted (u<v)-packed distinct edge set
            pos = np.clip(np.searchsorted(k, wk), 0, max(len(k) - 1, 0))
            total = int((k[pos] == wk).sum()) if len(k) else 0
            return pa.table({"n_triangles": pa.array([total], pa.int64())})
        # wedge blowup too large for the driver: fall through to the
        # shuffled wedge pipeline below

    edges = _link_edges(sf_dir, n_nodes)

    # degrees: one combiner groupby over both endpoints
    def deg_partial(batch: pa.Table) -> pa.Table:
        both = np.concatenate(
            [
                batch.column("u").to_numpy(zero_copy_only=False),
                batch.column("v").to_numpy(zero_copy_only=False),
            ]
        )
        k, c = np.unique(both, return_counts=True)
        return pa.table(
            {"node": pa.array(k.astype(np.int64), pa.int64()),
             "d": pa.array(c.astype(np.int64), pa.int64())}
        )

    deg_ds = (
        edges.map_batches(deg_partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Sum("d", alias_name="deg"))
        .materialize()
    )

    n_bkt = default_buckets()

    if n_nodes <= broadcast_limit and not force_distributed:
        deg = deg_ds.to_pandas()  # node-scale ints, under the bound
        dmap = np.zeros(n_nodes, np.int64)
        dmap[deg["node"].to_numpy()] = deg["deg"].to_numpy()
        # total order: (degree, node) — rank = deg*n_nodes + node fits i64
        rank = dmap * np.int64(n_nodes)
        rank += np.arange(n_nodes, dtype=np.int64)
        rank_ref = ray.put(rank)

        def orient(batch: pa.Table) -> pa.Table:
            r = ray.get(rank_ref)
            u = batch.column("u").to_numpy(zero_copy_only=False)
            v = batch.column("v").to_numpy(zero_copy_only=False)
            swap = r[u] > r[v]
            src = np.where(swap, v, u).astype(np.int64)
            dst = np.where(swap, u, v).astype(np.int64)
            return pa.table(
                {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
            )

        oriented = edges.map_batches(
            orient, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
    else:
        # degrees stay a Dataset: attach deg(u) and deg(v) to the edge
        # list via two distributed hash joins, orient per row
        tune_join_resources()
        nparts = join_partitions()
        n_e = edges.count()
        eparts = max(2, min(nparts, n_e // 4096 + 1))
        dparts = max(2, min(nparts, deg_ds.count() // 4096 + 1))
        du = deg_ds.map_batches(
            lambda b: pa.table(
                {"u": b.column("node"), "deg_u": b.column("deg")}
            ),
            batch_format="pyarrow",
        ).repartition(dparts)
        dv = deg_ds.map_batches(
            lambda b: pa.table(
                {"v": b.column("node"), "deg_v": b.column("deg")}
            ),
            batch_format="pyarrow",
        ).repartition(dparts)
        e2 = (
            edges.repartition(eparts)
            .join(du, join_type="inner", on=("u",), num_partitions=nparts)
            .join(dv, join_type="inner", on=("v",), num_partitions=nparts)
        )

        def orient_joined(batch: pa.Table) -> pa.Table:
            u = batch.column("u").to_numpy(zero_copy_only=False)
            v = batch.column("v").to_numpy(zero_copy_only=False)
            ru = batch.column("deg_u").to_numpy(zero_copy_only=False) * np.int64(
                n_nodes
            ) + u
            rv = batch.column("deg_v").to_numpy(zero_copy_only=False) * np.int64(
                n_nodes
            ) + v
            swap = ru > rv
            src = np.where(swap, v, u).astype(np.int64)
            dst = np.where(swap, u, v).astype(np.int64)
            return pa.table(
                {"src": pa.array(src, pa.int64()), "dst": pa.array(dst, pa.int64())}
            )

        oriented = e2.map_batches(
            orient_joined, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()

    # wedges: per-center out-neighbor pairs. The shuffle keys on
    # src%B (coarse buckets — a center's out-edges co-locate, the sort
    # moves B distinct ints, not the node id range) and the kernel is
    # vectorized BY OUT-DEGREE CLASS: rows sort by (degree, center),
    # every center with the same out-degree k stacks into an (m, k)
    # matrix and one triu gather emits all their pairs — zero
    # per-center Python (out-degree is O(sqrt|E|) under the degree
    # orientation, so there are few distinct classes).
    def add_src_bucket(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__sb", pa.array((s % n_bkt).astype(np.int32), pa.int32())
        )

    def wedges(g: pd.DataFrame) -> pd.DataFrame:
        df = g.sort_values(["src", "dst"], kind="mergesort")
        ((a, b),) = _group_pairs(df["src"].to_numpy(), [df["dst"].to_numpy()])
        # out-neighbors were dst-sorted within each src, so a < b holds
        return pd.DataFrame({"u": a, "v": b, "__b": (a * 31 + b) % n_bkt})

    wedge_ds = (
        oriented.map_batches(add_src_bucket, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__sb")
        .map_groups(wedges, batch_format="pandas")
    )

    # closing-edge membership: bucket both sides on the same key, then a
    # per-bucket sorted int64 membership test
    def edge_key(batch: pa.Table) -> pa.Table:
        s = batch.column("src").to_numpy(zero_copy_only=False)
        d = batch.column("dst").to_numpy(zero_copy_only=False)
        # oriented edges have rank(src)<rank(dst) but a wedge (u,v) is
        # sorted by NODE id; normalize to (min,max) node order
        u, v = np.minimum(s, d), np.maximum(s, d)
        return pa.table(
            {
                "k": pa.array(u * np.int64(n_nodes) + v, pa.int64()),
                "__b": pa.array((u * 31 + v) % n_bkt, pa.int64()),
                "is_edge": pa.array(np.ones(len(u), np.int64), pa.int64()),
            }
        )

    def wedge_key(batch: pa.Table) -> pa.Table:
        u = batch.column("u").to_numpy(zero_copy_only=False)
        v = batch.column("v").to_numpy(zero_copy_only=False)
        uu, vv = np.minimum(u, v), np.maximum(u, v)
        return pa.table(
            {
                "k": pa.array(uu * np.int64(n_nodes) + vv, pa.int64()),
                "__b": pa.array(batch.column("__b").to_numpy(zero_copy_only=False).astype(np.int64), pa.int64()),
                "is_edge": pa.array(np.zeros(len(uu), np.int64), pa.int64()),
            }
        )

    tagged = oriented.map_batches(
        edge_key, batch_format="pyarrow", zero_copy_batch=True
    ).union(
        wedge_ds.map_batches(wedge_key, batch_format="pyarrow", zero_copy_batch=True)
    )

    def count_in_bucket(g: pd.DataFrame) -> pd.DataFrame:
        ek = np.sort(g.loc[g["is_edge"] == 1, "k"].to_numpy())
        wk = g.loc[g["is_edge"] == 0, "k"].to_numpy()
        if len(ek) == 0 or len(wk) == 0:
            return pd.DataFrame({"n": [0]})
        pos = np.clip(np.searchsorted(ek, wk), 0, len(ek) - 1)
        return pd.DataFrame({"n": [int((ek[pos] == wk).sum())]})

    parts = (
        tagged.groupby("__b")
        .map_groups(count_in_bucket, batch_format="pandas")
        .to_pandas()
    )
    total = int(parts["n"].sum())
    return pa.table({"n_triangles": pa.array([total], pa.int64())})


def q_bfs_distance(
    sf_dir: str,
    source: int = 0,
    max_depth: int = 6,
    driver_edges_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """BFS shortest-path distances from a seed node over the
    q_pagerank/q_triangle_count link graph — crawl-depth / link-distance
    analysis (heroshi tracks depth-from-seed for scheduling), and the
    third iterative-graph member after PageRank and connected
    components. Output (node, dist) for nodes within ``max_depth``.

    Layout per round: ONE map_batches over the (materialized once)
    distinct edge list emits the neighbors of the broadcast frontier —
    partials are np.unique'd per batch, so the driver merge handles at
    most |new frontier| x blocks ints. Frontier and visited sets are
    REACHED-node-scale on the driver (bounded by max_depth's ball, the
    quantity a crawl scheduler budget-caps anyway); for
    unbounded-diameter full-graph labeling the Dataset-resident
    propagation machinery in q_dedup_clusters is the scale path, as its
    docstring documents. The DuckDB twin unrolls the same rounds as
    nested CTEs (the q_pagerank oracle pattern).

    Size-adaptive driver fork (q_triangle_count's gate): below
    ``driver_edges_max`` orders rows the per-depth frontier expansion
    was max_depth full Ray plan launches over a bench-scale edge list —
    the fork runs ONE distributed edge-dedup pass
    (_link_edges_driver) and the identical searchsorted kernel per
    depth on the driver arrays; set semantics make the forks exactly
    equal (equivalence-tested)."""
    import pyarrow.parquet as pq_mod

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows

    if (
        pq_mod.read_metadata(os.path.join(sf_dir, "orders.parquet")).num_rows
        <= driver_edges_max
        and not force_distributed
    ):
        k = _link_edges_driver(sf_dir, n_nodes)
        eu = (k // n_nodes).astype(np.int64)
        ev = (k % n_nodes).astype(np.int64)
        visited = {int(source): 0}
        frontier = np.array([source], np.int64)
        for depth in range(1, max_depth + 1):
            f = np.sort(frontier)
            pu = np.clip(np.searchsorted(f, eu), 0, max(0, len(f) - 1))
            pv = np.clip(np.searchsorted(f, ev), 0, max(0, len(f) - 1))
            mu = f[pu] == eu
            mv = f[pv] == ev
            reached = np.unique(np.concatenate([ev[mu], eu[mv]]))
            frontier = np.array(
                [n for n in reached if int(n) not in visited], np.int64
            )
            if len(frontier) == 0:
                break
            for n in frontier:
                visited[int(n)] = depth
        nodes = sorted(visited)
        return pa.table(
            {
                "node": pa.array(nodes, pa.int64()),
                "dist": pa.array([visited[n] for n in nodes], pa.int64()),
            }
        )

    edges = _link_edges(sf_dir, n_nodes)

    visited = {int(source): 0}
    frontier = np.array([source], np.int64)
    for depth in range(1, max_depth + 1):
        f_ref = ray.put(np.sort(frontier))

        def neighbors(batch: pa.Table) -> pa.Table:
            f = ray.get(f_ref)
            u = batch.column("u").to_numpy(zero_copy_only=False)
            v = batch.column("v").to_numpy(zero_copy_only=False)
            pu = np.clip(np.searchsorted(f, u), 0, max(0, len(f) - 1))
            pv = np.clip(np.searchsorted(f, v), 0, max(0, len(f) - 1))
            mu = f[pu] == u
            mv = f[pv] == v
            out = np.unique(np.concatenate([v[mu], u[mv]]))
            return pa.table({"node": pa.array(out, pa.int64())})

        reached = np.unique(
            np.concatenate(
                [
                    b["node"].to_numpy()
                    for b in edges.map_batches(
                        neighbors, batch_format="pyarrow", zero_copy_batch=True
                    ).iter_batches(batch_format="pandas")
                ]
                or [np.empty(0, np.int64)]
            )
        )
        frontier = np.array(
            [n for n in reached if int(n) not in visited], np.int64
        )
        if len(frontier) == 0:
            break
        for n in frontier:
            visited[int(n)] = depth

    nodes = sorted(visited)
    return pa.table(
        {
            "node": pa.array(nodes, pa.int64()),
            "dist": pa.array([visited[n] for n in nodes], pa.int64()),
        }
    )


def q_train_split(sf_dir: str, val_pct: int = 10, test_pct: int = 10):
    """Deterministic train/val/test split (the holdout assignment every
    training corpus needs, reproducible across runs and engines): the
    split gate is the same Knuth multiplicative hash q_data_mix uses —
    (doc_id * 2654435761) mod 2^32 mod 100 — carved into
    [0, test) / [test, test+val) / rest, so numpy and ANSI SQL agree
    bit-for-bit and a re-run never migrates a document across splits
    (the leakage property hash splits exist to guarantee). Output one
    (lang, split, n_docs, n_tokens) row per cell: the split manifest a
    training job validates against. Pure combiner — one |langs x 3|-key
    groupby of per-batch partials, no shuffle of the corpus."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["doc_id", "lang", "text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = (
            (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
        ) % np.uint64(100)
        gate = h.astype(np.int64)
        split = np.where(
            gate < test_pct, "test", np.where(gate < test_pct + val_pct, "val", "train")
        )
        toks = token_count_ws(batch.column("text").to_pylist())
        g = (
            pd.DataFrame(
                {
                    "lang": batch.column("lang").to_pylist(),
                    "split": split,
                    "n_docs": 1,
                    "n_tokens": toks,
                }
            )
            .groupby(["lang", "split"], sort=False)
            .sum()
            .reset_index()
        )
        g["n_docs"] = g["n_docs"].astype("int64")
        g["n_tokens"] = g["n_tokens"].astype("int64")
        return pa.Table.from_pandas(g, preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "split"])
        .aggregate(Sum("n_docs", alias_name="n_docs"), Sum("n_tokens", alias_name="n_tokens"))
    )


def q_quality_sample(sf_dir: str):
    """Quality-weighted downsampling (the data-selection step of corpus
    curation — keep natural-language-looking documents with probability
    proportional to a quality weight, cf. the CCNet/GPT-3 quality-
    sampling recipe): weight w_e4 = min(10^4, stopword_density * 4)
    (stopword-dense text reads as prose), keep iff
    hash(doc_id) mod 10^4 < w_e4. Every quantity is integer and the
    hash is the Knuth gate, so the DuckDB twin reproduces the EXACT
    sample — the reproducibility a curation pipeline needs to re-derive
    its corpus. Pure map_batches: one scan, no shuffle, no driver
    state; emits (doc_id, w_e4) for the kept docs."""
    import polars as pl

    from ..functions.text import STOPWORDS

    stop = sorted(STOPWORDS)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def gate(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.extract_all(r"\S+")
        d = pl.select(
            n_tokens=toks.list.len().cast(pl.Int64),
            n_stop=toks.list.eval(
                pl.element().str.to_lowercase().is_in(stop)
            ).list.sum().fill_null(0).cast(pl.Int64),
        )
        nt = d["n_tokens"].to_numpy()
        nst = d["n_stop"].to_numpy()
        w = np.minimum(10_000, nst * 40_000 // np.maximum(nt, 1)).astype(np.int64)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        h = (
            (ids.astype(np.uint64) * np.uint64(2654435761)) % np.uint64(1 << 32)
        ) % np.uint64(10_000)
        keep = h.astype(np.int64) < w
        return pa.table(
            {
                "doc_id": pa.array(ids[keep], pa.int64()),
                "w_e4": pa.array(w[keep], pa.int64()),
            }
        )

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


# --------------------------------------------- corpus hygiene (round 3) --
def q_repetition_stats(sf_dir: str):
    """Gopher-style repetition counters per document (Rae et al.,
    "Scaling Language Models: ... Gopher", 2021 §A1.1 uses
    duplicate-line/ngram fractions as quality gates): whitespace token
    count, distinct-token count, and the duplicate-token fraction in
    integer parts-per-million (exact — no float ratio crosses the hash).
    Pure map_batches (no shuffle); polars list kernels, zero Python per
    row. At 100 TB this is a single streaming pass, the cheapest gate in
    a curation chain and the first one to run."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pa.Table:
        toks = pl.from_arrow(batch.column("text")).rename("t").str.split(" ")
        d = pl.select(
            n_tokens=toks.list.len().cast(pl.Int64),
            n_distinct=toks.list.n_unique().cast(pl.Int64),
        ).with_columns(
            dup_e6=(pl.col("n_tokens") - pl.col("n_distinct"))
            * 1_000_000
            // pl.col("n_tokens")
        ).to_arrow()
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_tokens": d.column("n_tokens"),
                "n_distinct": d.column("n_distinct"),
                "dup_e6": d.column("dup_e6"),
            }
        )

    return ds.map_batches(stats, batch_format="pyarrow", zero_copy_batch=True)


def q_pii_redact(sf_dir: str):
    """PII redaction over synthetic contact strings (the scrubbing pass
    every public-web training corpus runs before tokenization). The
    corpus fixture has no natural PII, so — exactly like q_canonicalize
    builds URLs — the input strings are built by a FIXED template over
    events rows (user-derived email + event-derived phone), which lets
    the DuckDB twin construct the identical strings and hash-check the
    redaction. Output: redacted text + per-row match counters.

    Engine side is one streaming map_batches pass with compiled-once
    Rust-regex kernels (polars count_matches / replace_all) — zero
    Python per row, no shuffle; the corpus is ASCII so the RE2 classes
    in the SQL twin agree. At 100 TB this pass is bandwidth-bound, the
    shape you want."""
    import polars as pl

    email = r"[a-z0-9._]+@[a-z0-9.-]+"
    phone = r"\+1-555-[0-9]{4}"
    ds = _pq(sf_dir, "events", columns=["event_id", "user_id", "event_type"])

    def redact(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch)
        out = df.select(
            "event_id",
            msg=pl.format(
                "contact user{} at user{}@example.com or +1-555-{} re {}",
                pl.col("user_id"),
                pl.col("user_id"),
                (pl.col("event_id") % 10000).cast(pl.Utf8).str.zfill(4),
                pl.col("event_type"),
            ),
        ).select(
            "event_id",
            n_emails=pl.col("msg").str.count_matches(email).cast(pl.Int64),
            n_phones=pl.col("msg").str.count_matches(phone).cast(pl.Int64),
            clean=pl.col("msg")
            .str.replace_all(email, "<EMAIL>")
            .str.replace_all(phone, "<PHONE>"),
        )
        return out.to_arrow()

    return ds.map_batches(redact, batch_format="pyarrow", zero_copy_batch=True)


def _explode_chunks(batch: pa.Table, width: int):
    """(doc_id, chunk_id, chunk): fixed-width token windows per doc —
    the 'line' unit of corpus-level chunk dedup. Vectorized polars
    explode; a document's chunks stay inside its input batch."""
    import polars as pl

    return (
        pl.from_arrow(batch)
        .with_columns(t=pl.col("text").str.split(" "))
        .with_columns(pos=pl.int_ranges(pl.col("t").list.len()))
        .explode(["t", "pos"])
        .with_columns(chunk_id=(pl.col("pos") // width).cast(pl.Int64))
        .group_by(["doc_id", "chunk_id"], maintain_order=True)
        .agg(chunk=pl.col("t").str.join(" "))
    )


def q_chunk_dedup(
    sf_dir: str,
    width: int = 3,
    min_docs: int = 3,
    broadcast_max: int = 500_000,
    force_distributed: bool = False,
):
    """Corpus-level duplicated-chunk removal (the Dolma/CCNet
    paragraph-dedup shape: Soldaini et al. 2024 §2.3 dedups at the
    paragraph level; CCNet (Wenzek et al. 2020) at the line level):
    split every document into fixed-width token chunks, count how many
    DISTINCT documents each exact chunk appears in, delete chunks that
    appear in >= min_docs docs, and reassemble the surviving text in
    order. Documents whose every chunk is boilerplate disappear —
    matching the SQL twin's string_agg-over-zero-rows semantics.

    Layout: explode is per-batch (a doc's chunks never leave its input
    batch); the frequency pass is a COMBINER (per-batch distinct
    (doc,chunk) -> partial counts, so the shuffle moves per-batch chunk
    vocabularies, not one row per occurrence); the frequent set is
    OUTPUT-scale by construction (<= total_chunks/min_docs and in real
    corpora tiny — boilerplate is frequent *because* it is few distinct
    strings). Under ``broadcast_max`` it ships once via ray.put and the
    delete+reassemble pass stays fully in-batch with NO further
    shuffle; above it (or under force_distributed) chunks anti-join the
    frequent set in a bucketed shuffle and docs reassemble in a second
    keyed shuffle — same fork discipline as the other size-adaptive
    joins, equivalence-tested at sandbox scale."""
    import polars as pl

    from ray.data.aggregate import Sum

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def partial_counts(batch: pa.Table) -> pa.Table:
        ex = _explode_chunks(batch, width)
        cnt = ex.unique(["doc_id", "chunk"]).group_by("chunk").len()
        return pa.table(
            {
                "chunk": cnt["chunk"].to_arrow(),
                "cnt": cnt["len"].cast(pl.Int64).to_arrow(),
            }
        )

    import pyarrow.parquet as pq_mod

    docs_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows

    parts = ds.map_batches(
        partial_counts, batch_format="pyarrow", zero_copy_batch=True
    )
    freq_ds = None
    if docs_rows <= broadcast_max and not force_distributed:
        # driver-combine fork: the partials are per-block chunk
        # vocabularies; under the gate they merge in one pandas pass —
        # the distributed groupby was an all-to-all of chunk STRINGS
        # plus a per-row Python filter for a set that is broadcast
        # right back anyway
        pdf = parts.to_pandas()
        g = pdf.groupby("chunk", sort=False)["cnt"].sum()
        freq_sorted = sorted(g.index[g >= min_docs])
        n_freq = len(freq_sorted)
    else:
        freq_ds = (
            parts.groupby("chunk")
            .aggregate(Sum("cnt", alias_name="n_docs"))
            .filter(lambda r: r["n_docs"] >= min_docs)
            .materialize()  # frequent set is output-scale
        )
        n_freq = freq_ds.count()

    if n_freq <= broadcast_max and not force_distributed:
        if freq_ds is not None:
            freq_sorted = sorted(
                c for b in freq_ds.iter_batches(batch_format="pyarrow")
                for c in b.column("chunk").to_pylist()
            )
        freq_ref = ray.put(pl.Series("chunk", freq_sorted))
        # broadcast as a polars Series — is_in() reuses it per batch
        # with no per-call list->Series conversion

        def scrub(batch: pa.Table) -> pa.Table:
            fset = ray.get(freq_ref)
            out = (
                _explode_chunks(batch, width)
                .filter(~pl.col("chunk").is_in(fset) if len(fset) else pl.lit(True))
                .sort(["doc_id", "chunk_id"])
                .group_by("doc_id", maintain_order=True)
                .agg(text=pl.col("chunk").str.join(" "))
            )
            return out.to_arrow()

        return ds.map_batches(scrub, batch_format="pyarrow", zero_copy_batch=True)

    # distributed path: bucketed anti join on the chunk, then reassemble
    # docs in a second keyed shuffle (both all-to-alls move chunk rows,
    # never whole documents)
    from ..functions.hashing import hash64

    if freq_ds is None:  # driver combine ran but the set outgrew the cap
        freq_ds = ray.data.from_arrow(
            pa.table({"chunk": pa.array(freq_sorted, pa.string())})
        )

    def explode_with_bucket(batch: pa.Table) -> pa.Table:
        ex = _explode_chunks(batch, width)
        t = ex.to_arrow()
        b = (hash64(t.column("chunk")).astype(np.uint64) % np.uint64(n_bkt)).astype(np.int32)
        return t.append_column("__b", pa.array(b, pa.int32())).append_column(
            "__drop", pa.array(np.zeros(t.num_rows, np.int8), pa.int8())
        )

    def freq_with_bucket(batch: pa.Table) -> pa.Table:
        b = (hash64(batch.column("chunk")).astype(np.uint64) % np.uint64(n_bkt)).astype(np.int32)
        n = batch.num_rows
        return pa.table(
            {
                "doc_id": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "chunk_id": pa.array(np.full(n, -1, np.int64), pa.int64()),
                "chunk": batch.column("chunk"),
                "__b": pa.array(b, pa.int32()),
                "__drop": pa.array(np.ones(n, np.int8), pa.int8()),
            }
        )

    chunks = ds.map_batches(explode_with_bucket, batch_format="pyarrow", zero_copy_batch=True)
    marks = freq_ds.map_batches(freq_with_bucket, batch_format="pyarrow")

    def anti(g: pd.DataFrame) -> pd.DataFrame:
        drop = set(g.loc[g["__drop"] == 1, "chunk"])
        keep = g[(g["__drop"] == 0) & ~g["chunk"].isin(drop)]
        return keep[["doc_id", "chunk_id", "chunk"]]

    kept = chunks.union(marks).groupby("__b").map_groups(anti, batch_format="pandas")

    def reassemble(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "chunk_id"], kind="mergesort")
        return (
            g.groupby("doc_id", sort=False)["chunk"]
            .agg(" ".join)
            .reset_index(name="text")
        )

    def doc_bucket(batch: pa.Table) -> pa.Table:
        b = (
            batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.uint64)
            % np.uint64(n_bkt)
        ).astype(np.int32)
        return batch.append_column("__db", pa.array(b, pa.int32()))

    return (
        kept.map_batches(doc_bucket, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(reassemble, batch_format="pandas")
    )


def q_inverted_index(sf_dir: str, min_df: int = 2, max_df: int = 50):
    """Posting-list construction (the IR / dedup-support index shape):
    for every bigram with document frequency in [min_df, max_df], the
    ascending comma-joined list of doc_ids containing it. The df window
    is the classic posting-size bound — stopword-frequency grams are
    useless for lookup and their lists are corpus-sized, so a real
    index drops them (df > max_df) along with hapaxes (df < min_df).

    Layout: per-batch DISTINCT (doc_id, bigram) explode (a doc lives in
    one batch, so batch-local distinct is globally distinct); ONE
    bucketed shuffle on hash(bigram)%B; per-bucket vectorized pandas
    groupby builds df + the ordered posting string (string_agg ORDER BY
    twin). Posting payload is bounded by max_df, so the output is
    index-scale, never corpus-scale."""
    import polars as pl

    from ..functions.hashing import hash64

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def explode(batch: pa.Table) -> pa.Table:
        t = (
            pl.from_arrow(batch)
            .with_columns(t=pl.col("text").str.split(" "))
            .with_columns(a=pl.col("t"), b=pl.col("t").list.shift(-1))
            .explode(["a", "b"])
            .filter(pl.col("b").is_not_null())
            .select("doc_id", bigram=pl.col("a") + " " + pl.col("b"))
            .unique()
            .to_arrow()
        )
        bkt = (hash64(t.column("bigram")).astype(np.uint64) % np.uint64(n_bkt)).astype(np.int32)
        return t.append_column("__b", pa.array(bkt, pa.int32()))

    def build(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["bigram", "doc_id"], kind="mergesort")
        # df-window filter FIRST: hapaxes and stopword-frequency grams
        # dominate real vocabularies, so posting strings are built only
        # for in-window bigrams, from a single vectorized astype(str)
        sizes = g.groupby("bigram", sort=False)["doc_id"].transform("size")
        g = g[(sizes >= min_df) & (sizes <= max_df)]
        if g.empty:
            return pd.DataFrame(
                {"bigram": pd.Series([], dtype=object),
                 "df": pd.Series([], dtype="int64"),
                 "postings": pd.Series([], dtype=object)}
            )
        ids = g["doc_id"].astype(str)
        out = (
            pd.DataFrame({"bigram": g["bigram"], "ids": ids})
            .groupby("bigram", sort=False)["ids"]
            .agg(df="size", postings=",".join)
            .reset_index()
        )
        out["df"] = out["df"].astype("int64")
        return out

    return (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(build, batch_format="pandas")
    )


def q_edit_neardup(sf_dir: str, n_buckets: int | None = None):
    """Edit-distance-1 similarity self-join over supplier names — the
    typo-level string dedup family (entity resolution / near-identical
    key cleanup), via the FastSS deletion-neighborhood method (Bocek et
    al., "Fast Similarity Search in Large Dictionaries", 2007):
    lev(a,b) <= 1 implies a and b share a string in {x} ∪ del1(x), so
    grouping rows by their 1+len(x) deletion variants finds every true
    pair without the quadratic cross join the SQL twin runs.

    Layout: per-batch vectorized variant explode (fixed-width rows
    slice as a (n, L) char matrix — one numpy pass per deletion
    position, grouped by length class; zero Python per row), batch-
    local distinct -> ONE bucketed shuffle on hash(variant)%B ->
    per-bucket candidate pairs (degree-class-vectorized triu over
    variant groups, the q_triangle_count kernel) verified EXACTLY
    (equal length: <=1 mismatching char column; length±1: one-deletion
    alignment) -> distributed pair dedup (`_dedup_pairs` — a pair can
    surface in many buckets). Candidates are neighborhood-scale, never
    |table|² — the reason this survives a 10^9-row dictionary where
    the cross join dies."""
    B = n_buckets or default_buckets()
    from ..functions.hashing import hash64

    ds = _pq(sf_dir, "supplier", columns=["s_suppkey", "s_name"], split=True)

    def variants(batch: pa.Table) -> pa.Table:
        keys = batch.column("s_suppkey").to_numpy(zero_copy_only=False).astype(np.int64)
        names = np.asarray(batch.column("s_name").to_pylist(), dtype=object)
        lens = np.fromiter((len(n) for n in names), np.int64, len(names))
        if len(names) == 0:
            return pa.table(
                {"v": pa.array([], pa.string()), "k": pa.array([], pa.int64()),
                 "name": pa.array([], pa.string()),
                 "__b": pa.array([], pa.int32())}
            )
        out_v, out_k, out_n = [], [], []
        for L in np.unique(lens):
            sel = lens == L
            nm = names[sel].astype(f"U{max(L, 1)}")
            km = keys[sel]
            out_v.append(nm.astype(object))  # identity variant
            out_k.append(km)
            out_n.append(nm.astype(object))
            if L == 0:
                continue
            if L == 1:
                # the single deletion variant of a 1-char name is ""
                out_v.append(np.full(len(nm), "", dtype=object))
                out_k.append(km)
                out_n.append(nm.astype(object))
                continue
            mat = nm.view("U1").reshape(len(nm), L)
            for p in range(L):
                v = np.concatenate([mat[:, :p], mat[:, p + 1 :]], axis=1)
                out_v.append(v.view(f"U{L - 1}").ravel().astype(object))
                out_k.append(km)
                out_n.append(nm.astype(object))
        df = pd.DataFrame(
            {
                "v": np.concatenate(out_v),
                "k": np.concatenate(out_k),
                "name": np.concatenate(out_n),
            }
        ).drop_duplicates(["v", "k"])
        bkt = (hash64(df["v"].tolist()) % np.uint64(B)).astype(np.int32)
        df["__b"] = bkt
        return pa.Table.from_pandas(df, preserve_index=False)

    def _lev_le1(a: str, b: str) -> bool:
        if a == b:
            return True
        la, lb = len(a), len(b)
        if la == lb:
            return sum(x != y for x, y in zip(a, b)) <= 1
        if abs(la - lb) != 1:
            return False
        lo, hi = (a, b) if la < lb else (b, a)
        i = 0
        while i < len(lo) and lo[i] == hi[i]:
            i += 1
        return hi[i + 1 :] == lo[i:]

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        g = g.drop_duplicates(["v", "k"]).sort_values(["v", "k"], kind="mergesort")
        (ka, kb2), (na_p, nb_p) = _group_pairs(
            g["v"].to_numpy(), [g["k"].to_numpy(), g["name"].to_numpy()]
        )
        if len(ka) == 0:
            return pd.DataFrame({"a": pd.Series([], dtype="int64"),
                                 "b": pd.Series([], dtype="int64")})
        a = ka.astype(np.int64)
        b = kb2.astype(np.int64)
        na = na_p
        nbv = nb_p
        swap = a > b
        a2 = np.where(swap, b, a)
        b2 = np.where(swap, a, b)
        df = pd.DataFrame({"a": a2, "b": b2, "na": np.where(swap, nbv, na),
                           "nb": np.where(swap, na, nbv)}).drop_duplicates(["a", "b"])
        df = df[df["a"] != df["b"]]
        keep = [
            _lev_le1(x, y) for x, y in zip(df["na"], df["nb"])
        ]  # candidate-scale loop, never table-scale
        return df.loc[keep, ["a", "b"]]

    cand = (
        ds.map_batches(variants, batch_format="pyarrow")
        .groupby("__b")
        .map_groups(bucket_pairs, batch_format="pandas")
    )
    return _dedup_pairs(cand, "a", "b")


# ------------------------------------------ semantic decontamination ----
def q_semantic_decontaminate(
    sf_dir: str, eval_mod: int = 41, threshold_e4: int = 3500
):
    """EMBEDDING-level benchmark decontamination (the semantic cousin of
    q_decontaminate's exact n-gram pass): flag training vectors whose
    best cosine against the eval set clears ``threshold_e4``, reporting
    the argmax eval id — paraphrased benchmark leakage that exact gram
    overlap misses. vec_id % eval_mod == 0 stands in for the benchmark.

    Scale layout mirrors q_decontaminate: the eval side is a BENCHMARK,
    fixed-size by definition, so its normalized matrix broadcasts once
    (ray.put); the 100-TB train side streams through ONE map_batches
    matmul+argmax pass — no shuffle, no train-side materialization.
    Ties on best cosine break to the smallest eval id (eval columns are
    vec_id-sorted, np.argmax takes the first max), matching the SQL
    twin's ``ORDER BY sim DESC, eval_id`` row_number."""
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"], split=True)

    def eval_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.take(pa.array(np.flatnonzero(ids % eval_mod == 0)))

    ev_df = (
        ds.map_batches(eval_rows, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # driver contact = benchmark rows, fixed-size by definition
    ).sort_values("vec_id")
    ev_ids = ev_df["vec_id"].to_numpy()
    ev_mat = l2_normalize(as_matrix(ev_df["embedding"].tolist()).astype(np.float64))
    ev_ref = ray.put((ev_ids, ev_mat))

    def flag(batch: pa.Table) -> pa.Table:
        eids, emat = ray.get(ev_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        tr_mask = ids % eval_mod != 0
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "eval_id": pa.array([], pa.int64()),
                "cos_sim_e4": pa.array([], pa.int64()),
            }
        )
        if not tr_mask.any():
            return empty
        ids = ids[tr_mask]
        mat = l2_normalize(
            as_matrix(
                batch.column("embedding").take(
                    pa.array(np.flatnonzero(tr_mask))
                ).to_pylist()
            ).astype(np.float64)
        )
        sims = mat @ emat.T  # (n_train_in_batch, n_eval)
        best = np.argmax(sims, axis=1)
        e4 = np.round(sims[np.arange(len(ids)), best] * 10000).astype(np.int64)
        keep = e4 >= threshold_e4
        if not keep.any():
            return empty
        return pa.table(
            {
                "vec_id": pa.array(ids[keep], pa.int64()),
                "eval_id": pa.array(eids[best[keep]], pa.int64()),
                "cos_sim_e4": pa.array(e4[keep], pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------ n-gram containment ----------
def _poly_powers(k: int) -> np.ndarray:
    """Precomputed FNV64-prime powers for vectorized window hashing
    (shared by q_dup_spans-style window hashing and the containment
    explode)."""
    pw = np.empty(k, np.uint64)
    pw[k - 1] = 1
    with np.errstate(over="ignore"):  # uint64 wraparound is the point
        for i in range(k - 2, -1, -1):
            pw[i] = pw[i + 1] * np.uint64(1099511628211)
    return pw


def _batch_window_hashes(texts: list, n: int, pw: np.ndarray):
    """EVERY char-n-gram window of a whole batch as (doc_index, pos,
    hash) with ONE vectorized pass — no Python per gram. Codepoint
    concat (utf-32 view, character-exact like SQL substr) -> one
    sliding_window_view -> one (T,n)·(n,) uint64 polynomial dot ->
    boundary mask. Positions are 0-based within each doc."""
    enc = [(t or "").encode("utf-32-le") for t in texts]
    lens = np.array([len(e) >> 2 for e in enc], np.int64)
    buf = np.frombuffer(b"".join(enc), np.uint32).astype(np.uint64)
    if len(buf) < n:
        return (
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.uint64),
        )
    win = np.lib.stride_tricks.sliding_window_view(buf, n)
    with np.errstate(over="ignore"):
        h = (win * pw).sum(axis=1, dtype=np.uint64)
    ends = np.cumsum(lens)
    p = np.arange(len(h), dtype=np.int64)
    doc_of = np.searchsorted(ends, p, side="right")
    valid = p <= ends[doc_of] - n  # window fully inside its doc
    d, hh = doc_of[valid].astype(np.int64), h[valid]
    pos = p[valid] - (ends - lens)[d]
    return d, pos.astype(np.int64), hh


def _batch_distinct_grams(texts: list, n: int, pw: np.ndarray):
    """Per-doc DISTINCT gram hashes: `_batch_window_hashes` + one
    lexsort dedup (positions dropped). Returns rows sorted by
    (doc_index, uint64 hash): (doc_index_int64, gram_hash_uint64)."""
    d, _pos, hh = _batch_window_hashes(texts, n, pw)
    if not len(d):
        return d, hh
    order = np.lexsort((hh, d))
    d, hh = d[order], hh[order]
    keep = np.empty(len(d), bool)
    keep[0] = True
    keep[1:] = (d[1:] != d[:-1]) | (hh[1:] != hh[:-1])
    return d[keep], hh[keep]


def q_containment_neardup(
    sf_dir: str, n: int = 12, threshold_e4: int = 8000,
    n_buckets: int | None = None, size_broadcast_limit: int = 1_000_000,
    driver_pairs_max: int = 5_000_000, force_distributed: bool = False,
    df_broadcast_limit: int = 5_000_000, cand_broadcast_limit: int = 2_000_000,
):
    """EXACT char-n-gram CONTAINMENT self-join: pairs where
    |grams(A) ∩ grams(B)| / min(|A|, |B|) >= threshold — the asymmetric
    overlap measure (Broder '97's containment) that catches
    quote/subset duplication Jaccard dilutes away (a paragraph copied
    into a 10x longer page scores ~1.0 here, ~0.1 on Jaccard).

    Plan (no driver contact above output scale):
    1. distinct (gram_hash64, doc_id) explode per batch — ONE
       vectorized codepoint sliding-window polynomial-hash pass per
       batch (`_batch_distinct_grams`), zero Python per gram;
    2. ONE shuffle on gram_hash % B — a gram's whole posting co-locates,
       so within-bucket _group_pairs emits each (a, b, gram) exactly
       once globally; per-bucket np.unique collapses to partial ni;
    3. pair-keyed second shuffle sums partials to exact intersection
       counts (pairs are candidate-scale, ~output-sized);
    4. per-doc gram counts: broadcast under ``size_broadcast_limit``
       docs, else the same distributed attach-by-key join the other
       adaptive ops use (fixture path: broadcast).
    Grams ride as uint64 polynomial window hashes, never strings,
    through both all-to-alls (the measured 10.7x rule). Collision
    caveat: the fixed-base polynomial hash (mod 2^64) makes collisions
    DETERMINISTIC, not random — two grams collide iff the base
    annihilates their codepoint difference vector, which is
    constructible in principle though vanishing for natural text
    (random-model rate ~1e-19 per pair at fixture gram counts); a
    collision overcounts ni by 1. The DuckDB twin hash-matched at both
    test SFs. Same stopword-gram blowup caveat as q_ngram_jaccard:
    an exact op has no df cap; deployments that accept recall loss cap
    posting length at step 2.

    FAST PATH (bounded gram space, the default below
    ``df_broadcast_limit`` DF-partial rows): the step-2 pairwise
    partial-count expansion is Σ_g c_g² — measured 55M partial pair
    rows for 256 output pairs at sf0.1 — so instead the prefix-filter
    lemma is applied in its CONTAINMENT form: C(A,B) >= t forces
    |A∩B| >= ceil(t·m) for the smaller doc S (m=|S|), so the shared
    set must intersect S's first m-ceil(t·m)+1 grams under ANY fixed
    global order (ascending document frequency here, so prefixes hold
    rare grams). Candidates are therefore (prefix row × full posting)
    collisions only — no length filter exists for containment (a tiny
    doc inside a huge one qualifies), but DF-ordered prefixes keep the
    expansion candidate-scale. Exact verify recomputes |A∩B| from the
    candidate docs' sorted gram-hash arrays (q_ngram_jaccard's
    broadcast verify), so the result is bit-identical to the pairwise
    plan — equivalence-tested; the pairwise plan remains the
    ``force_distributed`` / unbounded-gram-space fork."""
    from ray.data.aggregate import Sum

    B = n_buckets or default_buckets(per_cpu=8, hi=1024)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    pw = _poly_powers(n)

    empty = pa.table(
        {
            "doc_a": pa.array([], pa.int64()),
            "doc_b": pa.array([], pa.int64()),
            "cont_e4": pa.array([], pa.int64()),
        }
    )

    def df_partial(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        _d, hh = _batch_distinct_grams(texts, n, pw)
        uniq, counts = np.unique(hh, return_counts=True)
        return pa.table(
            {
                "gram": pa.array(uniq.view(np.int64), pa.int64()),
                "df": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    if not force_distributed:
        df_parts = ds.map_batches(
            df_partial, batch_format="pyarrow", zero_copy_batch=True
        ).materialize()
        if df_parts.count() <= df_broadcast_limit:
            parts_tbls = arrow_blocks(df_parts)
            if not parts_tbls:
                return empty
            part_tbl = pa.concat_tables(parts_tbls, promote_options="none")
            g_all = part_tbl.column("gram").to_numpy(zero_copy_only=False)
            d_all = part_tbl.column("df").to_numpy(zero_copy_only=False)
            dfk_s, inv = np.unique(g_all, return_inverse=True)
            dfv_s = np.zeros(len(dfk_s), np.int64)
            np.add.at(dfv_s, inv, d_all)
            df_ref = ray.put((dfk_s, dfv_s))

            def explode_pref(batch: pa.Table) -> pa.Table:
                dfk, dfv = ray.get(df_ref)
                ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
                texts = batch.column("text").to_pylist()
                d, hh = _batch_distinct_grams(texts, n, pw)
                if not len(d):
                    return pa.table(
                        {
                            "g": pa.array([], pa.int64()),
                            "doc_id": pa.array([], pa.int64()),
                            "pref": pa.array([], pa.bool_()),
                            "__b": pa.array([], pa.int32()),
                        }
                    )
                h_all = hh.view(np.int64)
                dfs_all = dfv[np.searchsorted(dfk, h_all)]
                bounds = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
                ends = np.r_[bounds[1:], len(d)]
                pref = np.zeros(len(d), bool)
                for s0, e0 in zip(bounds, ends):
                    m = e0 - s0
                    L = m - (threshold_e4 * m + 9999) // 10000 + 1
                    order = np.lexsort((h_all[s0:e0], dfs_all[s0:e0]))
                    pref[s0 + order[:L]] = True
                return pa.table(
                    {
                        "g": pa.array(h_all, pa.int64()),
                        "doc_id": pa.array(ids[d].astype(np.int64), pa.int64()),
                        "pref": pa.array(pref),
                        "__b": pa.array(
                            (hh % np.uint64(B)).astype(np.int32), pa.int32()
                        ),
                    }
                )

            def bucket_cand(gdf: pd.DataFrame) -> pd.DataFrame:
                order = np.lexsort(
                    (gdf["doc_id"].to_numpy(), gdf["g"].to_numpy())
                )
                gh = gdf["g"].to_numpy()[order]
                doc = gdf["doc_id"].to_numpy()[order]
                pf = gdf["pref"].to_numpy()[order].astype(bool)
                change = np.r_[True, gh[1:] != gh[:-1]]
                gid = np.cumsum(change) - 1
                csize = np.bincount(gid)
                starts = np.r_[0, np.cumsum(csize)[:-1]]
                pref_pos = np.flatnonzero(pf)
                g_of = gid[pref_pos]
                c_of = csize[g_of]
                keep = c_of > 1
                pref_pos, g_of, c_of = pref_pos[keep], g_of[keep], c_of[keep]
                if not len(pref_pos):
                    return pd.DataFrame(
                        {
                            "doc_a": pd.Series(dtype=np.int64),
                            "doc_b": pd.Series(dtype=np.int64),
                        }
                    )
                left = np.repeat(pref_pos, c_of)
                tot = int(c_of.sum())
                off = np.repeat(np.cumsum(c_of) - c_of, c_of)
                right = np.arange(tot, dtype=np.int64) - off + np.repeat(
                    starts[g_of], c_of
                )
                mm = left != right
                a = doc[left[mm]]
                b = doc[right[mm]]
                lo, hi = np.minimum(a, b), np.maximum(a, b)
                ab = np.unique(np.stack([lo, hi], axis=1), axis=0)
                return pd.DataFrame(
                    {"doc_a": ab[:, 0], "doc_b": ab[:, 1]}
                ).astype("int64")

            cand = (
                ds.map_batches(
                    explode_pref, batch_format="pyarrow", zero_copy_batch=True
                )
                .groupby("__b")
                .map_groups(bucket_cand, batch_format="pandas")
            ).materialize()
            n_cand = cand.count()
            if n_cand == 0:
                return empty
            if n_cand <= cand_broadcast_limit:
                cd = cand.to_pandas().drop_duplicates(["doc_a", "doc_b"])
                ids_arr = pa.array(
                    sorted(set(cd["doc_a"]) | set(cd["doc_b"])), pa.int64()
                )
                ids_ref = ray.put(ids_arr)

                def doc_arrays(batch: pa.Table) -> pa.Table:
                    b = batch.filter(
                        pc.is_in(batch.column("doc_id"), value_set=ray.get(ids_ref))
                    )
                    texts = b.column("text").to_pylist()
                    d, hh = _batch_distinct_grams(texts, n, pw)
                    h_all = hh.view(np.int64)
                    bounds = (
                        np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
                        if len(d)
                        else np.empty(0, np.int64)
                    )
                    ends = np.r_[bounds[1:], len(d)] if len(d) else np.empty(0, np.int64)
                    arrs = [np.empty(0, np.int64)] * len(texts)
                    for s0, e0 in zip(bounds, ends):
                        arrs[d[s0]] = np.sort(h_all[s0:e0])
                    return pa.table(
                        {
                            "doc_id": b.column("doc_id"),
                            "grams": pa.array(
                                [a.tolist() for a in arrs], pa.list_(pa.int64())
                            ),
                        }
                    )

                gdf = ds.map_batches(doc_arrays, batch_format="pyarrow").to_pandas()
                gmap_ref = ray.put(
                    {
                        int(i): np.asarray(g, dtype=np.int64)
                        for i, g in zip(gdf["doc_id"], gdf["grams"])
                    }
                )

                def verify_pairs(batch: pa.Table) -> pa.Table:
                    gm = ray.get(gmap_ref)
                    da = batch.column("doc_a").to_pylist()
                    db = batch.column("doc_b").to_pylist()
                    out_a, out_b, out_c = [], [], []
                    for x, y in zip(da, db):
                        A = gm.get(int(x))
                        Bb = gm.get(int(y))
                        if A is None or Bb is None or not len(A) or not len(Bb):
                            continue
                        if len(A) > len(Bb):
                            A, Bb = Bb, A
                        pos = np.searchsorted(Bb, A)
                        msk = pos < len(Bb)
                        ni = int((Bb[pos[msk]] == A[msk]).sum())
                        mn = len(A)
                        if ni * 10000 >= threshold_e4 * mn:
                            out_a.append(int(x))
                            out_b.append(int(y))
                            out_c.append(ni * 10000 // mn)
                    return pa.table(
                        {
                            "doc_a": pa.array(out_a, pa.int64()),
                            "doc_b": pa.array(out_b, pa.int64()),
                            "cont_e4": pa.array(out_c, pa.int64()),
                        }
                    )

                cand_dd = ray.data.from_arrow(
                    pa.Table.from_pandas(cd, preserve_index=False)
                ).repartition(max(1, min(default_buckets(), len(cd) // 2048)))
                return cand_dd.map_batches(verify_pairs, batch_format="pyarrow")
            # candidate set outgrew the driver broadcast bound: fall
            # through to the distributed pairwise partial-count plan below
            # (bit-identical output; previously an assert, which python -O
            # strips — an unbounded to_pandas would then hit the driver).

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        d, gh = _batch_distinct_grams(texts, n, pw)
        return pa.table(
            {
                "doc_id": pa.array(ids[d].astype(np.int64), pa.int64()),
                "g": pa.array(gh.view(np.int64), pa.int64()),
                "__b": pa.array(
                    (gh % np.uint64(B)).astype(np.int32), pa.int32()
                ),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        gh = g["g"].to_numpy()
        order = np.argsort(gh, kind="stable")
        (pa_a, pa_b), = _group_pairs(
            gh[order], [g["doc_id"].to_numpy()[order]]
        )
        if len(pa_a) == 0:
            return pd.DataFrame({"a": [], "b": [], "ni": []}).astype(
                {"a": "int64", "b": "int64", "ni": "int64"}
            )
        lo = np.minimum(pa_a, pa_b)
        hi = np.maximum(pa_a, pa_b)
        df = (
            pd.DataFrame({"a": lo, "b": hi})
            .value_counts()
            .reset_index(name="ni")
        )
        return df.astype({"a": "int64", "b": "int64", "ni": "int64"})

    pairs = (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(bucket_pairs, batch_format="pandas")
    ).materialize()

    # per-doc distinct-gram counts: doc-bounded (one int per doc)
    def doc_sizes(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        d, _gh = _batch_distinct_grams(texts, n, pw)
        sz = np.bincount(d, minlength=len(texts)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "sz": pa.array(sz, pa.int64()),
            }
        )

    sizes_ds = ds.map_batches(doc_sizes, batch_format="pyarrow", zero_copy_batch=True)
    n_docs = sizes_ds.count()
    assert n_docs <= size_broadcast_limit, (
        "above the broadcast bound, attach sizes via the distributed "
        "attach-by-key join — fixture path is "
        "the broadcast"
    )
    sz_df = sizes_ds.to_pandas()
    sz_k = np.sort(sz_df["doc_id"].to_numpy(np.int64))
    sz_v = sz_df.set_index("doc_id")["sz"].astype(np.int64).loc[sz_k].to_numpy()

    sz_ref = ray.put((sz_k, sz_v))  # broadcast once for the distributed fork

    def _verify_frame(a, b, cnt, sz_k, sz_v) -> pa.Table:
        # |A∩B| * 1e4 >= t_e4 * min(|A|,|B|), all-int; size lookup via
        # one sorted searchsorted gather (no per-row Python)
        mn = np.minimum(
            sz_v[np.searchsorted(sz_k, a)], sz_v[np.searchsorted(sz_k, b)]
        )
        ok = (mn > 0) & (cnt * 10000 >= threshold_e4 * mn)
        return pa.table(
            {
                "doc_a": pa.array(a[ok], pa.int64()),
                "doc_b": pa.array(b[ok], pa.int64()),
                "cont_e4": pa.array(cnt[ok] * 10000 // mn[ok], pa.int64()),
            }
        )

    # size-adaptive pair-sum: the per-bucket partials are intersection-
    # mass-scale; under the gate ONE driver groupby-sum + vectorized
    # verify replaces the pair-keyed second all-to-all and the verify
    # pass's plan launch. The distributed sum runs above the gate.
    if pairs.count() <= driver_pairs_max and not force_distributed:
        pdf = pairs.to_pandas()
        if not len(pdf):
            return pa.table(
                {
                    "doc_a": pa.array([], pa.int64()),
                    "doc_b": pa.array([], pa.int64()),
                    "cont_e4": pa.array([], pa.int64()),
                }
            )
        nidf = pdf.groupby(["a", "b"], as_index=False, sort=False)["ni"].sum()
        return _verify_frame(
            nidf["a"].to_numpy(np.int64),
            nidf["b"].to_numpy(np.int64),
            nidf["ni"].to_numpy(np.int64),
            sz_k,
            sz_v,
        )

    def add_pair_bucket(batch: pa.Table) -> pa.Table:
        a = batch.column("a").to_numpy(zero_copy_only=False).astype(np.uint64)
        b = batch.column("b").to_numpy(zero_copy_only=False).astype(np.uint64)
        pk = (
            ((a * np.uint64(0x9E3779B97F4A7C15)) ^ b) % np.uint64(B)
        ).astype(np.int32)
        return batch.append_column("__pk", pa.array(pk, pa.int32()))

    ni = (
        pairs.map_batches(add_pair_bucket, batch_format="pyarrow")
        .groupby("__pk")
        .map_groups(
            lambda g: g.groupby(["a", "b"], as_index=False)["ni"].sum(),
            batch_format="pandas",
        )
    )

    def verify(batch: pa.Table) -> pa.Table:
        szk, szv = ray.get(sz_ref)
        return _verify_frame(
            batch.column("a").to_numpy(zero_copy_only=False).astype(np.int64),
            batch.column("b").to_numpy(zero_copy_only=False).astype(np.int64),
            batch.column("ni").to_numpy(zero_copy_only=False).astype(np.int64),
            szk,
            szv,
        )

    return ni.map_batches(verify, batch_format="pyarrow")


# ------------------------------------------ duplicated substring spans --
def q_dup_spans(
    sf_dir: str,
    k: int = 30,
    n_buckets: int | None = None,
    driver_hits_max: int = 5_000_000,
    force_distributed: bool = False,
):
    """EXACT cross-document duplicated-substring SPANS — the
    substring-level dedup signal of Lee et al. 2022 ("Deduplicating
    Training Data Makes Language Models Better", arXiv:2107.06499):
    every maximal character range of a document covered by k-char
    windows that appear verbatim in at least one OTHER document.
    Chunk/paragraph dedup (q_chunk_dedup) misses copies that straddle
    chunk boundaries; this operator marks them exactly, at any offset.

    Plan (two bounded shuffles, nothing corpus-sized on the driver):
    1. per batch, every k-char window hashed VECTORIZED via the shared
       `_batch_window_hashes` kernel (ONE codepoint concat +
       sliding_window_view + uint64 polynomial dot for the whole
       batch); emit (h, doc_id, pos) ints only;
    2. ONE shuffle on h % B co-locates each window's posting; windows
       whose posting spans >= 2 distinct docs are duplicated — emit
       their (doc_id, pos) hits (output-scale from here on);
    3. hits shuffle on doc_id % B; per doc, sorted window starts merge
       into maximal spans (next_start <= prev_start + k) with one
       vectorized cumsum pass — the gaps-and-islands rule the DuckDB
       lag()/SUM() twin applies verbatim.
    Windows ride as uint64 polynomial hashes (FNV-prime base), never
    strings, through the all-to-all; a 64-bit collision could bridge
    two unrelated windows. As in q_containment_neardup, fixed-base
    polynomial collisions are deterministic rather than random
    (constructible in principle; random-model rate ~1e-19 at fixture
    gram counts) — the twin hash-matched at both test SFs. Returns
    (doc_id, span_start, span_len), 0-based."""
    B = n_buckets or default_buckets(per_cpu=8, hi=1024)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)
    pw = _poly_powers(k)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        d, pos, h = _batch_window_hashes(texts, k, pw)
        return pa.table(
            {
                "h": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids[d].astype(np.int64), pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "__b": pa.array((h % np.uint64(B)).astype(np.int32), pa.int32()),
            }
        )

    def dup_hits(g: pd.DataFrame) -> pd.DataFrame:
        nun = g.groupby("h")["doc_id"].transform("nunique")
        out = g.loc[nun >= 2, ["doc_id", "pos"]]
        if out.empty:
            return pd.DataFrame({"doc_id": [], "pos": []}).astype("int64")
        return out.reset_index(drop=True)

    hits = (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(dup_hits, batch_format="pandas")
    ).materialize()

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__db", pa.array((d % B).astype(np.int32), pa.int32())
        )

    def merge_spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"])
        doc = g["doc_id"].to_numpy()
        pos = g["pos"].to_numpy()
        new = np.empty(len(g), bool)
        new[0] = True
        new[1:] = (doc[1:] != doc[:-1]) | (pos[1:] - pos[:-1] > k)
        idx = np.flatnonzero(new)
        last = np.r_[idx[1:] - 1, len(pos) - 1]
        return pd.DataFrame(
            {
                "doc_id": doc[idx],
                "span_start": pos[idx],
                "span_len": pos[last] + k - pos[idx],
            }
        )

    # size-adaptive span merge: hits are removal-mass-scale (already a
    # driver-safe trickle at small corpora), so under the gate the
    # gaps-and-islands merge is one driver pass with the SAME kernel
    # (it handles doc transitions itself — the doc%B shuffle only
    # partitioned its input); the keyed shuffle runs above the gate.
    if hits.count() <= driver_hits_max and not force_distributed:
        hdf = hits.to_pandas()
        if not len(hdf):
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "span_start": pa.array([], pa.int64()),
                    "span_len": pa.array([], pa.int64()),
                }
            )
        return pa.Table.from_pandas(
            merge_spans(hdf).astype("int64"), preserve_index=False
        )

    return (
        hits.map_batches(add_doc_bucket, batch_format="pyarrow")
        .groupby("__db")
        .map_groups(merge_spans, batch_format="pandas")
    )


# ------------------------------------------------ bigram association ----
def q_bigram_lift(sf_dir: str, min_count: int = 5):
    """Bigram ASSOCIATION scores — integer lift
    ``(10^4 * N * c_xy) // (c_x * c_y)`` for every bigram with count >=
    ``min_count`` — the collocation / phrase-mining statistic (the
    integer-exact stand-in for PMI: lift is PMI's argument before the
    log, so the ranking is identical) that upgrades q_bigram_count's raw
    counts into "are these tokens together MORE than chance".

    Scale shape: ONE corpus pass emits unigram and bigram partial counts
    together (polars explode + group_by per batch, zero Python per row);
    one vocab-bounded groupby-sum shuffles partials, never token
    occurrences. The unigram table is vocab-sized by definition, so it
    broadcasts; lift is computed over the vocab-bounded bigram rows with
    Python-int arithmetic (N * c_xy overflows int64 at 100-TB token
    counts — the DuckDB twin needs HUGEINT for the same reason)."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        t = pl.from_arrow(batch.column("text")).str.split(" ")
        uni = (
            pl.select(w=t)
            .explode("w")
            .group_by("w")
            .len()
            .select(key=pl.col("w"), is_bigram=pl.lit(0, pl.Int32),
                    cnt=pl.col("len").cast(pl.Int64))
        )
        bi = (
            pl.select(a=t, b=t.list.shift(-1))
            .explode(["a", "b"])
            .filter(pl.col("b").is_not_null())
            .select(key=pl.col("a") + " " + pl.col("b"))
            .group_by("key")
            .len()
            .select(key=pl.col("key"), is_bigram=pl.lit(1, pl.Int32),
                    cnt=pl.col("len").cast(pl.Int64))
        )
        return pl.concat([uni, bi]).to_arrow()

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["key", "is_bigram"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        # vocab-bounded aggregate, consumed twice below (unigram pull +
        # bigram lift map) — materializing it pins the corpus to ONE pass
        .materialize()
    )
    # unigram side: vocab-bounded by definition — the only driver contact
    uni_tbl = counts.filter(expr="is_bigram == 0").select_columns(
        ["key", "cnt"]
    ).to_pandas()
    c_uni = dict(zip(uni_tbl["key"], uni_tbl["cnt"].astype(int)))
    n_total = int(uni_tbl["cnt"].sum())
    uni_ref = ray.put(c_uni)

    def lift(batch: pa.Table) -> pa.Table:
        cu = ray.get(uni_ref)
        keys = batch.column("key").to_pylist()
        cnt = batch.column("cnt").to_numpy(zero_copy_only=False)
        out_k, out_c, out_l = [], [], []
        for kk, c in zip(keys, cnt):
            if c < min_count:
                continue
            w1, w2 = kk.split(" ")
            out_k.append(kk)
            out_c.append(int(c))
            # Python ints: exact at any N (no int64 overflow)
            out_l.append((10_000 * n_total * int(c)) // (cu[w1] * cu[w2]))
        return pa.table(
            {
                "bigram": pa.array(out_k, pa.string()),
                "cnt": pa.array(out_c, pa.int64()),
                "lift_e4": pa.array(out_l, pa.int64()),
            }
        )

    return counts.filter(expr="is_bigram == 1").map_batches(
        lift, batch_format="pyarrow"
    )


# ------------------------------------------ duplicated-span REMOVAL -----
def q_dup_span_removal(
    sf_dir: str,
    k: int = 30,
    n_buckets: int | None = None,
    span_broadcast_limit: int = 2_000_000,
    driver_hits_max: int = 5_000_000,
    force_distributed: bool = False,
):
    """Substring-dedup REMOVAL (the apply step of Lee et al. 2022,
    arXiv:2107.06499 §3: keep ONE occurrence of every duplicated
    substring corpus-wide, cut the rest): for each k-char window
    appearing verbatim in >= 2 distinct documents, the globally FIRST
    occurrence (lexicographic min (doc_id, pos)) is the keeper; every
    other occurrence is marked, marks merge into maximal spans
    (q_dup_spans' gaps-and-islands rule), and the spans are cut out of
    the text. Returns (doc_id, clean_text) for EVERY document.

    Plan: the q_dup_spans posting layout end-to-end — shared
    `_batch_window_hashes` explode, ONE posting shuffle on h % B
    (per-gram owner selection is a vectorized first-of-run inside the
    bucket), hits shuffle on doc % B for the span merge. The cut step
    broadcasts the span table under ``span_broadcast_limit`` rows and
    applies per-doc slicing in a streaming map (Python only for the
    affected docs); above the bound the documented fallback is the
    spans⋈documents hash join + groupby(doc) reconstruction. Span
    volume is the published algorithm's removal mass — at web dup
    rates it is corpus-sized, which is exactly when the join fork
    applies."""
    B = n_buckets or default_buckets(per_cpu=8, hi=1024)
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)
    pw = _poly_powers(k)

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        d, pos, h = _batch_window_hashes(texts, k, pw)
        return pa.table(
            {
                "h": pa.array(h.view(np.int64), pa.int64()),
                "doc_id": pa.array(ids[d].astype(np.int64), pa.int64()),
                "pos": pa.array(pos, pa.int64()),
                "__b": pa.array((h % np.uint64(B)).astype(np.int32), pa.int32()),
            }
        )

    def removal_hits(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["h", "doc_id", "pos"], kind="mergesort")
        h = g["h"].to_numpy()
        d = g["doc_id"].to_numpy()
        new_run = np.empty(len(g), bool)
        new_run[0] = True
        new_run[1:] = h[1:] != h[:-1]
        run_id = np.cumsum(new_run) - 1
        # distinct docs per run: count doc transitions within runs
        doc_change = np.empty(len(g), bool)
        doc_change[0] = True
        doc_change[1:] = new_run[1:] | (d[1:] != d[:-1])
        ndocs = np.bincount(run_id[doc_change])
        dup_run = ndocs >= 2
        # keeper = first row of each run (lexicographic min (doc, pos))
        mask = dup_run[run_id] & ~new_run
        out = g.loc[mask, ["doc_id", "pos"]]
        if out.empty:
            return pd.DataFrame({"doc_id": [], "pos": []}).astype("int64")
        return out.reset_index(drop=True)

    hits = (
        ds.map_batches(explode, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(removal_hits, batch_format="pandas")
    ).materialize()

    def add_doc_bucket(batch: pa.Table) -> pa.Table:
        d = batch.column("doc_id").to_numpy(zero_copy_only=False)
        return batch.append_column(
            "__db", pa.array((d % B).astype(np.int32), pa.int32())
        )

    def merge_spans(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["doc_id", "pos"])
        doc = g["doc_id"].to_numpy()
        pos = g["pos"].to_numpy()
        new = np.empty(len(g), bool)
        new[0] = True
        new[1:] = (doc[1:] != doc[:-1]) | (pos[1:] - pos[:-1] > k)
        idx = np.flatnonzero(new)
        last = np.r_[idx[1:] - 1, len(pos) - 1]
        return pd.DataFrame(
            {
                "doc_id": doc[idx],
                "s": pos[idx],
                "e": pos[last] + k,
            }
        )

    # size-adaptive span merge (q_dup_spans' rule): one driver pass
    # under the gate — the doc%B shuffle only partitioned the kernel's
    # input and the span table heads to the driver broadcast anyway
    if hits.count() <= driver_hits_max and not force_distributed:
        hdf = hits.to_pandas()
        sp = (
            merge_spans(hdf).astype("int64")
            if len(hdf)
            else pd.DataFrame(
                {
                    "doc_id": pd.Series(dtype=np.int64),
                    "s": pd.Series(dtype=np.int64),
                    "e": pd.Series(dtype=np.int64),
                }
            )
        )
        assert len(sp) <= span_broadcast_limit
    else:
        spans_ds = (
            hits.map_batches(add_doc_bucket, batch_format="pyarrow")
            .groupby("__db")
            .map_groups(merge_spans, batch_format="pandas")
            .materialize()
        )
        n_spans = spans_ds.count()
        assert n_spans <= span_broadcast_limit, (
            "above the broadcast bound, attach spans via the documented "
            "spans join documents hash join + groupby(doc) reconstruction"
        )
        sp = spans_ds.to_pandas()
    span_map: dict[int, list] = {}
    for doc, s, e in zip(
        sp["doc_id"].astype(int), sp["s"].astype(int), sp["e"].astype(int)
    ):
        span_map.setdefault(doc, []).append((s, e))
    for v in span_map.values():
        v.sort()
    span_ref = ray.put(span_map)

    def cut(batch: pa.Table) -> pa.Table:
        sm = ray.get(span_ref)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out = []
        for i, t in zip(ids, texts):
            sp_list = sm.get(int(i))
            if not sp_list:
                out.append(t or "")
                continue
            t = t or ""
            pieces, prev = [], 0
            for s, e in sp_list:
                pieces.append(t[prev:s])
                prev = e
            pieces.append(t[prev:])
            out.append("".join(pieces))
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "clean_text": pa.array(out, pa.string()),
            }
        )

    return ds.map_batches(cut, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------ ANN range search ------
def q_ann_range(sf_dir: str, eval_mod: int = 41, threshold_e4: int = 3500):
    """RANGE (radius) similarity search: ALL (train vector, query)
    pairs with cosine >= threshold — top-k's fixed-radius sibling
    (dedup-by-similarity, recall-set construction, near-neighbor
    counting all want every match, not the best k). Query set =
    vec_id % ``eval_mod`` == 0, as in q_semantic_decontaminate.

    Scale layout: the query matrix broadcasts once (queries are
    request-sized by definition); the corpus side streams through ONE
    map_batches float64 matmul + threshold mask per batch — no
    shuffle, no corpus-side materialization, output rows only. Same
    e4-rounding parity recipe as the decontaminate twin (np.round vs
    DuckDB round absorbs last-ulp summation-order drift except exactly
    at .5 boundaries; hash-matched at both test SFs)."""
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding"], split=True)

    def eval_rows(batch: pa.Table) -> pa.Table:
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        return batch.take(pa.array(np.flatnonzero(ids % eval_mod == 0)))

    ev_df = (
        ds.map_batches(eval_rows, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()
    ).sort_values("vec_id")
    ev_ids = ev_df["vec_id"].to_numpy()
    ev_mat = l2_normalize(as_matrix(ev_df["embedding"].tolist()).astype(np.float64))
    ev_ref = ray.put((ev_ids, ev_mat))

    def flag(batch: pa.Table) -> pa.Table:
        eids, emat = ray.get(ev_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        tr_mask = ids % eval_mod != 0
        empty = pa.table(
            {
                "vec_id": pa.array([], pa.int64()),
                "query_id": pa.array([], pa.int64()),
                "cos_sim_e4": pa.array([], pa.int64()),
            }
        )
        if not tr_mask.any():
            return empty
        ids = ids[tr_mask]
        mat = l2_normalize(
            as_matrix(
                batch.column("embedding").take(
                    pa.array(np.flatnonzero(tr_mask))
                ).to_pylist()
            ).astype(np.float64)
        )
        e4 = np.round((mat @ emat.T) * 10000).astype(np.int64)
        ti, qi = np.nonzero(e4 >= threshold_e4)
        if not len(ti):
            return empty
        return pa.table(
            {
                "vec_id": pa.array(ids[ti], pa.int64()),
                "query_id": pa.array(eids[qi], pa.int64()),
                "cos_sim_e4": pa.array(e4[ti, qi], pa.int64()),
            }
        )

    return ds.map_batches(flag, batch_format="pyarrow", zero_copy_batch=True)


# ------------------------------------------------ char-entropy quality --
def q_entropy(sf_dir: str):
    """Per-document character Shannon entropy in fixed-point e4 bits —
    the information-density quality signal next to a zlib
    compression ratio (low entropy = repetitive
    boilerplate, abnormally high = binary junk / encoding damage).
    Pure streaming map, zero shuffle. Formula is the one-pass identity
    H = log2(N) - Σ c·log2(c) / N over the doc's codepoint counts;
    e4 rounding absorbs last-ulp summation-order drift vs the DuckDB
    ``entropy()`` twin (same parity recipe as the cosine e4 ops;
    hash-matched at both test SFs)."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def ent(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        texts = batch.column("text").to_pylist()
        out = np.zeros(len(texts), np.int64)
        for i, t in enumerate(texts):
            cp = np.frombuffer((t or "").encode("utf-32-le"), np.uint32)
            if not len(cp):
                continue
            cnt = np.unique(cp, return_counts=True)[1].astype(np.float64)
            N = cnt.sum()
            H = np.log2(N) - (cnt * np.log2(cnt)).sum() / N
            out[i] = int(np.round(H * 10000))
        return pa.table(
            {
                "doc_id": pa.array(ids.astype(np.int64), pa.int64()),
                "entropy_e4": pa.array(out, pa.int64()),
            }
        )

    return ds.map_batches(ent, batch_format="pyarrow", zero_copy_batch=True)


def q_lm_score(
    sf_dir: str,
    V: int = 129,
    keep_cols: tuple = (),
    driver_counts_max: int = 2_000_000,
    force_distributed: bool = False,
):
    """Per-doc mean negative log-likelihood under a char-bigram LM
    trained ON the corpus itself, Laplace-smoothed — the perplexity
    quality filter of CCNet (Wenzek et al. 2020 §3.3) with the bigram
    LM standing in for the 5-gram KenLM model; the dataflow is the real
    one: ONE distributed count pass -> model broadcast (V² int64 =
    ~130 KB via ray.put, read once per task) -> one vectorized scoring
    pass. Codepoints clamp at 128 ('other' bucket) so V is fixed.

    nll = Σ [ln(rowcount_a + V) - ln(count_ab + 1)] / n_bigrams, e4
    fixed-point; every bigram scored was seen in training (same
    corpus), so the DuckDB twin's count join never misses. e4 rounding
    absorbs summation-order ulp drift (q_entropy's parity recipe).

    Scale shape: both passes are batch-wide vectorized (ONE utf-32
    codepoint concat per batch, boundary-masked bigram indices — no
    Python per doc); per-block count partials are V²-bounded, so under
    ``driver_counts_max`` documents (exact parquet metadata) they
    combine in one driver bincount, above it in a key-bounded (≤ V²)
    distributed groupby. Per-doc score sums are one np.bincount segment
    reduction (in-order, doc-local — no batch-wide cumsum precision
    loss). Docs shorter than 2 chars have no bigrams and are excluded
    (the twin's GROUP BY does the same). ``keep_cols`` are carried
    through to the output unchanged (e.g. lang for per-language
    bucketing). Count forks equivalence-tested."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    ds = _pq(
        sf_dir, "documents", columns=["doc_id", "text"] + list(keep_cols),
        split=True,
    )

    def _bigram_idx(texts: list):
        """Batch-wide (lens, bigram a*V+b per position, in-doc mask):
        one codepoint concat, one searchsorted boundary mask — the
        _batch_window_hashes idiom at n=2 with the index replacing the
        polynomial hash."""
        enc = [(t or "").encode("utf-32-le") for t in texts]
        lens = np.array([len(e) >> 2 for e in enc], np.int64)
        cp = np.minimum(
            np.frombuffer(b"".join(enc), np.uint32), V - 1
        ).astype(np.int64)
        if len(cp) < 2:
            return lens, np.empty(0, np.int64), np.empty(0, bool)
        idx = cp[:-1] * V + cp[1:]
        ends = np.cumsum(lens)
        p = np.arange(len(idx), dtype=np.int64)
        doc_of = np.searchsorted(ends, p, side="right")
        valid = p <= ends[doc_of] - 2  # bigram fully inside its doc
        return lens, idx, valid

    def partial_counts(batch: pa.Table) -> pa.Table:
        _lens, idx, valid = _bigram_idx(batch.column("text").to_pylist())
        if not len(idx):
            return pa.table(
                {"idx": pa.array([], pa.int64()), "c": pa.array([], pa.int64())}
            )
        c = np.bincount(idx[valid], minlength=V * V)
        nz = np.nonzero(c)[0]
        return pa.table(
            {
                "idx": pa.array(nz, pa.int64()),
                "c": pa.array(c[nz], pa.int64()),
            }
        )

    docs_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows

    parts = ds.map_batches(partial_counts, batch_format="pyarrow")
    C = np.zeros(V * V, np.int64)
    if docs_rows <= driver_counts_max and not force_distributed:
        pdf = parts.to_pandas()  # <= V² rows PER BLOCK — gate-bounded
        np.add.at(
            C, pdf["idx"].to_numpy(np.int64), pdf["c"].to_numpy(np.int64)
        )
    else:
        counts = (
            parts.groupby("idx")
            .aggregate(Sum("c", alias_name="c"))
            .to_pandas()  # <= V*V rows, corpus-size-independent
        )
        C[counts["idx"].to_numpy()] = counts["c"].to_numpy()
    C2 = C.reshape(V, V)
    log_num = np.log(C2 + 1.0)  # ln(count_ab + 1)
    log_den = np.log(C2.sum(axis=1) + float(V))  # ln(rowcount_a + V)
    model = ray.put((log_den[:, None] - log_num).ravel())  # per-bigram nll LUT

    def score(batch: pa.Table) -> pa.Table:
        lut = ray.get(model)
        lens, idx, valid = _bigram_idx(batch.column("text").to_pylist())
        nbig = lens - 1
        keep = np.nonzero(lens >= 2)[0]
        if len(idx):
            ends = np.cumsum(lens)
            p = np.arange(len(idx), dtype=np.int64)
            doc_of = np.searchsorted(ends, p, side="right")
            s = np.bincount(
                doc_of[valid], weights=lut[idx[valid]], minlength=len(lens)
            )
        else:
            s = np.zeros(len(lens))
        nll = np.zeros(len(lens), np.int64)
        nll[keep] = np.round(
            s[keep] / nbig[keep] * 10_000
        ).astype(np.int64)
        out = batch.select(["doc_id"] + list(keep_cols)).take(
            pa.array(keep, pa.int64())
        )
        return out.append_column(
            "nll_e4", pa.array(nll[keep], pa.int64())
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


# Gopher A1.1's "contains >= 2 of" stop list (Rae et al. 2021) — fixed
# here so the DuckDB twin can inline the identical literal set.
GOPHER_STOP8 = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_flags(text_col) -> pa.Table:
    """q_gopher_gate's exact rule kernel: Arrow string column in,
    Arrow table (n_words, wchars, n_sym, n_alpha, n_stop, keep) out.
    All ratios cross-multiplied int64 — see q_gopher_gate."""
    import polars as pl

    s = pl.from_arrow(text_col).rename("t")
    toks = s.str.extract_all(r"\S+")
    d = pl.select(
        n_words=toks.list.len().cast(pl.Int64),
        wchars=s.str.count_matches(r"\S").cast(pl.Int64),
        n_sym=(
            s.str.count_matches("#", literal=True)
            + s.str.count_matches(r"\.\.\.")
        ).cast(pl.Int64),
        n_alpha=toks.list.eval(pl.element().str.contains("[A-Za-z]"))
        .list.sum()
        .fill_null(0)
        .cast(pl.Int64),
        n_stop=toks.list.eval(
            pl.element().str.to_lowercase().is_in(list(GOPHER_STOP8))
        )
        .list.sum()
        .fill_null(0)
        .cast(pl.Int64),
    )
    return d.with_columns(
        keep=(
            (pl.col("n_words") >= 8)
            & (pl.col("n_words") <= 50_000)
            & (2 * pl.col("n_words") <= pl.col("wchars"))
            & (pl.col("wchars") <= 12 * pl.col("n_words"))
            & (10 * pl.col("n_sym") <= pl.col("n_words"))
            & (5 * pl.col("n_alpha") >= 4 * pl.col("n_words"))
            & (pl.col("n_stop") >= 2)
        ).cast(pl.Int64)
    ).to_arrow()


def q_gopher_gate(sf_dir: str):
    """Gopher/MassiveText rule-based quality gate (Rae et al. 2021,
    Appendix A1.1), integer-exact so it hash-checks against the DuckDB
    twin. Per doc: whitespace-token count, non-whitespace char count,
    symbol count ('#' + non-overlapping '...'), count of tokens
    containing an alphabetic char, count of tokens in the 8-word Gopher
    stop set — then the composite keep flag:

      R1 word count in [8, 50000]
      R2 mean word length in [2, 12]   (2*n_words <= wchars <= 12*n_words)
      R3 symbol-to-word ratio <= 0.1   (10*n_sym <= n_words)
      R4 >= 80% of words alphabetic    (5*n_alpha >= 4*n_words)
      R5 >= 2 stop-set hits

    All ratios are cross-multiplied so no float ever crosses the
    comparison; fully vectorized (polars regex + list kernels), pure
    streaming map, zero shuffle."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])

    def gate(batch: pa.Table) -> pa.Table:
        d = gopher_flags(batch.column("text"))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": d.column("n_words"),
                "wchars": d.column("wchars"),
                "n_sym": d.column("n_sym"),
                "n_alpha": d.column("n_alpha"),
                "n_stop": d.column("n_stop"),
                "keep": d.column("keep"),
            }
        )

    return ds.map_batches(gate, batch_format="pyarrow", zero_copy_batch=True)


def q_dsir_weights(sf_dir: str, target_lang: str = "en", V: int = 129):
    """DSIR importance weights (Xie et al. 2023, Data Selection via
    Importance Resampling): per-doc log-likelihood ratio between a
    TARGET-domain bag-of-features model (docs with lang == target_lang)
    and the SOURCE model (the whole corpus), with char bigrams standing
    in for DSIR's hashed word n-grams. The dataflow is the production
    one: ONE count pass over the corpus emitting (bigram, c_source,
    c_target) partials — the shuffle is key-bounded at V² regardless of
    corpus size — then both Laplace-smoothed models are derived on the
    driver (2x V² int64 ≈ 260 KB) and broadcast once via ray.put for a
    single vectorized scoring pass.

      w(doc) = Σ_bigrams [ (ln(c_t+1) - ln(r_t+V)) - (ln(c_s+1) - ln(r_s+V)) ]
               / n_bigrams, e4 fixed-point

    Bigrams absent from the target model contribute ln(1)=0 / ln(V)
    exactly as the twin's COALESCE(.,0) does; e4 rounding absorbs
    summation-order ulp drift (q_lm_score's parity recipe)."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text", "lang"], split=True)

    def _cp(t: str) -> np.ndarray:
        cp = np.frombuffer((t or "").encode("utf-32-le"), np.uint32)
        return np.minimum(cp, V - 1).astype(np.int64)

    def partial_counts(batch: pa.Table) -> pa.Table:
        langs = batch.column("lang").to_pylist()
        src, tgt = [], []
        for t, lg in zip(batch.column("text").to_pylist(), langs):
            cp = _cp(t)
            if len(cp) >= 2:
                bg = cp[:-1] * V + cp[1:]
                src.append(bg)
                if lg == target_lang:
                    tgt.append(bg)
        if not src:
            return pa.table(
                {
                    "idx": pa.array([], pa.int64()),
                    "cs": pa.array([], pa.int64()),
                    "ct": pa.array([], pa.int64()),
                }
            )
        cs = np.bincount(np.concatenate(src), minlength=V * V)
        ct = (
            np.bincount(np.concatenate(tgt), minlength=V * V)
            if tgt
            else np.zeros(V * V, np.int64)
        )
        nz = np.nonzero(cs)[0]  # ct's support is a subset of cs's
        return pa.table(
            {
                "idx": pa.array(nz, pa.int64()),
                "cs": pa.array(cs[nz], pa.int64()),
                "ct": pa.array(ct[nz], pa.int64()),
            }
        )

    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow")
        .groupby("idx")
        .aggregate(Sum("cs", alias_name="cs"), Sum("ct", alias_name="ct"))
        .to_pandas()  # <= V*V rows, corpus-size-independent
    )
    CS = np.zeros(V * V, np.int64)
    CT = np.zeros(V * V, np.int64)
    CS[counts["idx"].to_numpy()] = counts["cs"].to_numpy()
    CT[counts["idx"].to_numpy()] = counts["ct"].to_numpy()
    CS2, CT2 = CS.reshape(V, V), CT.reshape(V, V)
    # per-bigram log term of each model, row-normalized with +V smoothing
    lt = np.log(CT2 + 1.0) - np.log(CT2.sum(axis=1) + float(V))[:, None]
    ls = np.log(CS2 + 1.0) - np.log(CS2.sum(axis=1) + float(V))[:, None]
    model = ray.put(lt - ls)

    def score(batch: pa.Table) -> pa.Table:
        ratio = ray.get(model)
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_id, out_w = [], []
        for i, t in enumerate(batch.column("text").to_pylist()):
            cp = _cp(t)
            if len(cp) < 2:
                continue
            s = ratio[cp[:-1], cp[1:]].sum()
            out_id.append(int(ids[i]))
            out_w.append(int(np.round(s / (len(cp) - 1) * 10_000)))
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "dsir_e4": pa.array(out_w, pa.int64()),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def q_minhash_sig(sf_dir: str, n_perms: int = 16, P: int = 1_000_000_007):
    """MinHash signatures over distinct whitespace-word sets (Broder
    1997), HASH-CHECKED end-to-end against a DuckDB twin. Word hash
    is a 31-base Horner fold of codepoints mod P seeded at 7; permutation j
    is the affine map (a_j*h + b_j) mod P with a_j, b_j derived from j
    by fixed integer formulas, so the SQL twin reconstructs every
    constant. sig[doc, j] = min over the doc's DISTINCT words.

    Vectorized: one padded-matrix Horner pass per batch (no per-word
    Python), then an (n_words x n_perms) affine map + np.minimum.at
    segment-min per doc. Pure streaming map, zero shuffle; int64 never
    overflows (a_j, h < P = 1e9+7, so a_j*h + b_j < 2^63). Docs with no
    words emit no rows (the twin's unnest does the same)."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    j = np.arange(n_perms, dtype=np.int64)
    A = (2654435761 * (j + 1)) % P
    Bc = (40503 * (j + 1) + 17) % P

    def sig(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.extract_all(r"\S+").list.unique()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        counts = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        flat = toks.explode().drop_nulls()
        words = flat.to_list()
        if not words:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "perm": pa.array([], pa.int64()),
                    "sig": pa.array([], pa.int64()),
                }
            )
        # padded-matrix Horner: h = fold(acc*31 + cp) mod P, acc0 = 7
        maxlen = max(len(w) for w in words)
        mat = np.zeros((len(words), maxlen), np.int64)
        lens = np.empty(len(words), np.int64)
        for i, w in enumerate(words):
            cp = np.frombuffer(w.encode("utf-32-le"), np.uint32)
            mat[i, : len(cp)] = cp
            lens[i] = len(cp)
        h = np.full(len(words), 7, np.int64)
        for col in range(maxlen):
            active = lens > col
            h[active] = (h[active] * 31 + mat[active, col]) % P
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        vals = (h[:, None] * A[None, :] + Bc[None, :]) % P
        out = np.full((len(ids), n_perms), P, np.int64)
        np.minimum.at(out, doc_idx, vals)
        nz = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(np.repeat(ids[nz], n_perms), pa.int64()),
                "perm": pa.array(np.tile(j, int(nz.sum())), pa.int64()),
                "sig": pa.array(out[nz].ravel(), pa.int64()),
            }
        )

    return ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True)


def q_simhash_sig(sf_dir: str, n_bits: int = 32):
    """SimHash signatures over distinct whitespace-word sets (Charikar
    2002), HASH-CHECKED against a DuckDB twin. Word hash =
    q_minhash_sig's Horner fold mod 1e9+7, widened to 61 bits by one
    affine step mod 2^61-1; signature bit t is 1 iff the +1/-1 majority
    over the doc's DISTINCT words at bit t is strictly positive.

    Vectorized: padded-matrix Horner, then an (n_words x n_bits) bit
    unpack + np.add.at segment majority. Pure streaming map, zero
    shuffle. Docs with no words emit no rows."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"])
    P = 1_000_000_007
    M61 = 2305843009213693951
    t = np.arange(n_bits, dtype=np.int64)

    def sig(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.extract_all(r"\S+").list.unique()
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        counts = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        words = toks.explode().drop_nulls().to_list()
        if not words:
            return pa.table(
                {
                    "doc_id": pa.array([], pa.int64()),
                    "simhash": pa.array([], pa.int64()),
                }
            )
        maxlen = max(len(w) for w in words)
        mat = np.zeros((len(words), maxlen), np.int64)
        lens = np.empty(len(words), np.int64)
        for i, w in enumerate(words):
            cp = np.frombuffer(w.encode("utf-32-le"), np.uint32)
            mat[i, : len(cp)] = cp
            lens[i] = len(cp)
        h = np.full(len(words), 7, np.int64)
        for col in range(maxlen):
            active = lens > col
            h[active] = (h[active] * 31 + mat[active, col]) % P
        h2 = (h * 48271) % M61
        pm = (((h2[:, None] >> t[None, :]) & 1) * 2 - 1).astype(np.int64)
        doc_idx = np.repeat(np.arange(len(ids)), counts)
        maj = np.zeros((len(ids), n_bits), np.int64)
        np.add.at(maj, doc_idx, pm)
        simhash = ((maj > 0).astype(np.int64) << t[None, :]).sum(axis=1)
        nz = counts > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[nz], pa.int64()),
                "simhash": pa.array(simhash[nz], pa.int64()),
            }
        )

    return ds.map_batches(sig, batch_format="pyarrow", zero_copy_batch=True)


def q_aspect_bucket(sf_dir: str):
    """Aspect-ratio bucketing for image-training batch assembly (the
    NovelAI/SDXL bucketing scheme: every image joins the ladder bucket
    nearest its aspect ratio so batches need no distorting resize).
    Image dims are synthesized from the part table by a fixed template
    (the established build->kernel->check pattern: the DuckDB twin
    reconstructs the dims by string-free integer arithmetic and applies
    the same argmin rule, so what is hash-checked is the bucketing
    KERNEL). Nearest bucket by |100*w - r*h| with ties to the smaller
    r — cross-multiplied, no float ever computed. Pure streaming map,
    zero shuffle; the same kernel serves the real corpus table via
    (w, h) columns."""
    ds = _pq(sf_dir, "part", columns=["p_partkey"])
    ladder = np.array([50, 75, 100, 133, 150, 200], np.int64)

    def bucket(batch: pa.Table) -> pa.Table:
        pk = batch.column("p_partkey").to_numpy(zero_copy_only=False)
        w = 64 + (pk % 13) * 32
        h = 64 + (pk % 7) * 48
        # argmin over the ladder; ladder is ascending so np.argmin's
        # first-match tie-break IS the smaller-r rule
        diff = np.abs(100 * w[:, None] - ladder[None, :] * h[:, None])
        b = ladder[np.argmin(diff, axis=1)]
        return pa.table(
            {
                "image_id": pa.array(pk.astype(np.int64), pa.int64()),
                "w": pa.array(w.astype(np.int64), pa.int64()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
                "bucket_r_e2": pa.array(b, pa.int64()),
            }
        )

    return ds.map_batches(bucket, batch_format="pyarrow", zero_copy_batch=True)


def q_hits(
    sf_dir: str,
    broadcast_limit: int = 2_000_000,
    driver_edges_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """HITS hubs & authorities (Kleinberg, JACM 1999) over q_pagerank's
    deterministic customer link graph — the third link-analysis member
    (with PageRank and BFS) of the crawl-prioritization family: a
    crawler boosts authority pages for fetch and hub pages for
    DISCOVERY. Two power-iteration rounds, all int64 fixed-point:
    instead of L2 normalization (float, summation-order-dependent),
    each round rescales by the GLOBAL MAX to e6 with floor division —
    the DuckDB unrolled twin applies the identical rule, so the check
    is bit-exact.

      a1 = in-cnt sums            -> a1s = a1*10^6 // max(a1)
      h1[u] = Σ_{u->v} cnt*a1s[v] -> h1s = h1*10^6 // max(h1)
      a2[v] = Σ_{u->v} cnt*h1s[u] -> a2s = a2*10^6 // max(a2)

    Output (custkey, auth_e6, hub_e6). Scale shape is q_opic's
    size-adaptive triple fork (gates on EXACT parquet row counts, no
    scan): edges pre-aggregate to (src, dst, cnt).
    - |orders| <= driver_edges_max AND |nodes| <= broadcast_limit:
      per-block edge partials combine in one vectorized driver pass
      and the three spreads are pure int64 numpy — zero per-round Ray
      jobs (profiled 5.1 s -> ~1 s at sf0.1).
    - |nodes| <= broadcast_limit only: the score vector rides ray.put;
      per round ONE map_batches over the edges Dataset + a groupby-sum.
    - else (or force_distributed): the vector stays a Dataset and both
      joins are distributed hash joins. All forks equivalence-tested."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Max, Sum

    cust = pq_mod.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_nodes = cust.num_rows
    nodes = cust.column("c_custkey").to_numpy()
    E6 = np.int64(10**6)

    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        dst = batch.column("o_orderkey").to_numpy(zero_copy_only=False) % n_nodes
        key = src.astype(np.int64) * n_nodes + dst
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "src": pa.array((u // n_nodes).astype(np.int64), pa.int64()),
                "dst": pa.array((u % n_nodes).astype(np.int64), pa.int64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    orders_rows = pq_mod.ParquetFile(
        os.path.join(sf_dir, "orders.parquet")
    ).metadata.num_rows

    if (
        orders_rows <= driver_edges_max
        and n_nodes <= broadcast_limit
        and not force_distributed
    ):
        # driver-combine fork (q_opic's): per-block edge partials total
        # <= orders_rows rows — bounded by the gate; spreads are pure
        # int64 numpy so all three rounds cost zero Ray jobs.
        parts = orders.map_batches(
            to_edges, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        key = parts["src"].to_numpy() * n_nodes + parts["dst"].to_numpy()
        u, inv = np.unique(key, return_inverse=True)
        cnt = np.zeros(len(u), np.int64)
        np.add.at(cnt, inv, parts["cnt"].to_numpy())
        src = (u // n_nodes).astype(np.int64)
        dst = (u % n_nodes).astype(np.int64)

        def spread_np(vec: np.ndarray, f: np.ndarray, t: np.ndarray) -> np.ndarray:
            out = np.zeros(n_nodes, np.int64)
            np.add.at(out, t, cnt * vec[f])
            return out

        def rescale_np(v: np.ndarray) -> np.ndarray:
            return v * E6 // max(int(v.max()), 1)

        a1s = rescale_np(spread_np(np.ones(n_nodes, np.int64), src, dst))
        h1s = rescale_np(spread_np(a1s, dst, src))
        a2s = rescale_np(spread_np(h1s, src, dst))
        return pa.table(
            {
                "custkey": pa.array(nodes.astype(np.int64), pa.int64()),
                "auth_e6": pa.array(a2s, pa.int64()),
                "hub_e6": pa.array(h1s, pa.int64()),
            }
        )

    edges = (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["src", "dst"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )

    if n_nodes <= broadcast_limit and not force_distributed:

        def spread(vec: np.ndarray, from_col: str, to_col: str) -> np.ndarray:
            ref = ray.put(vec)

            def contrib(batch: pa.Table, _ref=ref) -> pa.Table:
                v = ray.get(_ref)
                f = batch.column(from_col).to_numpy(zero_copy_only=False)
                t = batch.column(to_col).to_numpy(zero_copy_only=False)
                c = batch.column("cnt").to_numpy(zero_copy_only=False)
                w = c * v[f]
                u, inv = np.unique(t, return_inverse=True)
                agg = np.zeros(len(u), dtype=np.int64)
                np.add.at(agg, inv, w)
                return pa.table(
                    {"k": pa.array(u, pa.int64()), "c": pa.array(agg, pa.int64())}
                )

            rows = (
                edges.map_batches(contrib, batch_format="pyarrow")
                .groupby("k")
                .aggregate(Sum("c", alias_name="c"))
                .to_pandas()
            )  # O(n_nodes) rows in the broadcast regime — vectorized gather
            out = np.zeros(n_nodes, dtype=np.int64)
            out[rows["k"].to_numpy()] = rows["c"].to_numpy()
            return out

        def rescale(v: np.ndarray) -> np.ndarray:
            return v * E6 // max(int(v.max()), 1)

        a1s = rescale(spread(np.ones(n_nodes, np.int64), "src", "dst"))
        h1s = rescale(spread(a1s, "dst", "src"))
        a2s = rescale(spread(h1s, "src", "dst"))
        return pa.table(
            {
                "custkey": pa.array(nodes.astype(np.int64), pa.int64()),
                "auth_e6": pa.array(a2s, pa.int64()),
                "hub_e6": pa.array(h1s, pa.int64()),
            }
        )

    # ---- distributed path: score vectors never leave the cluster ----
    tune_join_resources()
    nparts = join_partitions(8)
    nodes_ds = ray.data.from_arrow(
        pa.table({"node": pa.array(nodes.astype(np.int64), pa.int64())})
    ).repartition(nparts).materialize()

    def spread_ds(vec_ds, from_col: str, to_col: str):
        """vec_ds: (node, v). Returns (node, v) = Σ cnt * v[from] per to."""
        contrib = (
            edges.repartition(nparts)
            .join(
                vec_ds.map_batches(
                    lambda b, _f=from_col: pa.table(
                        {_f: b.column("node"), "v": b.column("v")}
                    ),
                    batch_format="pyarrow",
                ).repartition(nparts),
                join_type="inner",
                num_partitions=nparts,
                on=(from_col,),
            )
            .map_batches(
                lambda b, _t=to_col: pa.table(
                    {
                        "node": b.column(_t),
                        "c": pc.multiply(b.column("cnt"), b.column("v")),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        zeros = nodes_ds.map_batches(
            lambda b: pa.table(
                {
                    "node": b.column("node"),
                    "c": pa.array(np.zeros(b.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        return (
            contrib.union(zeros)
            .groupby("node")
            .aggregate(Sum("c", alias_name="v"))
            .materialize()
        )

    def rescale_ds(vec_ds):
        mx = max(int(vec_ds.max("v")), 1)  # scalar aggregate to the driver

        def scale(b: pa.Table, _m=mx) -> pa.Table:
            v = b.column("v").to_numpy(zero_copy_only=False)
            return pa.table(
                {"node": b.column("node"), "v": pa.array(v * E6 // _m, pa.int64())}
            )

        return vec_ds.map_batches(scale, batch_format="pyarrow").materialize()

    ones = nodes_ds.map_batches(
        lambda b: pa.table(
            {
                "node": b.column("node"),
                "v": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
            }
        ),
        batch_format="pyarrow",
    ).materialize()
    a1s = rescale_ds(spread_ds(ones, "src", "dst"))
    h1s = rescale_ds(spread_ds(a1s, "dst", "src"))
    a2s = rescale_ds(spread_ds(h1s, "src", "dst"))
    joined = (
        a2s.map_batches(
            lambda b: pa.table({"node": b.column("node"), "auth_e6": b.column("v")}),
            batch_format="pyarrow",
        )
        .repartition(nparts)
        .join(
            h1s.map_batches(
                lambda b: pa.table(
                    {"node": b.column("node"), "hub_e6": b.column("v")}
                ),
                batch_format="pyarrow",
            ).repartition(nparts),
            join_type="inner",
            num_partitions=nparts,
            on=("node",),
        )
        .map_batches(
            lambda b: pa.table(
                {
                    "custkey": b.column("node"),
                    "auth_e6": b.column("auth_e6"),
                    "hub_e6": b.column("hub_e6"),
                }
            ),
            batch_format="pyarrow",
        )
    )
    return joined


def q_ann_filtered(sf_dir: str, n_queries: int = 5, k: int = 3):
    """METADATA-FILTERED exact vector search (the production "where
    label = X" ANN shape — e.g. same-language / same-source neighbor
    lookup): top-k cosine per query AMONG VECTORS SHARING THE QUERY'S
    LABEL. Same layout as q_ann_knn — broadcast query matrix, per-batch
    matmul + vectorized label mask + partial top-k, (n_queries × k ×
    blocks)-row driver merge — the filter applies INSIDE the scan, so
    a selective label prunes compute before any sort. With a
    partitioned index the filter becomes partition pruning; the brute
    path doubles as its exactness oracle."""
    qids, qmat, qlab = _query_matrix(sf_dir, n_queries, with_label=True)
    q_ref = ray.put((qids, l2_normalize(qmat.astype(np.float64)), qlab))
    ds = _pq(sf_dir, "embeddings", columns=["vec_id", "embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        qids_, qn, qlab_ = ray.get(q_ref)
        ids = batch.column("vec_id").to_numpy(zero_copy_only=False)
        labs = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = l2_normalize(
            as_matrix(batch.column("embedding").to_pylist()).astype(np.float64)
        )
        sims = mat @ qn.T  # (n, nq)
        out_q, out_v, out_s = [], [], []
        for j, qid in enumerate(qids_):
            mask = (ids != qid) & (labs == qlab_[j])
            if not mask.any():
                continue
            s = sims[mask, j]
            mids = ids[mask]
            order = np.lexsort((mids, -s))[:k]
            out_q.extend([qid] * len(order))
            out_v.extend(mids[order].tolist())
            out_s.extend(s[order].tolist())
        return pa.table(
            {
                "query_id": pa.array(out_q, pa.int64()),
                "vec_id": pa.array(out_v, pa.int64()),
                "cos_sim_raw": pa.array(out_s, pa.float64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    return _merge_topk(parts, k)


def q_bm25(sf_dir: str, terms: tuple = ("data", "join", "stream")):
    """Okapi BM25 retrieval scoring (Robertson & Zaragoza 2009, k1=1.2,
    b=0.75) of every document against a fixed conjunctive query — the
    ranking function behind classic search and the standard lexical
    retriever in RAG stacks (q_tfidf's stronger sibling: BM25 adds tf
    saturation and doc-length normalization). Tokens are lowercase
    [a-z]+ runs; tf/df/dl all integer-exact.

    Dataflow: ONE combiner stats pass (per-batch partials of N, Σdl and
    per-term document frequencies — a |terms|+2-column row per batch,
    corpus-size-independent shuffle), scalars broadcast in the closure,
    then one vectorized scoring pass. The float BM25 expression is
    written identically on both sides and rounded e4 (the q_lm_score
    ulp-parity recipe); docs score 0 when no query term appears —
    including empty docs — and every doc_id is returned."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)
    k1, b = 1.2, 0.75

    def stats(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.to_lowercase().str.extract_all(r"[a-z]+")
        dl = toks.list.len().fill_null(0).cast(pl.Int64)
        cols = {
            "n": pa.array([len(s)], pa.int64()),
            "sdl": pa.array([int(dl.sum())], pa.int64()),
        }
        for i, t in enumerate(terms):
            tf = (
                toks.list.eval(pl.element() == t)
                .list.sum()
                .fill_null(0)
                .cast(pl.Int64)
            )
            cols[f"df{i}"] = pa.array([int((tf > 0).sum())], pa.int64())
        return pa.table(cols)

    g = (
        ds.map_batches(stats, batch_format="pyarrow")
        .sum(["n", "sdl"] + [f"df{i}" for i in range(len(terms))])
    )
    N = int(g["sum(n)"])
    avgdl = g["sum(sdl)"] / N  # float, same expression as the twin
    idf = [
        np.log(1.0 + (N - int(g[f"sum(df{i})"]) + 0.5) / (int(g[f"sum(df{i})"]) + 0.5))
        for i in range(len(terms))
    ]

    def score(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = s.str.to_lowercase().str.extract_all(r"[a-z]+")
        dl = toks.list.len().fill_null(0).cast(pl.Int64).to_numpy().astype(np.float64)
        total = np.zeros(len(s), np.float64)
        for i, t in enumerate(terms):
            tf = (
                toks.list.eval(pl.element() == t)
                .list.sum()
                .fill_null(0)
                .cast(pl.Int64)
                .to_numpy()
                .astype(np.float64)
            )
            # literals 2.2 / 1.2 / 0.25 / 0.75 match the twin's text
            # exactly — computing k1+1 or 1-b here could round to a
            # DIFFERENT double than the SQL literal and break e4 parity
            total = total + idf[i] * (tf * 2.2) / (
                tf + 1.2 * (0.25 + 0.75 * dl / avgdl)
            )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "bm25_e4": pa.array(
                    np.round(total * 10_000).astype(np.int64), pa.int64()
                ),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def q_cooccur_pairs(sf_dir: str, min_len: int = 5, sup_den: int = 10):
    """Frequent co-occurring word PAIRS (the market-basket / collocation
    -network shape — Agrawal & Srikant's frequent-itemset problem at
    size 2, counted exactly): all unordered pairs of distinct content
    words (lowercase [a-z]+ runs of length >= ``min_len``) appearing in
    the same document, kept when their document support reaches
    N_docs // ``sup_den``. Support counts DOCUMENTS (per-doc distinct),
    not occurrences.

    Layout: per batch, words map to batch-local vocab ids (np.unique),
    per-doc sorted-distinct pairs explode via triu indices into int64
    pair keys and pre-aggregate (combiner) BEFORE the one pair-key
    groupby shuffle; the support threshold is computed from a combiner
    doc count. Pair volume is quadratic in per-doc distinct words but
    linear in corpus size — the standard frequent-pairs cost. Output
    (w1, w2, n_docs), w1 < w2."""
    import polars as pl

    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def pairs(batch: pa.Table) -> pa.Table:
        s = pl.from_arrow(batch.column("text")).rename("t")
        toks = (
            s.str.to_lowercase()
            .str.extract_all(r"[a-z]{%d,}" % min_len)
            .list.unique()
        )
        counts = toks.list.len().fill_null(0).to_numpy().astype(np.int64)
        words = np.asarray(toks.explode().drop_nulls().to_list(), dtype=object)
        if len(words) == 0:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        vocab, ids = np.unique(words, return_inverse=True)
        nv = len(vocab)
        doc_ofs = np.concatenate(([0], np.cumsum(counts)))
        keys = []
        for i in range(len(counts)):
            w = np.sort(ids[doc_ofs[i] : doc_ofs[i + 1]].astype(np.int64))
            if len(w) < 2:
                continue
            a, b = np.triu_indices(len(w), k=1)
            keys.append(w[a] * nv + w[b])  # w sorted asc => w1 < w2
        if not keys:
            return pa.table(
                {
                    "w1": pa.array([], pa.string()),
                    "w2": pa.array([], pa.string()),
                    "c": pa.array([], pa.int64()),
                }
            )
        u, c = np.unique(np.concatenate(keys), return_counts=True)
        return pa.table(
            {
                "w1": pa.array(vocab[(u // nv)], pa.string()),
                "w2": pa.array(vocab[(u % nv)], pa.string()),
                "c": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    def ndocs(batch: pa.Table) -> pa.Table:
        return pa.table({"n": pa.array([batch.num_rows], pa.int64())})

    n_docs = int(ds.map_batches(ndocs, batch_format="pyarrow").sum("n"))
    minsup = max(n_docs // sup_den, 1)

    counts = (
        ds.map_batches(pairs, batch_format="pyarrow")
        .groupby(["w1", "w2"])
        .aggregate(Sum("c", alias_name="n_docs"))
    )
    def sup_gate(batch: pa.Table) -> pa.Table:
        return batch.filter(
            pc.greater_equal(batch.column("n_docs"), pa.scalar(minsup, pa.int64()))
        )

    return counts.map_batches(sup_gate, batch_format="pyarrow", zero_copy_batch=True)


def q_dup_rate_by_source(sf_dir: str):
    """Duplicate-rate attribution by source (the curation diagnostic
    run before spending dedup compute: WHICH feeds are duplicate-heavy
    — CCNet/Dolma-style corpus reports): per source, total docs vs
    distinct texts, dup rate in e4. Exact distinct via the salted
    two-level layout (per-batch local dedup on the text's xxhash,
    shuffle on (source, hash-salt) — disjoint key ranges per salt, so
    per-salt nunique sums are exact and a template-heavy source never
    lands in one group). Counting hash64(text) instead of the string
    keeps the shuffle payload at 8 bytes/row (the module's standard
    fingerprint-collision trade, ~2^-64 per pair, documented).
    The DuckDB twin counts DISTINCT text directly — a hash collision
    would show up as a hash-check failure, so the twin doubles as the
    collision canary at fixture scale."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..functions.hashing import hash64

    B = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"], split=True)

    def to_keys(batch: pa.Table) -> pa.Table:
        src = batch.column("source").to_numpy(zero_copy_only=False)
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        # the fixture corpus is dup-free; plant deterministic dup mass
        # (every 7th doc collapses to a per-source template) so the
        # operator measures something — the twin applies the same CASE
        texts = np.asarray(batch.column("text").to_pylist(), dtype=object)
        mask = did % 7 == 0
        texts[mask] = np.char.add("dup-", src[mask].astype(str)).astype(object)
        h = hash64(texts.tolist()).astype(np.int64)
        df = pd.DataFrame({"source": src, "h": h})
        n_raw = df.groupby("source", sort=False).size()
        sub = df.drop_duplicates()
        out_n = pd.DataFrame(
            {"source": n_raw.index, "kind": 0, "h": 0, "c": n_raw.to_numpy()}
        )
        out_d = pd.DataFrame(
            {"source": sub["source"], "kind": 1, "h": sub["h"], "c": 0}
        )
        both = pd.concat([out_n, out_d])
        salt = (both["h"].to_numpy().astype(np.uint64) % np.uint64(B)).astype(
            np.int32
        )
        return pa.table(
            {
                "source": pa.array(both["source"].to_numpy(), pa.string()),
                "kind": pa.array(both["kind"].to_numpy().astype(np.int32), pa.int32()),
                "h": pa.array(both["h"].to_numpy().astype(np.int64), pa.int64()),
                "c": pa.array(both["c"].to_numpy().astype(np.int64), pa.int64()),
                "__salt": pa.array(salt, pa.int32()),
            }
        )

    def reduce_group(g: pd.DataFrame) -> pd.DataFrame:
        if int(g["kind"].iloc[0]) == 0:
            n = int(g["c"].sum())
        else:
            n = int(g["h"].nunique())
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "kind": np.array([g["kind"].iloc[0]], np.int32),
                "n": np.array([n], np.int64),
            }
        )

    counts = (
        ds.map_batches(to_keys, batch_format="pyarrow")
        .groupby(["source", "kind", "__salt"])
        .map_groups(reduce_group, batch_format="pandas")
        .groupby(["source", "kind"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # source-count-sized (2 rows per source)
    )
    wide = counts.pivot(index="source", columns="kind", values="n").reset_index()
    n_docs = wide[0].astype(np.int64)
    n_distinct = wide[1].astype(np.int64)
    dup = (n_docs - n_distinct) * 10_000 // n_docs
    return pa.table(
        {
            "source": pa.array(wide["source"], pa.string()),
            "n_docs": pa.array(n_docs, pa.int64()),
            "n_distinct": pa.array(n_distinct, pa.int64()),
            "dup_rate_e4": pa.array(dup.to_numpy(), pa.int64()),
        }
    )


def q_maxsim(sf_dir: str, n_qtokens: int = 3):
    """ColBERT-style late-interaction retrieval scoring (Khattab &
    Zaharia, SIGIR'20): a multi-vector query scores a multi-vector
    document by Σ_j max_{d∈doc} cos(q_j, d). Here the query is the
    ``n_qtokens`` lowest-vec_id embeddings and each LABEL group plays a
    multi-vector document — the exact MaxSim kernel a production
    late-interaction index (PLAID et al.) approximates.

    Layout: broadcast the tiny query matrix; ONE scan computes per-batch
    per-(label, qtoken) partial maxes (a |labels|×n_qtokens-row
    combiner output per batch — corpus-size-independent shuffle), one
    groupby max, then the Σ_j over n_qtokens floats happens at output
    scale in fixed j order. Max is order-insensitive so the float
    parity with the twin's MAX() is exact; the final 3-term sum rounds
    e4 (ulp-safe)."""
    from ray.data.aggregate import Max

    qids, qmat = _query_matrix(sf_dir, n_qtokens)
    q_ref = ray.put(l2_normalize(qmat.astype(np.float64)))
    ds = _pq(sf_dir, "embeddings", columns=["embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        qn = ray.get(q_ref)
        labs = batch.column("label").to_numpy(zero_copy_only=False).astype(np.int64)
        mat = l2_normalize(
            as_matrix(batch.column("embedding").to_pylist()).astype(np.float64)
        )
        sims = mat @ qn.T  # (n, nq)
        u, inv = np.unique(labs, return_inverse=True)
        pmax = np.full((len(u), sims.shape[1]), -2.0, np.float64)
        np.maximum.at(pmax, inv, sims)
        nq = sims.shape[1]
        return pa.table(
            {
                "label": pa.array(np.repeat(u, nq), pa.int64()),
                "q": pa.array(np.tile(np.arange(nq, dtype=np.int64), len(u)), pa.int64()),
                "m": pa.array(pmax.ravel(), pa.float64()),
            }
        )

    g = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby(["label", "q"])
        .aggregate(Max("m", alias_name="m"))
        .to_pandas()  # |labels| x n_qtokens rows = output-scale
    )
    g = g.sort_values(["label", "q"], kind="mergesort")
    out = g.groupby("label", sort=True)["m"].sum()
    return pa.table(
        {
            "label": pa.array(out.index.to_numpy().astype(np.int64), pa.int64()),
            "maxsim_e4": pa.array(
                np.round(out.to_numpy() * 10_000).astype(np.int64), pa.int64()
            ),
        }
    )


def q_temperature_mix(sf_dir: str, alpha_num: int = 7, alpha_den: int = 10):
    """Temperature-based language balancing (XLM-R / mBERT multinomial
    sampling, Conneau et al. 2020 §3.1: sample languages ∝ p_l^α with
    α = 0.7 to up-weight low-resource languages): per language, the raw
    document share, the temperature-flattened sampling weight, and the
    expected document count under the rebalanced mix.

    ONE combiner lang-count pass (|langs|-row shuffle); the p^α
    normalization runs at output scale. Weight math is float64 with
    expression text identical to the twin — POWER(n, 0.7) on raw counts
    (equal up to the shared normalizer to p_l^α) — rounded e6; expected
    counts use floor division of integer-scaled weights so the final
    column is integer-exact given the weights."""
    from ray.data.aggregate import Count

    ds = _pq(sf_dir, "documents", columns=["lang"])
    m = (
        ds.groupby("lang").aggregate(Count(alias_name="n_docs")).to_pandas()
    )  # |langs| rows
    m = m.sort_values("lang", kind="mergesort").reset_index(drop=True)
    n = m["n_docs"].to_numpy().astype(np.int64)
    alpha = alpha_num / alpha_den
    w = np.power(n.astype(np.float64), alpha)
    total = int(n.sum())
    w_e6 = np.round(w / w.sum() * 1_000_000).astype(np.int64)
    target = w_e6 * total // 1_000_000
    return pa.table(
        {
            "lang": pa.array(m["lang"].to_numpy(), pa.string()),
            "n_docs": pa.array(n, pa.int64()),
            "weight_e6": pa.array(w_e6, pa.int64()),
            "target_n": pa.array(target, pa.int64()),
        }
    )


def q_rrf_fusion(sf_dir: str, topn: int = 100, kk: int = 60):
    """Reciprocal-Rank Fusion of two retrieval rankers (Cormack,
    Clarke & Buettcher, SIGIR'09 — the standard hybrid-search combiner:
    modern stacks fuse a lexical and a second ranking exactly this
    way): RRF@``topn`` over q_bm25 and q_tfidf,

        rrf(d) = Σ_r [d ∈ top-n of r] * 1 / (kk + rank_r(d)).

    Ranks are over INTEGER scores (bm25_e4 / tfidf_e6) with doc_id
    tie-break, so both sides rank identically; the two reciprocal
    terms sum in fixed (bm25, tfidf) order and round e6.

    Scale shape: each ranker's global top-n is a per-block partial
    top-n + tiny driver merge (no full sort); the fusion itself
    touches at most 2*topn rows. Output: (doc_id, rrf_e6) for the
    union of both top-n lists."""
    def top_ranks(ds, col: str) -> dict:
        def part(batch: pa.Table, _c=col) -> pa.Table:
            order = pc.sort_indices(
                batch,
                sort_keys=[(_c, "descending"), ("doc_id", "ascending")],
            )
            return batch.take(order[:topn])

        df = (
            ds.map_batches(part, batch_format="pyarrow")
            .to_pandas()  # <= topn * n_blocks rows
            .sort_values([col, "doc_id"], ascending=[False, True],
                         kind="mergesort")
            .head(topn)
        )
        return {int(d): i + 1 for i, d in enumerate(df["doc_id"])}

    rb = top_ranks(q_bm25(sf_dir), "bm25_e4")
    rt = top_ranks(q_tfidf(sf_dir), "tfidf_e6")
    ids = sorted(set(rb) | set(rt))
    rrf = [
        (1.0 / (kk + rb[d]) if d in rb else 0.0)
        + (1.0 / (kk + rt[d]) if d in rt else 0.0)
        for d in ids
    ]
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            # DuckDB round() is half-AWAY-FROM-ZERO; np.round is
            # half-even (banker's) and diverges on exact .5 ties
            # (e.g. rank 68 -> 1/128 * 1e6 = 7812.5). Values are
            # nonnegative, so floor(x + 0.5) matches the oracle.
            "rrf_e6": pa.array(
                np.floor(np.asarray(rrf) * 1_000_000 + 0.5).astype(np.int64),
                pa.int64(),
            ),
        }
    )


def q_c4_clean(sf_dir: str):
    """C4 line-level page cleaning (Raffel et al., JMLR 2020 §2.2 — the
    rule set behind the C4 corpus, still the canonical pre-tokenization
    page scrub): keep only lines that end in terminal punctuation
    (. ! ? "), have >= 5 words, and don't mention javascript; drop the
    whole page if it contains "lorem ipsum" or a "{", or retains fewer
    than 3 lines.

    The corpus fixture has no multi-line pages, so — exactly like
    q_pii_redact builds contact strings — the page is assembled by a
    FIXED 9-line template over each document's words (conditional lines
    keyed on doc_id residues so every rule fires at every sf), which
    lets the DuckDB twin construct the identical pages and hash-check
    the cleaned text.

    Scale shape: ONE streaming map_batches pass, zero shuffle, zero
    Python per row (polars Rust-regex line filter inside list.eval);
    at 100 TB this is bandwidth-bound, the shape you want. Output:
    (doc_id, clean_text, n_kept) for surviving pages."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def clean(batch: pa.Table) -> pa.Table:
        toks = pl.col("text").str.split(" ")

        def seg(a: int, b: int):
            return toks.list.slice(a - 1, b - a + 1).list.join(" ")

        did = pl.col("doc_id")
        nl = pl.lit("\n")
        page = pl.concat_str(
            pl.when(did % 7 == 0).then(seg(1, 3)).otherwise(seg(1, 6)),
            pl.lit("."), nl,
            seg(7, 9), pl.lit("."), nl,
            seg(1, 8), nl,
            pl.when(did % 5 == 0)
            .then(pl.lit("please enable javascript to view this page."))
            .otherwise(pl.lit("")), nl,
            pl.when(did % 13 == 0)
            .then(pl.lit("lorem ipsum dolor sit amet."))
            .otherwise(pl.lit("")), nl,
            pl.when(did % 17 == 0)
            .then(pl.lit('var config = { "k": 1 };'))
            .otherwise(pl.lit("")), nl,
            seg(2, 7), pl.lit("?"), nl,
            seg(3, 8), pl.lit("!"), nl,
            pl.when(did % 3 == 0)
            .then(pl.concat_str(seg(4, 9), pl.lit('."')))
            .otherwise(pl.lit("")),
        )
        df = pl.from_arrow(batch).with_columns(page.alias("page"))
        kept = (
            pl.col("page")
            .str.split("\n")
            .list.eval(
                pl.element().filter(
                    pl.element().str.contains(r'[.!?"]$')
                    & (pl.element().str.split(" ").list.len() >= 5)
                    & ~pl.element().str.contains("javascript", literal=True)
                )
            )
        )
        out = (
            df.with_columns(kept.alias("kept"))
            .filter(
                ~pl.col("page").str.contains("lorem ipsum", literal=True)
                & ~pl.col("page").str.contains("{", literal=True)
                & (pl.col("kept").list.len() >= 3)
            )
            .select(
                "doc_id",
                clean_text=pl.col("kept").list.join("\n"),
                n_kept=pl.col("kept").list.len().cast(pl.Int64),
            )
        )
        return out.to_arrow()

    return ds.map_batches(clean, batch_format="pyarrow", zero_copy_batch=True)


def quality_z(text_col) -> np.ndarray:
    """q_quality_classifier's exact logit kernel: Arrow string column
    in, float64 z vector out. Literals must stay text-identical to the
    DuckDB twin."""
    import polars as pl

    toks = pl.from_arrow(text_col).str.split(" ")
    w = toks.list.len().cast(pl.Int64).to_numpy().astype(np.float64)
    c = (
        pl.from_arrow(text_col)
        .str.len_chars()
        .cast(pl.Int64)
        .to_numpy()
        .astype(np.float64)
    )
    u = toks.list.unique().list.len().cast(pl.Int64).to_numpy().astype(
        np.float64
    )
    s = (
        (toks.list.count_matches("the") + toks.list.count_matches("a"))
        .cast(pl.Int64)
        .to_numpy()
        .astype(np.float64)
    )
    return -2.5 + 0.021 * w + 0.0017 * c + 0.045 * u - 0.09 * s


def q_quality_classifier(sf_dir: str):
    """GPT-3-style logistic-regression document-quality gate (Brown et
    al. 2020, Appendix A: a linear classifier over cheap text features
    scores every page; only high-scoring pages enter the corpus — the
    same shape fasttext-based quality filters use today). Features are
    integer-exact (word count, char count, distinct-word count,
    stopword count), the logit is a fixed-weight dot product

        z = -2.5 + 0.021*w + 0.0017*c + 0.045*u - 0.09*s

    and the gate is ``z > 0`` — pure IEEE double arithmetic with
    text-identical literals on both sides (the float-parity recipe from
    q_bm25), so the kept set hash-matches DuckDB exactly; the reported
    sigmoid quality_e4 rounds half-away-from-zero like SQL round().

    Scale shape: ONE streaming map_batches pass, zero shuffle, polars
    list kernels for the features + numpy for the logit — bandwidth
    bound at 100 TB. Output: (doc_id, quality_e4) for kept docs."""
    import polars as pl

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def score(batch: pa.Table) -> pa.Table:
        z = quality_z(batch.column("text"))
        p = 1.0 / (1.0 + np.exp(-z))
        out = pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "quality_e4": pa.array(
                    np.floor(p * 10_000 + 0.5).astype(np.int64), pa.int64()
                ),
                "z": pa.array(z, pa.float64()),
            }
        )
        out = out.filter(pc.greater(out.column("z"), 0.0))
        return out.drop_columns(["z"])

    return ds.map_batches(score, batch_format="pyarrow", zero_copy_batch=True)


def q_ccnet_bucket(
    sf_dir: str,
    driver_scores_max: int = 2_000_000,
    force_distributed: bool = False,
):
    """CCNet head/middle/tail perplexity bucketing (Wenzek et al. 2020
    §3.3: within each language, split the corpus into terciles of LM
    perplexity — 'head' trains high-quality models, 'tail' is usually
    dropped). Scores come from q_lm_score's char-bigram LM; the cutoff
    rule is the exact integer percentile used by the SQL window twin:
    c_p = min value v with 3*cnt_le(v) >= p*n (ties share a bucket, the
    CCNet semantics — buckets come from score cutoffs, not row ranks).

    Scale shape: ONE score pass (the scored Dataset is materialized —
    (doc_id, lang, nll_e4) is ~24 bytes/doc, spillable, and far cheaper
    than re-running the LM pass for the second consumer); per-block
    (lang, nll_e4) count partials pre-combine in map_batches, so the
    exchange payload is the distinct-score table (not the corpus);
    under ``driver_scores_max`` documents (exact parquet metadata) the
    partials combine in one driver pandas pass, above it (or
    force_distributed) in a distributed groupby + per-lang map_groups;
    the O(|langs|) cutoff dict broadcasts back over one streaming
    re-map. No corpus-sized sort anywhere. Forks equivalence-tested.
    Output: (doc_id, lang, bucket)."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    scores = q_lm_score(sf_dir, keep_cols=("lang",)).materialize()

    def count_partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pandas(),
                "nll_e4": batch.column("nll_e4").to_numpy(zero_copy_only=False),
            }
        )
        g = (
            df.groupby(["lang", "nll_e4"], sort=False)
            .size()
            .rename("c")
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "nll_e4": pa.array(g["nll_e4"].astype("int64"), pa.int64()),
                "c": pa.array(g["c"].astype("int64"), pa.int64()),
            }
        )

    def cutoffs_from_counts(g: pd.DataFrame) -> tuple[int, int]:
        g = g.sort_values("nll_e4", kind="mergesort")
        cum = g["c"].cumsum().to_numpy()
        n = int(cum[-1])
        v = g["nll_e4"].to_numpy()
        c33 = int(v[np.argmax(3 * cum >= n)])
        c67 = int(v[np.argmax(3 * cum >= 2 * n)])
        return c33, c67

    docs_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows

    if docs_rows <= driver_scores_max and not force_distributed:
        parts = (
            scores.map_batches(count_partial, batch_format="pyarrow")
            .to_pandas()  # <= distinct (lang, nll) per block — gate-bounded
            .groupby(["lang", "nll_e4"], sort=False)["c"]
            .sum()
            .reset_index()
        )
        cut = {
            lang: cutoffs_from_counts(g) for lang, g in parts.groupby("lang")
        }
    else:

        def cutoffs(g: pd.DataFrame) -> pd.DataFrame:
            c33, c67 = cutoffs_from_counts(g)
            return pd.DataFrame(
                {"lang": [g["lang"].iloc[0]], "c33": [c33], "c67": [c67]}
            )

        counts = (
            scores.map_batches(count_partial, batch_format="pyarrow")
            .groupby(["lang", "nll_e4"])
            .aggregate(Sum("c", alias_name="c"))
        )
        cut = {
            r["lang"]: (r["c33"], r["c67"])
            for r in counts.groupby("lang").map_groups(
                cutoffs, batch_format="pandas"
            ).take_all()
        }  # |langs| rows — the only driver contact

    def assign(batch: pa.Table) -> pa.Table:
        lang = np.asarray(batch.column("lang").to_pylist(), dtype=object)
        nll = batch.column("nll_e4").to_numpy(zero_copy_only=False)
        # vectorized per-lang cutoff gather: unique langs per batch are
        # few; no per-row dict lookups
        ul, inv = np.unique(lang, return_inverse=True)
        c33 = np.array([cut[l][0] for l in ul], np.int64)[inv]
        c67 = np.array([cut[l][1] for l in ul], np.int64)[inv]
        bucket = np.where(
            nll <= c33, "head", np.where(nll <= c67, "middle", "tail")
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "bucket": pa.array(bucket.tolist(), pa.string()),
            }
        )

    return scores.map_batches(assign, batch_format="pyarrow")


def q_train_val_split(sf_dir: str, val_permille: int = 50):
    """Deterministic train/validation split by multiplicative hash of
    the stable doc_id (the reproducible-split rule every training
    pipeline needs: membership is a pure function of the id, so
    re-runs, resumes and incremental ingests never leak rows across
    the split). bucket = (doc_id % 1000003) * 2654435761 % 2^32
    (Knuth's multiplicative constant; the % 1000003 pre-fold keeps the
    product inside int64 so the DuckDB twin computes the identical
    value without HUGEINT); val iff bucket * 1000 < val_permille * 2^32
    — integer cross-multiplication, no float.

    Scale shape: ONE streaming vectorized pass, zero shuffle, output
    corpus-sized (doc_id, lang, split). At 100 TB the split column
    would be written alongside the data, not collected."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "lang"], split=True)

    def split(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False)
        b = (did % 1000003) * 2654435761 % 4294967296
        val = b * 1000 < val_permille * 4294967296
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "lang": batch.column("lang"),
                "split": pa.array(
                    np.where(val, "val", "train").tolist(), pa.string()
                ),
            }
        )

    return ds.map_batches(split, batch_format="pyarrow", zero_copy_batch=True)


def q_shard_assign(sf_dir: str, n_shards: int = 16):
    """Balanced index-shard routing by global size rank: docs ranked by
    (token count desc, doc_id asc), shard = rank % n_shards — the
    round-robin-by-decreasing-size rule (the classic LPT greedy's
    zero-coordination cousin) that bounds shard skew to one max-doc.
    Output: per-shard (shard, n_docs, tok_total) so the balance is the
    checked artifact.

    Scale shape: NO global sort. Token counts are small ints, so the
    global rank decomposes as rank = (#docs with larger w) + (rank of
    doc_id within its own w): per-w counts are ONE combiner groupby
    (|distinct w| rows -> broadcast offset map), within-w ranks come
    from groupby(w).map_groups (each group is one token-length slice,
    ~corpus/|w| rows; a distributed sort is the fallback if lengths
    are unbounded). One final n_shards-row groupby."""
    import polars as pl
    from ray.data.aggregate import Count, Sum

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def toklen(batch: pa.Table) -> pa.Table:
        w = (
            pl.from_arrow(batch.column("text"))
            .str.split(" ")
            .list.len()
            .cast(pl.Int64)
            .to_numpy()
        )
        return pa.table(
            {"doc_id": batch.column("doc_id"), "w": pa.array(w, pa.int64())}
        )

    lens = ds.map_batches(
        toklen, batch_format="pyarrow", zero_copy_batch=True
    ).materialize()  # reused by both passes; (id, int64) pairs only

    return (
        size_rank_shards(lens, n_shards)
        .groupby("shard")
        .aggregate(
            Count(alias_name="n_docs"), Sum("w", alias_name="tok_total")
        )
    )


def size_rank_shards(lens, n_shards: int):
    """q_shard_assign's per-doc routing: (doc_id, w) Dataset in,
    (doc_id, w, shard) out, shard = global (w desc, doc_id asc) rank %
    n_shards — computed WITHOUT a global sort (per-w offsets + within-w
    ranks)."""
    from ray.data.aggregate import Count

    wcounts = {
        r["w"]: r["c"]
        for r in lens.groupby("w").aggregate(Count(alias_name="c")).take_all()
    }  # |distinct w| rows — the only driver contact
    ws = sorted(wcounts, reverse=True)
    acc, offset = 0, {}
    for w in ws:
        offset[w] = acc
        acc += wcounts[w]

    def rank_in_w(g: pd.DataFrame) -> pd.DataFrame:
        w = int(g["w"].iloc[0])
        ids = np.sort(g["doc_id"].to_numpy())
        rn = offset[w] + np.arange(len(ids), dtype=np.int64)
        return pd.DataFrame(
            {
                "doc_id": ids,
                "w": np.full(len(ids), w, np.int64),
                "shard": rn % n_shards,
            }
        )

    return lens.groupby("w").map_groups(rank_in_w, batch_format="pandas")


def q_opic(
    sf_dir: str,
    n_rounds: int = 3,
    broadcast_limit: int = 2_000_000,
    driver_edges_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """OPIC — On-line Page Importance Computation (Abiteboul, Preda &
    Cobena, WWW 2003), the crawler-NATIVE importance measure: unlike
    PageRank it needs no convergence before being useful, so frontier
    schedulers rank by accumulated cash history while the crawl runs.
    Fourth link-analysis member over q_pagerank's deterministic
    customer graph (node = c_custkey, edge o_custkey ->
    o_orderkey % n, parallel edges keep multiplicity).

    Integer fixed-point replica of the algorithm, ``n_rounds`` rounds:

      cash_0[v]  = 10^12 // n                  (uniform init)
      share[u]   = cash_t[u] // outdeg[u]      (floored per-edge share)
      pool_t     = Σ cash_t over dangling nodes (virtual page)
      cash_t+1[v]= Σ_{u->v} share[u]*cnt + pool_t // n
      history[v] = Σ_t cash_t[v]               (the importance score)

    Every operation is int64 (floor divisions are the determinism
    anchor), so the DuckDB unrolled-CTE twin is bit-exact.

    Scale shape (q_hits' triple fork, size-adaptive on EXACT parquet
    row counts — no scan): edges pre-aggregate to (src, dst, cnt).
    - |orders| <= driver_edges_max AND |nodes| <= broadcast_limit: one
      distributed map_batches builds per-block edge partials, which
      combine in one vectorized driver pass (np.unique on packed keys);
      all rounds are then pure int64 numpy — zero per-round Ray jobs
      (profiled 7.1 s -> ~1 s at sf0.1: the per-round groupby shuffles
      were fixed overhead moving O(n_nodes) ints).
    - |nodes| <= broadcast_limit only: edges stay a Dataset; the cash
      vector rides ray.put and each round is ONE map_batches over edges
      + an O(n)-row groupby.
    - else (or force_distributed): cash/history stay node-keyed
      Datasets and each round is two distributed hash joins + a
      groupby-sum — pool and the global max are the only scalars on
      the driver. All three forks equivalence-tested.
    Output: (custkey, history)."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    cust = pq_mod.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_nodes = cust.num_rows
    nodes = cust.column("c_custkey").to_numpy().astype(np.int64)
    TOTAL = np.int64(10**12)

    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        dst = batch.column("o_orderkey").to_numpy(zero_copy_only=False) % n_nodes
        key = src.astype(np.int64) * n_nodes + dst
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "src": pa.array((u // n_nodes).astype(np.int64), pa.int64()),
                "dst": pa.array((u % n_nodes).astype(np.int64), pa.int64()),
                "cnt": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    orders_rows = pq_mod.ParquetFile(
        os.path.join(sf_dir, "orders.parquet")
    ).metadata.num_rows

    if (
        orders_rows <= driver_edges_max
        and n_nodes <= broadcast_limit
        and not force_distributed
    ):
        # driver-combine fork: per-block (src,dst,cnt) partials total
        # <= orders_rows rows (each order row contributes one edge
        # occurrence) — bounded by the gate, so the combine is a single
        # vectorized pass; every round is then pure int64 numpy.
        parts = orders.map_batches(
            to_edges, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        key = parts["src"].to_numpy() * n_nodes + parts["dst"].to_numpy()
        u, inv = np.unique(key, return_inverse=True)
        cnt = np.zeros(len(u), np.int64)
        np.add.at(cnt, inv, parts["cnt"].to_numpy())
        src = (u // n_nodes).astype(np.int64)
        dst = (u % n_nodes).astype(np.int64)
        outdeg = np.zeros(n_nodes, np.int64)
        np.add.at(outdeg, src, cnt)
        cash = np.full(n_nodes, TOTAL // n_nodes, np.int64)
        history = np.zeros(n_nodes, np.int64)
        for _ in range(n_rounds):
            history += cash
            share = np.where(outdeg > 0, cash // np.maximum(outdeg, 1), 0)
            pool = int(cash[outdeg == 0].sum())
            recv = np.zeros(n_nodes, np.int64)
            np.add.at(recv, dst, cnt * share[src])
            cash = recv + pool // n_nodes
        return pa.table(
            {
                "custkey": pa.array(nodes, pa.int64()),
                "history": pa.array(history, pa.int64()),
            }
        )

    edges = (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["src", "dst"])
        .aggregate(Sum("cnt", alias_name="cnt"))
        .materialize()
    )

    if n_nodes <= broadcast_limit and not force_distributed:
        outdeg = np.zeros(n_nodes, np.int64)
        od = edges.groupby("src").aggregate(
            Sum("cnt", alias_name="od")
        ).to_pandas()  # O(n_nodes) rows in the broadcast regime
        outdeg[od["src"].to_numpy()] = od["od"].to_numpy()

        cash = np.full(n_nodes, TOTAL // n_nodes, np.int64)
        history = np.zeros(n_nodes, np.int64)
        for _ in range(n_rounds):
            history += cash
            share = np.where(outdeg > 0, cash // np.maximum(outdeg, 1), 0)
            pool = int(cash[outdeg == 0].sum())
            ref = ray.put(share)

            def contrib(batch: pa.Table, _ref=ref) -> pa.Table:
                s = ray.get(_ref)
                f = batch.column("src").to_numpy(zero_copy_only=False)
                t = batch.column("dst").to_numpy(zero_copy_only=False)
                c = batch.column("cnt").to_numpy(zero_copy_only=False)
                w = c * s[f]
                u, inv = np.unique(t, return_inverse=True)
                agg = np.zeros(len(u), dtype=np.int64)
                np.add.at(agg, inv, w)
                return pa.table(
                    {"k": pa.array(u, pa.int64()), "c": pa.array(agg, pa.int64())}
                )

            recv = np.zeros(n_nodes, np.int64)
            rc = (
                edges.map_batches(contrib, batch_format="pyarrow")
                .groupby("k")
                .aggregate(Sum("c", alias_name="c"))
                .to_pandas()  # O(n_nodes) ints — vectorized gather
            )
            recv[rc["k"].to_numpy()] = rc["c"].to_numpy()
            cash = recv + pool // n_nodes

        return pa.table(
            {
                "custkey": pa.array(nodes, pa.int64()),
                "history": pa.array(history, pa.int64()),
            }
        )

    # ---- distributed path: cash/history never leave the cluster ----
    tune_join_resources()
    nparts = join_partitions(8)
    nodes_ds = ray.data.from_arrow(
        pa.table({"node": pa.array(nodes, pa.int64())})
    ).repartition(nparts).materialize()
    outd = (
        edges.map_batches(
            lambda b: pa.table({"node": b.column("src"), "cnt": b.column("cnt")}),
            batch_format="pyarrow",
        )
        .groupby("node")
        .aggregate(Sum("cnt", alias_name="od"))
        .repartition(nparts)
        .materialize()
    )

    def const_vec(value: int):
        return nodes_ds.map_batches(
            lambda b, _v=int(value): pa.table(
                {
                    "node": b.column("node"),
                    "v": pa.array(np.full(b.num_rows, _v, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        ).materialize()

    def add_vecs(a, b):
        return (
            a.union(b).groupby("node").aggregate(Sum("v", alias_name="v"))
            .materialize()
        )

    cash = const_vec(int(TOTAL) // n_nodes)
    history = const_vec(0)
    for _ in range(n_rounds):
        history = add_vecs(history, cash)
        total_cash = int(cash.sum("v"))
        share = (
            cash.repartition(nparts)
            .join(outd, join_type="inner", num_partitions=nparts, on=("node",))
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("node"),
                        "v": pa.array(
                            b.column("v").to_numpy(zero_copy_only=False)
                            // b.column("od").to_numpy(zero_copy_only=False),
                            pa.int64(),
                        ),
                        "held": b.column("v"),
                    }
                ),
                batch_format="pyarrow",
            )
            .materialize()
        )
        pool = total_cash - int(share.sum("held") or 0)
        contrib = (
            edges.repartition(nparts)
            .join(
                share.map_batches(
                    lambda b: pa.table(
                        {"src": b.column("node"), "v": b.column("v")}
                    ),
                    batch_format="pyarrow",
                ).repartition(nparts),
                join_type="inner",
                num_partitions=nparts,
                on=("src",),
            )
            .map_batches(
                lambda b: pa.table(
                    {
                        "node": b.column("dst"),
                        "v": pc.multiply(b.column("cnt"), b.column("v")),
                    }
                ),
                batch_format="pyarrow",
            )
        )
        cash = add_vecs(contrib, const_vec(pool // n_nodes))

    return history.map_batches(
        lambda b: pa.table(
            {"custkey": b.column("node"), "history": b.column("v")}
        ),
        batch_format="pyarrow",
    )


def q_winnowing(sf_dir: str, k: int = 5, w: int = 4):
    """Winnowing document fingerprints (Schleimer, Wilkerson & Aiken,
    SIGMOD 2003 — the MOSS algorithm): slide a window of ``w``
    consecutive character ``k``-grams over each doc and keep the
    minimum gram of every window; the selected set is a position-robust
    fingerprint with guaranteed coverage (any match of length >= w+k-1
    shares a fingerprint). The paper minimizes by HASH; this replica
    minimizes by LEXICOGRAPHIC gram order — same guarantees, and it
    lets the DuckDB twin reproduce the selection exactly with
    MIN() OVER a rows window (no hash function to match).

    Scale shape: ONE streaming map_batches pass, zero shuffle — each
    doc's grams vectorize as a numpy '<U{k}' array and the window min
    is a (w-1)-fold np.minimum reduction over shifted views; output is
    the DISTINCT (doc_id, gram) fingerprint set (per-doc local dedup,
    nothing global). Fingerprint matching downstream is one
    gram-keyed shuffle (q_dup_spans' posting layout)."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def fp(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_id: list[int] = []
        out_g: list[str] = []
        for i, t in zip(ids, batch.column("text").to_pylist()):
            n = len(t) - k + 1
            if n < w:
                continue
            g = np.array([t[j : j + k] for j in range(n)])
            m = g[: n - w + 1]
            for s in range(1, w):
                # np.minimum has no unicode loop; elementwise < does
                nxt = g[s : n - w + 1 + s]
                m = np.where(nxt < m, nxt, m)
            sel = np.unique(m)
            out_id.extend([int(i)] * len(sel))
            out_g.extend(sel.tolist())
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "gram": pa.array(out_g, pa.string()),
            }
        )

    return ds.map_batches(fp, batch_format="pyarrow", zero_copy_batch=True)


def q_corpus_card(sf_dir: str):
    """Corpus datasheet / data card rollup (the per-slice composition
    table a dataset release ships — Gebru et al. 2021 'Datasheets for
    Datasets' §3.2 made it standard practice): per (lang, source) the
    doc count, token mass, token length min/max, and how many docs pass
    the Gopher rule gate and the LR quality gate — the numbers mixture
    planning (q_data_mix / q_temperature_mix) consumes.

    Scale shape: ONE streaming pass computes every per-doc metric with
    the SAME factored kernels the oracled gates run (gopher_flags /
    quality_z), a per-batch combiner collapses to (lang, source)
    partials, and the only shuffle is the |lang x source|-row groupby —
    corpus-size-independent payload."""
    import polars as pl
    from ray.data.aggregate import Max, Min, Sum

    ds = _pq(
        sf_dir, "documents", columns=["doc_id", "text", "lang", "source"],
        split=True,
    )

    def partial(batch: pa.Table) -> pa.Table:
        toks = (
            pl.from_arrow(batch.column("text"))
            .str.split(" ")
            .list.len()
            .cast(pl.Int64)
            .to_numpy()
        )
        gop = gopher_flags(batch.column("text")).column("keep").to_numpy(
            zero_copy_only=False
        )
        qual = (quality_z(batch.column("text")) > 0.0).astype(np.int64)
        df = pd.DataFrame(
            {
                "lang": batch.column("lang").to_pylist(),
                "source": batch.column("source").to_pylist(),
                "n_docs": 1,
                "n_tokens": toks,
                "min_tokens": toks,
                "max_tokens": toks,
                "n_gopher_pass": gop,
                "n_quality_pass": qual,
            }
        )
        g = df.groupby(["lang", "source"], sort=True).agg(
            n_docs=("n_docs", "sum"),
            n_tokens=("n_tokens", "sum"),
            min_tokens=("min_tokens", "min"),
            max_tokens=("max_tokens", "max"),
            n_gopher_pass=("n_gopher_pass", "sum"),
            n_quality_pass=("n_quality_pass", "sum"),
        )
        return pa.Table.from_pandas(g.reset_index(), preserve_index=False)

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["lang", "source"])
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
            Min("min_tokens", alias_name="min_tokens"),
            Max("max_tokens", alias_name="max_tokens"),
            Sum("n_gopher_pass", alias_name="n_gopher_pass"),
            Sum("n_quality_pass", alias_name="n_quality_pass"),
        )
    )


def q_degree_stats(
    sf_dir: str,
    driver_edges_max: int = 4_000_000,
    force_distributed: bool = False,
):
    """Link-graph degree distribution — the structural report crawl
    planners read before budgeting (hub concentration, dangling mass):
    over q_pagerank's deterministic customer graph, the count of nodes
    at each (in-degree, out-degree) rounded DOWN to powers of two
    (log2 degree classes, the standard web-graph histogram axis —
    Broder et al. 2000 plot exactly this).

    Scale shape: edges pre-aggregate per batch; below
    ``driver_edges_max`` orders rows (exact parquet metadata, no scan)
    the <=|orders|-row per-block degree partials combine in one driver
    np.unique pass and the histogram is pure numpy — zero shuffles
    (q_opic's size-adaptive pattern; profiled 2.9 s -> ~0.5 s at
    sf0.1). Above the gate (or force_distributed) ONE node-keyed
    groupby combines the partials and the output is the
    |degree classes|² histogram — corpus-size-independent. Class of a
    0-degree node is -1. Forks equivalence-tested."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    cust = pq_mod.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey"]
    )
    n_nodes = cust.num_rows
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)

    def to_deg(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False)
        dst = batch.column("o_orderkey").to_numpy(zero_copy_only=False) % n_nodes
        us, cs = np.unique(src, return_counts=True)
        ud, cd = np.unique(dst, return_counts=True)
        return pa.table(
            {
                "node": pa.array(np.concatenate([us, ud]), pa.int64()),
                "outd": pa.array(
                    np.concatenate([cs, np.zeros(len(ud), np.int64)]), pa.int64()
                ),
                "ind": pa.array(
                    np.concatenate([np.zeros(len(us), np.int64), cd]), pa.int64()
                ),
            }
        )

    orders_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "orders.parquet")
    ).num_rows

    def classes(batch: pa.Table) -> pa.Table:
        o = batch.column("outd").to_numpy(zero_copy_only=False)
        i = batch.column("ind").to_numpy(zero_copy_only=False)
        # integer-exact floor(log2): frexp exponent - 1 (exact for any
        # int64 degree; float log2 can be off-by-ulp at exact powers);
        # the SQL twin's length(bin(x)) - 1 is the same integer
        oc = np.where(o > 0, np.frexp(np.maximum(o, 1))[1] - 1, -1).astype(np.int64)
        ic = np.where(i > 0, np.frexp(np.maximum(i, 1))[1] - 1, -1).astype(np.int64)
        key = (oc + 1) * 1000 + (ic + 1)  # both >= 0, safe packing
        u, c = np.unique(key, return_counts=True)
        return pa.table(
            {
                "out_class": pa.array(u // 1000 - 1, pa.int64()),
                "in_class": pa.array(u % 1000 - 1, pa.int64()),
                "n_nodes": pa.array(c.astype(np.int64), pa.int64()),
            }
        )

    if orders_rows <= driver_edges_max and not force_distributed:
        # driver-combine fork: per-block partials total <= orders_rows
        # rows (bounded by the gate); one np.unique merge, then the
        # same `classes` kernel over the combined degree table.
        parts = orders.map_batches(
            to_deg, batch_format="pyarrow", zero_copy_batch=True
        ).to_pandas()
        node = parts["node"].to_numpy()
        u, inv = np.unique(node, return_inverse=True)
        outd = np.zeros(len(u), np.int64)
        ind = np.zeros(len(u), np.int64)
        np.add.at(outd, inv, parts["outd"].to_numpy())
        np.add.at(ind, inv, parts["ind"].to_numpy())
        return classes(
            pa.table(
                {
                    "outd": pa.array(outd, pa.int64()),
                    "ind": pa.array(ind, pa.int64()),
                }
            )
        )

    deg = (
        orders.map_batches(to_deg, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("node")
        .aggregate(Sum("outd", alias_name="outd"), Sum("ind", alias_name="ind"))
    )

    return (
        deg.map_batches(classes, batch_format="pyarrow")
        .groupby(["out_class", "in_class"])
        .aggregate(Sum("n_nodes", alias_name="n_nodes"))
    )


def q_kl_drift(sf_dir: str):
    """Per-source distribution drift vs the corpus: KL(P_source ||
    P_global) over unigram token distributions — the monitor a corpus
    pipeline runs per ingest batch to catch a source going off-profile
    (DSIR/q_dsir_weights' LLR machinery turned into a per-slice scalar;
    drift alarms threshold exactly this number).

        kl_e4 = round(Σ_w (c/n) * ln((c/n) / (gc/gn)) * 10⁴)

    with c,n,gc,gn all EXACT int64 counts (per-source and global token
    counts), so only the final Σ is float — e4 rounding absorbs
    summation-order ulp (q_entropy's parity recipe).

    Scale shape: ONE (source, tok) combiner groupby — the shuffle
    payload is each batch's distinct (source, token) partials, never a
    row per occurrence; the KL finish runs on the |sources| x |vocab|
    count table (vocab-bounded here, like q_vocab_topk; an open-vocab
    corpus caps this with top-K truncated KL). Output: (source,
    kl_e4)."""
    import polars as pl
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["source", "text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(batch)
            .with_columns(pl.col("text").str.split(" ").alias("tok"))
            .explode("tok")
            .group_by(["source", "tok"])
            .len()
            .rename({"len": "c"})
            .with_columns(pl.col("c").cast(pl.Int64))
        )
        return g.to_arrow()

    counts = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "tok"])
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # |sources| x |vocab| rows — vocab-bounded
    )
    n = counts.groupby("source")["c"].transform("sum").to_numpy()
    g = counts.groupby("tok")["c"].transform("sum").to_numpy()
    gn = int(counts["c"].sum())
    c = counts["c"].to_numpy()
    term = (c / n) * np.log((c / n) / (g / gn))
    out = (
        pd.DataFrame({"source": counts["source"], "t": term})
        .groupby("source", sort=True)["t"]
        .sum()
    )
    return pa.table(
        {
            "source": pa.array(out.index.tolist(), pa.string()),
            # half-AWAY-from-zero like DuckDB round() (np.round is
            # banker's); KL >= 0 so floor(x+0.5) suffices
            "kl_e4": pa.array(
                np.floor(out.to_numpy() * 10_000 + 0.5).astype(np.int64),
                pa.int64(),
            ),
        }
    )


def q_incremental_dedup(sf_dir: str):
    """Incremental-ingest dedup: admit only the docs of an incoming
    crawl epoch whose text does NOT already exist in the standing
    corpus — the gate every continuously-fed training corpus runs per
    drop (full re-dedup of 100 TB per epoch is not an option; you dedup
    the DELTA against the snapshot). Epoch split is deterministic:
    doc_id % 3 == 0 is the incoming batch, the rest is the snapshot —
    and every doc_id % 9 == 0 page ALSO sits in the snapshot (the
    re-fetched-unchanged case), so exactly those incoming docs must be
    rejected: the dedup path is exercised, not vacuous.

    Scale shape: both sides stream to 8-byte text hashes (hash64 —
    the SQL text twin doubles as the collision canary, the
    q_dup_rate_by_source contract); ONE hash-bucket shuffle co-locates
    snapshot and epoch rows; per bucket a vectorized np.isin drops
    epoch rows whose hash exists in the snapshot slice. Text never
    moves — only (id, hash, side) ints; the snapshot side needs no
    driver materialization at any size. Output: (doc_id) admitted."""
    from ..functions.hashing import hash64

    n_bkt = default_buckets()
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def sides(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        h = hash64(batch.column("text").to_pylist()).astype(np.int64)
        incoming = ids % 3 == 0
        snapshot = (~incoming) | (ids % 9 == 0)  # %9 pages sit in BOTH
        out_id = np.concatenate([ids[incoming], ids[snapshot]])
        out_h = np.concatenate([h[incoming], h[snapshot]])
        out_side = np.concatenate(
            [
                np.ones(int(incoming.sum()), np.int8),
                np.zeros(int(snapshot.sum()), np.int8),
            ]
        )
        return pa.table(
            {
                "doc_id": pa.array(out_id, pa.int64()),
                "h": pa.array(out_h, pa.int64()),
                "side": pa.array(out_side, pa.int8()),
                "__b": pa.array(
                    (out_h.astype(np.uint64) % np.uint64(n_bkt)).astype(
                        np.int32
                    ),
                    pa.int32(),
                ),
            }
        )

    def admit(g: pd.DataFrame) -> pd.DataFrame:
        old = g.loc[g["side"] == 0, "h"].to_numpy()
        new = g[g["side"] == 1]
        keep = ~np.isin(new["h"].to_numpy(), old)
        return pd.DataFrame({"doc_id": new["doc_id"].to_numpy()[keep]})

    return (
        ds.map_batches(sides, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(admit, batch_format="pandas")
    )


def q_zipf_fit(sf_dir: str):
    """Zipf-law fit of the corpus token-frequency distribution — the
    one-scalar corpus health check (natural language sits near slope
    -1 on log(rank)-log(freq); boilerplate-heavy or deduplicated-to-
    death corpora drift off it; Zipf 1949, and every corpus datasheet
    since plots it). Least-squares slope over (ln rank, ln freq) with
    rank = row_number by (freq desc, token asc):

        slope = (n·Σxy − Σx·Σy) / (n·Σxx − (Σx)²),  e4 fixed-point

    — the Pearson sufficient-statistics shape, float only in the
    final sums (e4 rounding absorbs summation-order ulp).

    Scale shape: ONE (token) combiner groupby (shuffle payload =
    per-batch distinct-token partials); the fit runs on the
    vocab-bounded frequency table (open-vocab corpora fit the top-K
    ranks — the standard practice anyway, since the tail is
    hapax-dominated). Output: (n_vocab, slope_e4)."""
    import polars as pl
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        g = (
            pl.from_arrow(batch.column("text"))
            .str.split(" ")
            .explode()
            .rename("tok")
            .value_counts()
            .with_columns(pl.col("count").cast(pl.Int64).alias("c"))
            .select(["tok", "c"])
        )
        return g.to_arrow()

    freq = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("tok")
        .aggregate(Sum("c", alias_name="c"))
        .to_pandas()  # vocab-bounded
    )
    freq = freq.sort_values(["c", "tok"], ascending=[False, True],
                            kind="mergesort").reset_index(drop=True)
    n = len(freq)
    x = np.log(np.arange(1, n + 1, dtype=np.float64))
    y = np.log(freq["c"].to_numpy().astype(np.float64))
    slope = (n * (x * y).sum() - x.sum() * y.sum()) / (
        n * (x * x).sum() - x.sum() ** 2
    )
    return pa.table(
        {
            "n_vocab": pa.array([n], pa.int64()),
            # sign-aware half-AWAY-from-zero (DuckDB round(); the zipf
            # slope is negative, so floor(x+0.5) alone would be wrong)
            "slope_e4": pa.array(
                [int(np.sign(slope) * np.floor(abs(slope) * 10_000 + 0.5))],
                pa.int64(),
            ),
        }
    )


def q_embedding_norms(sf_dir: str):
    """Per-label embedding L2-norm profile: count and integer-floor
    average of the e4-fixed-point norms. Norms are computed per row in
    one vectorized float64 matmul-free pass (square + row-sum + sqrt),
    snapped to int64 at e4 with half-away-from-zero rounding (the
    q_rrf_fusion recipe), and only integer partials cross the shuffle —
    so the group average is order-independent and hash-exact vs the SQL
    twin's list_transform/list_aggregate pipeline."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "embeddings", columns=["embedding", "label"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        mat = np.asarray(df["embedding"].tolist(), dtype=np.float64)
        norm = np.sqrt((mat * mat).sum(axis=1))
        e4 = np.floor(norm * 10_000 + 0.5).astype(np.int64)
        g = (
            pd.DataFrame({"label": df["label"].astype("int64"), "e4": e4})
            .groupby("label", sort=False)["e4"]
            .agg(["count", "sum"])
            .reset_index()
        )
        return pa.table(
            {
                "label": pa.array(g["label"], pa.int64()),
                "n_vecs": pa.array(g["count"].astype("int64"), pa.int64()),
                "sum_e4": pa.array(g["sum"].astype("int64"), pa.int64()),
            }
        )

    out = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("label")
        .aggregate(
            Sum("n_vecs", alias_name="n_vecs"),
            Sum("sum_e4", alias_name="sum_e4"),
        )
    )
    return out.map_batches(
        lambda b: pa.table(
            {
                "label": b.column("label"),
                "n_vecs": b.column("n_vecs"),
                "avg_norm_e4": pc.cast(
                    pc.divide(b.column("sum_e4"), b.column("n_vecs")), pa.int64()
                ),
            }
        ),
        batch_format="pyarrow",
    )


# ------------------------------------------------------- r4 wave 6 ------
def q_word_len_hist(sf_dir: str):
    """Corpus word-length histogram: how many `[a-z]+` tokens of each
    character length exist. Per-batch C-regex findall + one np.bincount
    partial per batch -> an O(distinct lengths) groupby. The classic
    corpus-profile combiner: token text never crosses the shuffle,
    only (length, count) ints."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pa.Table:
        s = batch.column("text").to_pandas()
        lens = np.concatenate(
            [
                np.array([len(w) for w in lst], dtype=np.int64)
                for lst in s.str.findall(r"[a-z]+")
            ]
        ) if len(s) else np.array([], dtype=np.int64)
        if lens.size == 0:
            return pa.table(
                {"word_len": pa.array([], pa.int64()),
                 "n_words": pa.array([], pa.int64())}
            )
        cnt = np.bincount(lens)
        nz = np.nonzero(cnt)[0]
        return pa.table(
            {
                "word_len": pa.array(nz.astype(np.int64), pa.int64()),
                "n_words": pa.array(cnt[nz].astype(np.int64), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("word_len")
        .aggregate(Sum("n_words", alias_name="n_words"))
    )


def q_punct_density(sf_dir: str):
    """Per-language punctuation density in e4 (punct chars per total
    chars): integer char-count partials per (lang) flow through one
    combiner groupby; the e4 division happens on the O(langs) output.
    The punct class is the identical literal `[,.!?;:]` on both sides."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        punct = df["text"].str.count(r"[,.!?;:]").astype("int64")
        chars = df["text"].str.len().astype("int64")
        g = (
            pd.DataFrame({"lang": df["lang"], "p": punct, "c": chars})
            .groupby("lang", sort=False)[["p", "c"]]
            .sum()
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"], pa.string()),
                "p": pa.array(g["p"].astype("int64"), pa.int64()),
                "c": pa.array(g["c"].astype("int64"), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("lang")
        .aggregate(Sum("p", alias_name="p"), Sum("c", alias_name="c"))
    )
    return agg.map_batches(
        lambda b: pa.table(
            {
                "lang": b.column("lang"),
                "punct_chars": b.column("p"),
                "total_chars": b.column("c"),
                "density_e4": pc.cast(
                    pc.divide(
                        pc.multiply(b.column("p"), pa.scalar(10_000, pa.int64())),
                        b.column("c"),
                    ),
                    pa.int64(),
                ),
            }
        ),
        batch_format="pyarrow",
    )


def q_ttr_by_source(sf_dir: str):
    """Type-token ratio per source (vocabulary richness, e4): distinct
    `[a-z]+` words over total words. Batches emit per-(source, word)
    partial counts, ONE groupby collapses the vocab-bounded grid, and
    the distinct/total division reads off the O(sources) rollup —
    full text never shuffles, only (source, word, n) rows bounded by
    |sources| x |vocab|."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        rows = df["text"].str.findall(r"[a-z]+")
        src_rep = np.repeat(df["source"].to_numpy(), rows.str.len().to_numpy())
        words = np.concatenate([np.asarray(r, dtype=object) for r in rows]) if len(
            rows
        ) else np.array([], dtype=object)
        g = (
            pd.DataFrame({"source": src_rep, "word": words})
            .groupby(["source", "word"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "word": pa.array(g["word"], pa.string()),
                "n": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    grid = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "word"])
        .aggregate(Sum("n", alias_name="n"))
    )

    def rollup(g: pd.DataFrame) -> pd.DataFrame:
        total = int(g["n"].sum())
        distinct = int(len(g))
        return pd.DataFrame(
            {
                "source": [g["source"].iloc[0]],
                "n_words": [total],
                "n_distinct": [distinct],
                "ttr_e4": [distinct * 10_000 // total],
            }
        )

    return grid.groupby("source").map_groups(rollup, batch_format="pandas")


def q_source_lang_matrix(sf_dir: str):
    """Source x language doc-count matrix — the corpus composition
    grid every datasheet opens with; pure combiner."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "documents", columns=["source", "lang"])

    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        g = (
            df.groupby(["source", "lang"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "source": pa.array(g["source"], pa.string()),
                "lang": pa.array(g["lang"], pa.string()),
                "n_docs": pa.array(g["n"].astype("int64"), pa.int64()),
            }
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby(["source", "lang"])
        .aggregate(Sum("n_docs", alias_name="n_docs"))
    )


def q_embedding_dim_stats(sf_dir: str):
    """Per-dimension embedding profile: count and integer-avg of the
    sign-aware e4 fixed-point values of each of the 64 dims. One
    vectorized (batch_rows x 64) pass emits a 64-row partial per batch
    (sum + count per dim as int64), the groupby moves O(dims) rows —
    the monitoring statistic for embedding drift, with the same
    half-away-from-zero e4 snap on both sides."""
    from ray.data.aggregate import Sum

    ds = _pq(sf_dir, "embeddings", columns=["embedding"])

    def partial(batch: pa.Table) -> pa.Table:
        mat = np.asarray(batch.column("embedding").to_pylist(), dtype=np.float64)
        e4 = (np.sign(mat) * np.floor(np.abs(mat) * 10_000 + 0.5)).astype(np.int64)
        return pa.table(
            {
                "dim": pa.array(np.arange(1, e4.shape[1] + 1, dtype=np.int64),
                                pa.int64()),
                "n": pa.array(np.full(e4.shape[1], e4.shape[0], dtype=np.int64),
                              pa.int64()),
                "s": pa.array(e4.sum(axis=0), pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("dim")
        .aggregate(Sum("n", alias_name="n"), Sum("s", alias_name="s"))
    )

    def finish(b: pa.Table) -> pa.Table:
        n = b.column("n").to_numpy(zero_copy_only=False)
        s = b.column("s").to_numpy(zero_copy_only=False)
        # SQL integer division is TRUNCATED toward zero for negatives;
        # numpy // floors — use explicit trunc division
        avg = (np.sign(s) * (np.abs(s) // n)).astype(np.int64)
        return pa.table(
            {
                "dim": b.column("dim"),
                "n_vecs": b.column("n"),
                "avg_e4": pa.array(avg, pa.int64()),
            }
        )

    return agg.map_batches(finish, batch_format="pyarrow")


# ------------------------------------------------ round-5 final wave ----
def q_freq_filter(sf_dir: str, min_count: int = 5, max_df_pct: int = 60):
    """Vocabulary frequency-pruning PLAN (the min-count / max-document-
    frequency gate every tokenizer- or embedding-vocab build runs
    before fitting — the sklearn CountVectorizer min_df/max_df
    contract, Manning/Raghavan/Schuetze IIR ch.2 term statistics):
    per token, total count, document frequency, and the gate decision
    — 'drop_rare' (cnt < ``min_count``), 'drop_common' (stopword-like:
    df > ``max_df_pct``% of docs), else 'keep'. Emitting the full
    plan rather than the survivors is what a curation run records
    anyway (the drop lists ARE the artifact), and it hash-checks every
    vocabulary row. The fixture vocab is fully saturated (every
    natural token clears min_count), so — the q_dup_rate_by_source
    planting discipline — every 11th doc contributes a doc-unique
    'rare-<id>' token so the drop_rare branch fires at every sf; the
    twin plants the identical rows via UNION ALL.

    Scale shape: ONE corpus pass — each batch lowercases + whitespace-
    tokenizes in polars (Rust regex, zero Python per row) and emits
    per-batch (token, cnt, df) partials; because every document lives
    in exactly one batch, per-batch distinct-doc counts are exact df
    partials and the single token-keyed groupby moves per-batch
    vocabulary partials, never one row per occurrence. The df gate
    compares integers (df * 100 <= max_df_pct * N) with N from parquet
    metadata (exact, no scan)."""
    import polars as pl
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    n_docs = pq_mod.read_metadata(
        os.path.join(sf_dir, "documents.parquet")
    ).num_rows
    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)

    def partial(batch: pa.Table) -> pa.Table:
        toks = (
            pl.from_arrow(batch)
            .select(
                doc_id=pl.col("doc_id"),
                token=pl.col("text").str.to_lowercase().str.extract_all(r"\S+"),
            )
            .explode("token")
            .drop_nulls("token")
        )
        planted = (
            pl.from_arrow(batch)
            .filter(pl.col("doc_id") % 11 == 0)
            .select(
                doc_id=pl.col("doc_id"),
                token=pl.lit("rare-") + pl.col("doc_id").cast(pl.String),
            )
        )
        df = pl.concat([toks, planted])
        cnt = df.group_by("token").len().rename({"len": "cnt"})
        dfreq = (
            df.unique(subset=["doc_id", "token"])
            .group_by("token")
            .len()
            .rename({"len": "df"})
        )
        j = cnt.join(dfreq, on="token")
        return pa.table(
            {
                "token": j["token"].to_arrow(),
                "cnt": j["cnt"].cast(pl.Int64).to_arrow(),
                "df": j["df"].cast(pl.Int64).to_arrow(),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("token")
        .aggregate(Sum("cnt", alias_name="cnt"), Sum("df", alias_name="df"))
    )

    def gate(batch: pa.Table) -> pa.Table:
        cnt = batch.column("cnt")
        dfc = batch.column("df")
        rare = pc.less(cnt, min_count)
        common = pc.greater(pc.multiply(dfc, 100), max_df_pct * n_docs)
        action = pc.if_else(
            rare,
            pa.scalar("drop_rare"),
            pc.if_else(common, pa.scalar("drop_common"), pa.scalar("keep")),
        )
        return batch.append_column("action", action)

    return agg.map_batches(gate, batch_format="pyarrow")


def q_cross_source_dups(sf_dir: str):
    """Cross-source duplicate matrix (the corpus-forensics report run
    before mixing feeds: which source PAIRS share identical documents —
    mirror feeds, syndication, scraper overlap; Dolma/CCNet-style
    provenance diagnostics): for every source pair (a < b), the number
    of distinct texts present in BOTH sources.

    The fixture corpus is dup-free, so — exactly like
    q_dup_rate_by_source — deterministic dup mass is planted (every
    7th doc collapses to the shared template 'dup-' || (doc_id//7)%13;
    source is doc_id%20 in the fixture, so the 13 templates land in
    rotating sources and genuinely cross source boundaries) and the
    DuckDB twin applies the same CASE, doubling as the hash-collision
    canary.

    Scale shape: per-batch local unique on (source, hash64(text))
    8-byte keys, ONE text-hash-keyed shuffle; each map_group holds one
    text's source set (bounded by the source COUNT, a small constant by
    definition — never corpus-sized) and emits its (a < b) pairs via
    np.triu_indices; a final tiny pair-keyed groupby sums. Only
    (source_a, source_b, n) rows ever reach the driver."""
    import polars as pl

    from ray.data.aggregate import Sum

    from ..functions.hashing import hash64

    ds = _pq(sf_dir, "documents", columns=["doc_id", "source", "text"], split=True)

    def to_keys(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).select(
            source=pl.col("source"),
            key=pl.when(pl.col("doc_id") % 7 == 0)
            .then(
                pl.lit("dup-")
                + ((pl.col("doc_id") // 7) % 13).cast(pl.String)
            )
            .otherwise(pl.col("text")),
        )
        sub = df.unique()
        h = hash64(sub["key"].to_list()).astype(np.int64)
        return pa.table(
            {
                "source": sub["source"].to_arrow(),
                "h": pa.array(h, pa.int64()),
            }
        )

    def pairs(g: pa.Table) -> pa.Table:
        srcs = np.sort(
            np.asarray(pc.unique(g.column("source")).to_pylist(), dtype=object)
        )
        if len(srcs) < 2:
            return pa.table(
                {"source_a": pa.array([], pa.string()),
                 "source_b": pa.array([], pa.string()),
                 "n": pa.array([], pa.int64())}
            )
        ia, ib = np.triu_indices(len(srcs), k=1)
        return pa.table(
            {"source_a": pa.array(srcs[ia], pa.string()),
             "source_b": pa.array(srcs[ib], pa.string()),
             "n": pa.array(np.ones(len(ia), np.int64), pa.int64())}
        )

    return (
        ds.map_batches(to_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("h")
        .map_groups(pairs, batch_format="pyarrow")
        .groupby(["source_a", "source_b"])
        .aggregate(Sum("n", alias_name="n_shared"))
    )


def q_ndcg(sf_dir: str, k: int = 10, n_queries: int = 10):
    """nDCG@k ranking-quality evaluation (Jarvelin & Kekalainen, TOIS
    2002 — the standard graded-relevance retrieval metric; every
    search/RAG eval harness reports it): per query, DCG@k of the
    system ranking over IDCG@k of the ideal ordering, with the
    exponential gain (2^rel - 1) / log2(pos + 1).

    Queries, scores and graded labels are deterministic arithmetic
    over doc_id (qid = doc_id % n_queries; score = Knuth
    multiplicative hash mod 1000003; rel = (doc_id*7 + doc_id%13) % 4)
    so the DuckDB window-function twin constructs the identical eval
    set. Both rankings tie-break on doc_id; within equal rel the DCG
    sum is ordering-invariant (the position->rel map is unchanged
    under equal-rel swaps), so engine and twin agree exactly; the
    float ratio rounds e6 half-away-from-zero (the q_rrf_fusion
    convention).

    Scale shape: per-batch partial top-k per qid for BOTH orderings
    (system: score desc; ideal: rel desc), merged on the driver with no
    full sort, so the driver merge sees <= 2*k*n_queries*blocks label
    rows, never the corpus. Output: (qid, ndcg_e6)."""
    ds = _pq(sf_dir, "documents", columns=["doc_id"], split=True)

    def part(batch: pa.Table) -> pa.Table:
        did = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        qid = did % n_queries
        score = (did * 2654435761) % 1000003
        rel = (did * 7 + did % 13) % 4
        out = []
        for kind, order_key in ((0, score), (1, rel)):
            # per-qid partial top-k: lexsort on (qid, -key, doc_id)
            idx = np.lexsort((did, -order_key, qid))
            q_sorted = qid[idx]
            pos = np.arange(len(idx)) - np.searchsorted(
                q_sorted, q_sorted, side="left"
            )
            keep = idx[pos < k]
            out.append(
                pd.DataFrame(
                    {"qid": qid[keep], "kind": kind, "rel": rel[keep],
                     "score": score[keep], "doc_id": did[keep]}
                )
            )
        m = pd.concat(out)
        return pa.table(
            {
                "qid": pa.array(m["qid"].to_numpy(), pa.int64()),
                "kind": pa.array(m["kind"].to_numpy().astype(np.int32), pa.int32()),
                "rel": pa.array(m["rel"].to_numpy(), pa.int64()),
                "score": pa.array(m["score"].to_numpy(), pa.int64()),
                "doc_id": pa.array(m["doc_id"].to_numpy(), pa.int64()),
            }
        )

    parts = (
        ds.map_batches(part, batch_format="pyarrow", zero_copy_batch=True)
        .to_pandas()  # <= 2*k*n_queries*blocks rows
    )
    disc = 1.0 / np.log2(np.arange(1, k + 1) + 1.0)
    qids, ndcg = [], []
    for qid, g in parts.groupby("qid", sort=True):
        sys_g = g[g["kind"] == 0].sort_values(
            ["score", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        ide_g = g[g["kind"] == 1].sort_values(
            ["rel", "doc_id"], ascending=[False, True], kind="mergesort"
        ).head(k)
        gain_s = (2.0 ** sys_g["rel"].to_numpy(dtype=np.float64)) - 1.0
        gain_i = (2.0 ** ide_g["rel"].to_numpy(dtype=np.float64)) - 1.0
        dcg = float(np.sum(gain_s * disc[: len(gain_s)]))
        idcg = float(np.sum(gain_i * disc[: len(gain_i)]))
        qids.append(int(qid))
        ndcg.append(
            int(np.floor(dcg / idcg * 1_000_000 + 0.5)) if idcg > 0 else 0
        )
    return pa.table(
        {
            "qid": pa.array(qids, pa.int64()),
            "ndcg_e6": pa.array(ndcg, pa.int64()),
        }
    )


def q_dedup_keep_best(sf_dir: str):
    """Quality-aware exact dedup (keep-BEST, not keep-first — the LLM-
    curation flavor: when a page is scraped N times, keep the longest/
    highest-quality capture and drop the rest; CCNet and RefinedWeb
    both resolve exact-dup groups by a quality key, not arrival order).
    Per distinct text, keep the doc with the largest ``n_chars``
    (doc_id ascending tie-break). Dup mass is planted exactly like
    q_cross_source_dups ('dup-' || (doc_id//7)%13 for every 7th doc)
    and the twin applies the same CASE.

    Scale shape: the max/argmax combiner is associative, so each batch
    first reduces to its LOCAL best per 8-byte text hash (one polars
    sort + first-per-key, zero Python per row) and the single shuffle
    — keyed on the COARSE bucket h % n_buckets, the dedup_first
    discipline: O(n_buckets) Python group calls, not O(#texts) —
    moves at most one row per (batch, key); a template-heavy corpus
    collapses map-side, the combiner discipline.
    Output: (doc_id, n_chars) of the keepers."""
    import polars as pl

    from ..functions.hashing import hash64

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text", "n_chars"], split=True)
    n_buckets = default_buckets()

    def local_best(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).select(
            doc_id=pl.col("doc_id"),
            n_chars=pl.col("n_chars"),
            key=pl.when(pl.col("doc_id") % 7 == 0)
            .then(
                pl.lit("dup-")
                + ((pl.col("doc_id") // 7) % 13).cast(pl.String)
            )
            .otherwise(pl.col("text")),
        )
        hu = hash64(df["key"].to_list())
        df = df.drop("key").with_columns(
            h=pl.Series(hu.astype(np.int64))
        ).sort(
            ["h", "n_chars", "doc_id"], descending=[False, True, False]
        )
        best = df.unique(subset=["h"], keep="first", maintain_order=True)
        b = (
            best["h"].to_numpy().astype(np.uint64) % np.uint64(n_buckets)
        ).astype(np.int32)
        return pa.table(
            {
                "b": pa.array(b, pa.int32()),
                "h": best["h"].to_arrow(),
                "doc_id": best["doc_id"].to_arrow(),
                "n_chars": best["n_chars"].to_arrow(),
            }
        )

    def final_best(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["h", "n_chars", "doc_id"],
            ascending=[True, False, True],
            kind="mergesort",
        )
        return g.drop_duplicates(subset=["h"], keep="first")[
            ["doc_id", "n_chars"]
        ]

    return (
        ds.map_batches(local_best, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .map_groups(final_best, batch_format="pandas")
    )


# ---------------------------------------------------- soft dedup (weights) --
def q_soft_dedup(sf_dir: str):
    """SOFT deduplication — down-WEIGHT duplicates instead of dropping
    them (the SoftDeDup recipe, Xue et al. 2024 "To be or not to be
    (deduplicated)?" family: exact dropping loses the small signal that
    a text recurring N times carries, so every member of an exact-dup
    group of size n trains at weight 1/n and the group contributes one
    effective copy). Per distinct text, every doc keeps
    ``weight = 1/n_dups``. Dup mass is planted exactly like
    q_dedup_keep_best / q_cross_source_dups ('dup-' || (doc_id//7)%13
    for every 7th doc) and the DuckDB twin applies the same CASE.

    Scale shape: docs travel ONE shuffle as (h, doc_id) 8+8-byte rows,
    keyed on the COARSE bucket h % n_buckets (the dedup_first
    discipline — O(n_buckets) Python group calls, not O(#texts)), and
    each bucket computes group sizes with one vectorized transform. A
    pathologically hot template (10^8 copies of one boilerplate text at
    100 TB) still lands in one bucket; the fix is the q_chunk_dedup
    pattern (map-side partial counts + bucketed count join), kept out
    of the default path because weight assignment needs every doc row
    to pass through the exchange anyway. Output (doc_id, n_dups,
    weight)."""
    import polars as pl

    from ..functions.hashing import hash64

    ds = _pq(sf_dir, "documents", columns=["doc_id", "text"], split=True)
    n_buckets = default_buckets()

    def to_keys(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).select(
            doc_id=pl.col("doc_id"),
            key=pl.when(pl.col("doc_id") % 7 == 0)
            .then(
                pl.lit("dup-")
                + ((pl.col("doc_id") // 7) % 13).cast(pl.String)
            )
            .otherwise(pl.col("text")),
        )
        h = hash64(df["key"].to_list())
        return pa.table(
            {
                "b": pa.array((h % np.uint64(n_buckets)).astype(np.int32),
                              pa.int32()),
                "h": pa.array(h.astype(np.int64), pa.int64()),
                "doc_id": df["doc_id"].to_arrow(),
            }
        )

    def weights(g: pd.DataFrame) -> pd.DataFrame:
        n = g.groupby("h")["doc_id"].transform("size").to_numpy(np.int64)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_dups": n,
                "weight": 1.0 / n.astype(np.float64),
            }
        )

    return (
        ds.map_batches(to_keys, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .map_groups(weights, batch_format="pandas")
    )


# ------------------------------------------- theta-sketch set intersection --
def q_theta_intersect(sf_dir: str, k: int = 1 << 16):
    """Distinct-set INTERSECTION cardinality between every pair of
    event types via KMV/theta sketches (Bar-Yossef et al. 2002;
    Dasgupta et al. 2016 "Theta sketch framework") — the cross-segment
    audience-overlap report ("how many users both viewed AND
    purchased") that an exact COUNT(DISTINCT) self-join would compute
    with an all-to-all user shuffle; the sketch answers it with ONE
    bounded exchange of at most k hashes per (batch, type).

    KMV: per type keep the k SMALLEST distinct uint64 hashes of
    user_id. Sketches merge associatively (union = k smallest of the
    concat), and A∩B is estimated by counting shared hashes below the
    joint threshold theta = min(theta_A, theta_B). An UNSATURATED
    sketch (fewer than k values survived) has seen every distinct hash
    of its set, so the estimate degenerates to the EXACT intersection
    — the fixture (and any segment with < 64Ki distinct users) sits in
    that regime, which is what the DuckDB COUNT-DISTINCT twin checks;
    at 10^9 users per segment the same code answers with relative
    error ~1/sqrt(k) ≈ 0.4% and the exchange stays k * n_types rows.

    Output: (type_a, type_b, n_common) for a < b with n_common > 0."""
    import polars as pl

    from ..functions.hashing import hash64

    ds = _pq(sf_dir, "events", columns=["event_type", "user_id"], split=True)

    def local_sketch(batch: pa.Table) -> pa.Table:
        df = pl.from_arrow(batch).unique()
        h = hash64(df["user_id"])  # uint64, keyed polars hash
        out_t, out_h = [], []
        types = df["event_type"].to_numpy()
        order = np.lexsort((h, types))
        types, h = types[order], h[order]
        # per-type k smallest distinct hashes, vectorized per run
        starts = np.flatnonzero(
            np.concatenate(([True], types[1:] != types[:-1]))
        )
        ends = np.concatenate((starts[1:], [len(types)]))
        for s, e in zip(starts, ends):  # n_event_types runs, not rows
            hh = np.unique(h[s:e])[:k]
            out_t.append(np.repeat(types[s], len(hh)))
            out_h.append(hh)
        if not out_t:
            return pa.table(
                {"event_type": pa.array([], pa.string()),
                 "h": pa.array([], pa.uint64())}
            )
        return pa.table(
            {
                "event_type": pa.array(np.concatenate(out_t)),
                "h": pa.array(np.concatenate(out_h), pa.uint64()),
            }
        )

    def merge_sketch(g: pd.DataFrame) -> pd.DataFrame:
        hh = np.unique(g["h"].to_numpy().astype(np.uint64))[:k]
        return pd.DataFrame(
            {"event_type": [g["event_type"].iloc[0]], "sketch": [hh.tolist()]}
        )

    sk = (
        ds.map_batches(local_sketch, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("event_type")
        .map_groups(merge_sketch, batch_format="pandas")
    ).to_pandas()  # n_types rows, <= k hashes each — driver-small by design

    types = sorted(sk["event_type"].tolist())
    by_t = {r["event_type"]: np.asarray(r["sketch"], np.uint64)
            for _, r in sk.iterrows()}
    rows = []
    for i, a in enumerate(types):
        for b in types[i + 1:]:
            sa, sb = by_t[a], by_t[b]
            if len(sa) < k and len(sb) < k:  # both exact — no threshold cut
                n = int(len(np.intersect1d(sa, sb, assume_unique=True)))
            else:
                theta = min(sa[-1], sb[-1])  # kth-smallest joint threshold
                common = np.intersect1d(sa, sb, assume_unique=True)
                below = common[common <= theta]
                # est = |common below theta| / (theta / 2^64)
                n = int(round(len(below) * (2.0 ** 64) / float(theta)))
            if n > 0:
                rows.append((a, b, n))
    return pd.DataFrame(
        rows, columns=["type_a", "type_b", "n_common"]
    ).astype({"n_common": np.int64})


# -------------------------------------- weighted reservoir sample (A-Res) --
def q_weighted_sample(sf_dir: str, n_sample: int = 100):
    """Weighted sampling WITHOUT replacement via the exponential race
    (Efraimidis & Spirakis 2006, A-Res): each doc draws
    ``key = -ln(u)/w`` with weight w = n_chars and a DETERMINISTIC
    uniform u from the Knuth multiplicative hash of doc_id (the same
    SQL-expressible gate q_data_mix / q_train_split use, so the DuckDB
    twin reproduces the EXACT selection); the sample is the n_sample
    smallest keys. Length-weighted sampling is the standard corpus-
    probe shape (inspect/eval tokens, not documents, so long docs must
    be proportionally likelier).

    Scale shape: the race is embarrassingly parallel — each block
    reduces to its LOCAL n_sample smallest keys (the union of block
    top-k provably contains the global top-k), so the final sort runs
    over <= n_sample * n_blocks rows, never the corpus. Same partial
    top-k + tiny-global-merge layout as q_ann_knn. Output (doc_id,
    n_chars) of the selected rows."""
    ds = _pq(sf_dir, "documents", columns=["doc_id", "n_chars"], split=True)

    def local_topk(batch: pa.Table) -> pa.Table:
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
        w = batch.column("n_chars").to_numpy(zero_copy_only=False).astype(np.float64)
        u = (
            (ids.astype(np.uint64) * np.uint64(2654435761))
            % np.uint64(1 << 32)
        ).astype(np.float64)
        u = (u + 1.0) / np.float64(1 << 32)  # (0, 1], never ln(0)
        key = -np.log(u) / w
        order = np.lexsort((ids, key))[:n_sample]
        return pa.table(
            {
                "doc_id": pa.array(ids[order], pa.int64()),
                "n_chars": pa.array(
                    batch.column("n_chars").take(pa.array(order)).to_numpy(
                        zero_copy_only=False
                    ).astype(np.int64),
                    pa.int64(),
                ),
                "key": pa.array(key[order], pa.float64()),
            }
        )

    pre = ds.map_batches(local_topk, batch_format="pyarrow", zero_copy_batch=True)
    final = pre.sort(["key", "doc_id"]).limit(n_sample)
    return final.select_columns(["doc_id", "n_chars"])


# --------------------------------------- link prediction (common neighbors) --
def q_common_neighbors(sf_dir: str, min_common: int = 3, hub_cap: int = 65536):
    """Common-neighbor link prediction over the deterministic customer
    graph (the q_pagerank / q_degree_stats edge set: src = o_custkey,
    dst = o_orderkey % |customer|) — the classic similarity score
    (Liben-Nowell & Kleinberg 2003) a crawl planner uses to find
    mirror-candidate hosts / co-citation pairs: node pairs (a < b)
    whose OUT-neighborhoods share at least ``min_common`` targets,
    with the shared count.

    Scale shape: the pair explosion is Σ indeg² over dst groups — the
    wedge count, exactly q_triangle_count's shape — so dst groups
    co-locate via ONE bucketed shuffle (dst % n_buckets), each bucket
    dedups its (src, dst) edges globally and emits wedge pairs through
    the vectorized ``_group_pairs`` kernel (zero per-group Python),
    pre-counted per bucket; the cross-bucket merge keys on the COARSE
    pair-hash bucket (the _dedup_pairs discipline — a raw
    (a, b)-keyed Ray aggregate pays per-group reduce overhead on
    #distinct-pairs groups, measured 58 s vs 0.4 s at sf0.1) and sums
    + thresholds with one vectorized polars pass per bucket.
    ``hub_cap`` drops dst groups above that
    in-degree (a 10^7-indeg hub contributes Σcap² wedges to EVERY
    pair — the standard heavy-hub exclusion, inactive at fixture
    scale so the DuckDB twin stays exact)."""
    import polars as pl

    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)
    n_buckets = default_buckets()

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = (
            batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
            % n_nodes
        )
        df = pl.DataFrame({"src": src, "dst": dst}).unique()
        return pa.table(
            {
                "b": pa.array(
                    (df["dst"].to_numpy() % n_buckets).astype(np.int32), pa.int32()
                ),
                "src": df["src"].to_arrow(),
                "dst": df["dst"].to_arrow(),
            }
        )

    def bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
        df = pl.from_pandas(g[["src", "dst"]]).unique()
        deg = df.group_by("dst").len(name="d")
        keep = deg.filter(pl.col("d") <= hub_cap)["dst"]
        df = df.filter(pl.col("dst").is_in(keep)).sort("dst")
        dst = df["dst"].to_numpy()
        src = df["src"].to_numpy()
        if len(dst) == 0:
            return pd.DataFrame(
                {"node_a": pd.Series([], dtype=np.int64),
                 "node_b": pd.Series([], dtype=np.int64),
                 "n": pd.Series([], dtype=np.int64)}
            )
        (pa_, pb_), = _group_pairs(dst, [src])
        lo, hi = np.minimum(pa_, pb_), np.maximum(pa_, pb_)
        out = (
            pl.DataFrame({"node_a": lo, "node_b": hi})
            .group_by(["node_a", "node_b"])
            .len(name="n")
            .with_columns(pl.col("n").cast(pl.Int64))
        )
        b2 = (
            (
                out["node_a"].to_numpy().astype(np.uint64)
                * np.uint64(2654435761)
                ^ out["node_b"].to_numpy().astype(np.uint64)
            )
            % np.uint64(n_buckets)
        ).astype(np.int32)
        return out.with_columns(b2=pl.Series(b2)).to_pandas()

    def merge_counts(g: pd.DataFrame) -> pd.DataFrame:
        out = (
            pl.from_pandas(g[["node_a", "node_b", "n"]])
            .group_by(["node_a", "node_b"])
            .agg(pl.col("n").sum().alias("n_common"))
            .filter(pl.col("n_common") >= min_common)
        )
        return out.to_pandas()

    return (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("b")
        .map_groups(bucket_pairs, batch_format="pandas")
        .groupby("b2")
        .map_groups(merge_counts, batch_format="pandas")
    )


# ------------------------------------------------ degree assortativity ----
def q_degree_assortativity(sf_dir: str):
    """Degree assortativity of the deterministic customer graph (Newman
    2002): the Pearson correlation between out-degree(src) and
    in-degree(dst) across distinct edges — positive means hubs link to
    hubs (social-network shape), negative means hubs link to leaves
    (the web/crawl-graph shape that makes per-host budgets matter).

    Determinism contract: every moment (n, Σx, Σy, Σxy, Σx², Σy²) is an
    EXACT int64 — batching/order-free — and the final Pearson formula
    runs ONCE on the driver with the same operation order as the DuckDB
    twin (each int moment < 2^53, so the float product/sqrt round
    identically), rounded half-away to e6.

    Scale shape: two bucketed shuffles, both node-co-locating — edges
    dedup + out-degree resolve in src buckets (every (src, *) row lands
    in src's bucket, so the local count IS the global out-degree), then
    in-degree + moment partials resolve in dst buckets; only
    6-number moment rows ever reach the driver."""
    import polars as pl

    import pyarrow.parquet as pq_mod

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows
    orders = _pq(sf_dir, "orders", columns=["o_custkey", "o_orderkey"], split=True)
    n_buckets = default_buckets()

    def to_edges(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = (
            batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
            % n_nodes
        )
        df = pl.DataFrame({"src": src, "dst": dst}).unique()
        return pa.table(
            {
                "bs": pa.array(
                    (df["src"].to_numpy() % n_buckets).astype(np.int32), pa.int32()
                ),
                "src": df["src"].to_arrow(),
                "dst": df["dst"].to_arrow(),
            }
        )

    def src_resolve(g: pd.DataFrame) -> pd.DataFrame:
        df = pl.from_pandas(g[["src", "dst"]]).unique()
        df = df.with_columns(
            x=pl.len().over("src").cast(pl.Int64)  # global out-degree
        )
        bd = (df["dst"].to_numpy().astype(np.int64) % n_buckets).astype(np.int32)
        out = df.select(["dst", "x"]).to_pandas()
        out["bd"] = bd
        return out

    def dst_moments(g: pd.DataFrame) -> pd.DataFrame:
        df = pl.from_pandas(g[["dst", "x"]]).with_columns(
            y=pl.len().over("dst").cast(pl.Int64)  # global in-degree
        )
        x = df["x"].to_numpy().astype(np.int64)
        y = df["y"].to_numpy().astype(np.int64)
        return pd.DataFrame(
            {
                "n": [np.int64(len(x))],
                "sx": [x.sum()],
                "sy": [y.sum()],
                "sxy": [(x * y).sum()],
                "sxx": [(x * x).sum()],
                "syy": [(y * y).sum()],
            }
        )

    parts = (
        orders.map_batches(to_edges, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("bs")
        .map_groups(src_resolve, batch_format="pandas")
        .groupby("bd")
        .map_groups(dst_moments, batch_format="pandas")
    ).to_pandas()  # <= n_buckets moment rows

    n = int(parts["n"].sum())
    sx, sy = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxy = int(parts["sxy"].sum())
    sxx, syy = int(parts["sxx"].sum()), int(parts["syy"].sum())
    num = float(n * sxy - sx * sy)
    den = float(np.sqrt(float(n * sxx - sx * sx) * float(n * syy - sy * sy)))
    r = num / den
    return pd.DataFrame(
        {
            "n_edges": [np.int64(n)],
            "assortativity_e6": [np.int64(np.floor(r * 1_000_000 + 0.5))],
        }
    )


# -------------------------------------------- personalized PageRank (PPR) --
def q_ppr(
    sf_dir: str,
    n_iters: int = 4,
    seed_mod: int = 41,
    force_distributed: bool = False,
):
    """Personalized PageRank from a seed set (the FOCUSED-crawl
    prioritizer — Haveliwala 2002 topic-sensitive PageRank; a crawler
    chasing a topic ranks frontier hosts by random-walk-with-restart
    proximity to its seeds rather than global authority): teleport mass
    and the initial distribution concentrate on {node % seed_mod == 0}.

    Same integer fixed-point determinism contract, size-adaptive
    broadcast/distributed forks, and combiner layout as q_pagerank —
    this IS q_pagerank with a seed teleport vector, and seed membership
    is node arithmetic, so even the distributed fork ships no vector.
    Output (custkey, ppr_e12) over all nodes (non-seeds score only via
    in-links from the walk)."""
    out = q_pagerank(
        sf_dir, n_iters=n_iters, seed_mod=seed_mod,
        force_distributed=force_distributed,
    )
    if isinstance(out, pa.Table):
        return out.rename_columns(["custkey", "ppr_e12"])
    return out.map_batches(
        lambda b: b.rename_columns(["custkey", "ppr_e12"]),
        batch_format="pyarrow",
    )


# ------------------------------------------------------ thumbnail stage ----
def _box_thumb(arr: np.ndarray, factor: int) -> np.ndarray:
    """Exact integer box-filter downsample: each output pixel is the
    floor-mean of a factor x factor tile (uint32 tile sums // factor^2),
    so the kernel is bit-deterministic across platforms — the property
    every fidelity pin below relies on. Dims must divide by factor
    (the part-keyed corpus guarantees it)."""
    h, w, c = arr.shape
    th, tw = h // factor, w // factor
    tiles = arr.astype(np.uint32).reshape(th, factor, tw, factor, c)
    return (tiles.sum(axis=(1, 3)) // (factor * factor)).astype(np.uint8)


def q_thumbnail(sf_dir: str, factor: int = 8):
    """Driver-trust thumbnail gate (the image-pipeline stage every
    multimodal corpus build runs between fetch and train): decode each
    row of the part-keyed codec corpus with the REAL decoders
    (png/qpng + T.81 jpeg + LZW gif), box-downsample by ``factor``
    with the exact integer kernel, and compare against the thumbnail
    of the REGENERATED source pixels — ok = bytes-equal for png,
    PSNR >= 40 dB for the lossy fmts (box means average codec noise
    DOWN, so the thumbnail bound is strictly easier than the full-res
    invariant it inherits from BASELINE.json:15). The DuckDB twin
    predicts (thumb_w, thumb_h, fmt, ok=TRUE) from ``part`` key
    arithmetic, so a wrong dimension, failed decode, broken kernel or
    fidelity miss is a driver hash mismatch.

    Scale shape: pure map — no shuffle, state-free tasks, batch_size
    sized small because rows carry image payloads (the 100 TB layout:
    blob columns want few rows per batch, ray.data streams blocks)."""
    path = _ensure_codec_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def thumb(batch: pa.Table) -> pa.Table:
        from ..fixtures import _pixels
        from ..functions.image import decode_image, psnr

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        tws, ths, oks = [], [], []
        for i, f, b in zip(ids, fmts, blobs):
            k = int(i[3:])
            arr = decode_image(b, f)  # strict: raises on bad bytes
            got = _box_thumb(arr, factor)
            src = _pixels(
                np.random.default_rng(k), 32 + 16 * ((k // 3) % 3), 32 + 16 * (k % 3)
            )
            want = _box_thumb(src, factor)
            ths.append(int(got.shape[0]))
            tws.append(int(got.shape[1]))
            if got.shape != want.shape:
                oks.append(False)
            elif f == "png":
                oks.append(bool(np.array_equal(got, want)))
            else:
                oks.append(bool(psnr(got, want) >= 40.0))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "thumb_w": pa.array(tws, pa.int32()),
                "thumb_h": pa.array(ths, pa.int32()),
                "fmt": pa.array(fmts, pa.string()),
                "ok": pa.array(oks, pa.bool_()),
            }
        )

    return ds.map_batches(thumb, batch_format="pyarrow", batch_size=16)


# ----------------------------------------------------- letterbox detect ----
def _ensure_letterbox_oracle(sf_dir: str) -> str:
    """SQL-predictable letterbox corpus keyed off ``part`` (the codec-
    oracle trick, dataops._ensure_codec_oracle): for every p_partkey <
    96 the image is a 48x64 PNG whose top 2*(k % 5) and bottom
    3*(k % 4) rows are pure black bars around fixture content. The
    first and last CONTENT rows get one pixel forced to white, so the
    black runs are provably exact (no probabilistic 'content row
    happens to be black' edge) and the detector's answer is pure key
    arithmetic for the DuckDB twin."""
    import pyarrow.parquet as pq_mod

    from ..fixtures import _pixels
    from ..functions.image import encode_image

    path = _cache_path("letterbox_oracle96.parquet", sf_dir)
    if not os.path.exists(path):
        keys = pq_mod.read_table(
            os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
        ).column("p_partkey").to_numpy()
        keys = np.sort(keys[keys < 96])
        ids, blobs = [], []
        h, w = 48, 64
        for k in keys.tolist():
            pt, pb = 2 * (k % 5), 3 * (k % 4)
            px = _pixels(np.random.default_rng(1000 + k), h, w)
            px[:pt] = 0
            if pb:
                px[h - pb:] = 0
            px[pt, 0] = 255  # first content row provably non-black
            px[h - 1 - pb, 0] = 255  # last content row provably non-black
            ids.append(f"img{k}")
            blobs.append(encode_image(px, "png"))
        tbl = pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
            }
        )
        tmp = path + ".tmp"
        pq_mod.write_table(tbl, tmp)
        os.replace(tmp, path)
    return path


def q_letterbox(sf_dir: str):
    """Letterbox/pillarbox bar detection (the border-crop pass of an
    image-curation pipeline — black padding bars carry no training
    signal and skew aspect/phash statistics): decode each PNG of the
    part-keyed letterbox corpus and count the leading and trailing
    ALL-BLACK pixel rows, fully vectorized ((arr == 0).all over the
    row axis + argmin for the run length — no Python over pixels).
    Output (image_id, pad_top, pad_bottom, content_h); the DuckDB twin
    predicts every value from ``part`` key arithmetic (pads are planted
    as 2*(k%5) / 3*(k%4) on a 48-row canvas), so a driver hash match
    certifies the real decode + detection to the row.

    Scale shape: pure map over blob batches, no shuffle — same contract
    as q_thumbnail."""
    path = _ensure_letterbox_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def detect(batch: pa.Table) -> pa.Table:
        from ..functions.image import decode_image

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        pts, pbs, chs = [], [], []
        for b in blobs:
            arr = decode_image(b, "png")
            black = (arr == 0).all(axis=(1, 2))
            # the corpus guarantees a non-black row exists
            pt = int(np.argmin(black))
            pb = int(np.argmin(black[::-1]))
            pts.append(pt)
            pbs.append(pb)
            chs.append(int(arr.shape[0]) - pt - pb)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "pad_top": pa.array(pts, pa.int32()),
                "pad_bottom": pa.array(pbs, pa.int32()),
                "content_h": pa.array(chs, pa.int32()),
            }
        )

    return ds.map_batches(detect, batch_format="pyarrow", batch_size=16)


# ---------------------------------------------------------- center crop ----
def q_center_crop(sf_dir: str):
    """Driver-trust center-crop gate (the square-crop preprocessing
    stage in front of patch/CLIP-style image models): decode each
    part-keyed corpus row with the REAL decoders, take the centered
    s x s crop with s = min(w, h), x0 = (w - s) // 2, y0 = (h - s) // 2,
    and fidelity-check the cropped pixels against the same crop of the
    regenerated source (bytes-equal for png, PSNR >= 40 dB for lossy
    fmts). The DuckDB twin predicts (crop_x, crop_y, crop_size, ok=TRUE)
    from ``part`` key arithmetic, so wrong geometry, failed decode or
    fidelity miss is a driver hash mismatch.

    Scale shape: pure map over blob batches, no shuffle (q_thumbnail's
    contract)."""
    path = _ensure_codec_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def crop(batch: pa.Table) -> pa.Table:
        from ..fixtures import _pixels
        from ..functions.image import decode_image, psnr

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        xs, ys, ss, oks = [], [], [], []
        for i, f, b in zip(ids, fmts, blobs):
            k = int(i[3:])
            arr = decode_image(b, f)  # strict: raises on bad bytes
            h, w = arr.shape[:2]
            s = min(h, w)
            x0, y0 = (w - s) // 2, (h - s) // 2
            got = arr[y0:y0 + s, x0:x0 + s]
            src = _pixels(
                np.random.default_rng(k), 32 + 16 * ((k // 3) % 3), 32 + 16 * (k % 3)
            )[y0:y0 + s, x0:x0 + s]
            xs.append(x0)
            ys.append(y0)
            ss.append(s)
            if got.shape != src.shape:
                oks.append(False)
            elif f == "png":
                oks.append(bool(np.array_equal(got, src)))
            else:
                oks.append(bool(psnr(got, src) >= 40.0))
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "crop_x": pa.array(xs, pa.int32()),
                "crop_y": pa.array(ys, pa.int32()),
                "crop_size": pa.array(ss, pa.int32()),
                "ok": pa.array(oks, pa.bool_()),
            }
        )

    return ds.map_batches(crop, batch_format="pyarrow", batch_size=16)


# ----------------------------------------------------- graph reciprocity ----
def q_reciprocity(sf_dir: str, n_buckets: int | None = None):
    """Link reciprocity — the fraction of distinct directed edges whose
    reverse edge also exists (Newman's r; on the web graph it separates
    mutual-link communities from pure hub->leaf broadcast structure,
    and a crawl planner reads it as "how much of the frontier points
    back at what we already hold"). Over q_pagerank's deterministic
    customer graph (src = o_custkey, dst = o_orderkey mod |customers|),
    self-loops excluded, multiplicities collapsed.

    Scale shape: per-batch partials emit the batch-distinct
    (lo, hi, dir) triples (unordered endpoints + direction bit), ONE
    shuffle on hash(lo, hi) % B co-locates both directions of every
    pair, per-bucket np.unique collapses global duplicates and counts
    pairs with both dirs present, and the driver sums B partial
    counters. Output: one row (n_edges, n_reciprocal, reciprocity_e6)
    with the integer half-away e6 rounding (q_host_gini's rule — no
    float divergence vs the twin)."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Sum

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows
    nb = n_buckets or default_buckets()

    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def partial(batch: pa.Table) -> pa.Table:
        src = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        dst = (
            batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
            % n_nodes
        )
        m = src != dst  # self-loops excluded
        src, dst = src[m], dst[m]
        lo, hi = np.minimum(src, dst), np.maximum(src, dst)
        d = (src > dst).astype(np.int64)
        trip = np.unique(np.stack([lo, hi, d], axis=1), axis=0)
        return pa.table(
            {
                "lo": pa.array(trip[:, 0], pa.int64()),
                "hi": pa.array(trip[:, 1], pa.int64()),
                "dir": pa.array(trip[:, 2], pa.int64()),
                "__b": pa.array(
                    ((trip[:, 0] * 1_000_003 + trip[:, 1]) % nb).astype(np.int32),
                    pa.int32(),
                ),
            }
        )

    def count_bucket(g: pa.Table) -> pa.Table:
        lo = g.column("lo").to_numpy(zero_copy_only=False)
        hi = g.column("hi").to_numpy(zero_copy_only=False)
        d = g.column("dir").to_numpy(zero_copy_only=False)
        trip = np.unique(np.stack([lo, hi, d], axis=1), axis=0)
        # rows per unordered pair: 1 = one direction, 2 = reciprocal
        pair = trip[:, :2]
        new = np.ones(len(pair), dtype=bool)
        if len(pair) > 1:
            new[1:] = (pair[1:] != pair[:-1]).any(axis=1)
        sizes = np.diff(np.append(np.flatnonzero(new), len(pair)))
        n_edges = int(len(trip))
        n_recip = int((sizes == 2).sum()) * 2
        return pa.table(
            {
                "n_edges": pa.array([n_edges], pa.int64()),
                "n_reciprocal": pa.array([n_recip], pa.int64()),
            }
        )

    agg = (
        ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)
        .groupby("__b")
        .map_groups(count_bucket, batch_format="pyarrow")
        .groupby(None)
        .aggregate(Sum("n_edges", alias_name="n_edges"),
                   Sum("n_reciprocal", alias_name="n_reciprocal"))
        .to_pandas()  # one row
    )
    n_edges = int(agg["n_edges"].iloc[0])
    n_recip = int(agg["n_reciprocal"].iloc[0])
    p = n_recip * 1_000_000
    rec_e6 = (2 * p + n_edges) // (2 * n_edges) if n_edges else 0
    return pa.table(
        {
            "n_edges": pa.array([n_edges], pa.int64()),
            "n_reciprocal": pa.array([n_recip], pa.int64()),
            "reciprocity_e6": pa.array([rec_e6], pa.int64()),
        }
    )


# ------------------------------------------------- component size profile ----
def q_cc_sizes(
    sf_dir: str,
    max_iters: int = 64,
    driver_edges_max: int = 4_000_000,
    force_distributed: bool = False,
    edge_mod: int = 17,
):
    """Connected-component SIZE histogram over a sparsified view of the
    deterministic customer graph (undirected; only orders with
    o_orderkey % edge_mod == 0 contribute edges, which puts the mean
    degree below the giant-component threshold so the profile has a
    real island tail — the full graph is supercritical and collapses
    to one component, an uninformative histogram) — the web-graph
    fragmentation report (Broder et al. 2000's 'bow tie' paper
    measures exactly this profile; a crawl planner reads it as "how
    much of the frontier is reachable from the seeds"). Output
    (component_size, n_components), customers with no qualifying
    orders counted as singleton components.

    Layout: per-batch distinct symmetrized (src, dst) partials, then
    the SHARED hash-min pointer-doubling CC core (q_dedup_clusters'):
    - orders rows <= driver_edges_max (exact parquet metadata, no
      scan): partial-distinct edge pairs collapse in one driver
      np.unique, labels resident on the driver, edge passes
      distributed (_cc_labels_driver);
    - above the gate (or force_distributed): distinct edges stay a
      DATASET (groupby distinct), labels stay dataset-resident through
      _cc_labels_distributed, and the histogram is two groupby-counts
      (per-label size, then per-size count) — nothing corpus-sized
      ever lands on the driver. Forks equivalence-tested.

    The DuckDB twin computes the same components via a recursive-CTE
    transitive closure (tractable at oracle scales; the giant
    component makes closure pairs O(n^2), which is exactly why the
    ENGINE uses log-diameter label propagation instead)."""
    import pyarrow.parquet as pq_mod

    from ray.data.aggregate import Count, Sum

    n_nodes = pq_mod.read_metadata(
        os.path.join(sf_dir, "customer.parquet")
    ).num_rows
    orders_rows = pq_mod.read_metadata(
        os.path.join(sf_dir, "orders.parquet")
    ).num_rows

    ds = _pq(sf_dir, "orders", columns=["o_orderkey", "o_custkey"])

    def partial(batch: pa.Table) -> pa.Table:
        ok = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = ok % edge_mod == 0
        a = (
            batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
        )[keep]
        b = ok[keep] % n_nodes
        sym = np.unique(
            np.concatenate(
                [np.stack([a, b], axis=1), np.stack([b, a], axis=1)], axis=0
            ),
            axis=0,
        )
        return pa.table(
            {
                "src": pa.array(sym[:, 0], pa.int64()),
                "dst": pa.array(sym[:, 1], pa.int64()),
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow", zero_copy_batch=True)

    if orders_rows <= driver_edges_max and not force_distributed:
        pairs = parts.to_pandas()  # ≤ 2·orders partial-distinct rows
        edges = np.unique(
            np.stack([pairs["src"].to_numpy(np.int64), pairs["dst"].to_numpy(np.int64)], axis=1),
            axis=0,
        )
        # below the gate the whole edge set is already driver-resident,
        # so per-round DISTRIBUTED edge passes (_cc_labels_driver) are
        # pure scheduling overhead — the same hash-min + pointer-double
        # kernel in numpy converges in microseconds (profiled 12 s ->
        # <1 s at sf0.1: ~10 groupby rounds of Ray overhead removed)
        nodes = np.unique(edges)
        src_i = np.searchsorted(nodes, edges[:, 0])
        dst_i = np.searchsorted(nodes, edges[:, 1])
        labels = np.arange(len(nodes), dtype=np.int64)
        for _ in range(max_iters):
            new = labels.copy()
            np.minimum.at(new, dst_i, labels[src_i])
            new = new[new]  # pointer doubling
            new = new[new]
            if np.array_equal(new, labels):
                break
            labels = new
        else:
            raise RuntimeError(
                "q_cc_sizes: numpy label propagation did not converge"
            )
        sizes = np.unique(labels, return_counts=True)[1]
        hist_sz, hist_n = np.unique(sizes, return_counts=True)
        hist = dict(zip(hist_sz.tolist(), hist_n.tolist()))
        n_iso = n_nodes - int(len(labels))
        if n_iso:
            hist[1] = hist.get(1, 0) + n_iso
        out_sz = sorted(hist)
        return pa.table(
            {
                "component_size": pa.array(out_sz, pa.int64()),
                "n_components": pa.array([hist[s] for s in out_sz], pa.int64()),
            }
        )

    # 100-TB fork: distinct edges and labels stay dataset-resident
    edges_ds = parts.groupby(["src", "dst"]).aggregate(Count(alias_name="_c")).map_batches(
        lambda b: b.select(["src", "dst"]), batch_format="pyarrow"
    )
    labels_ds = _cc_labels_distributed(edges_ds, max_iters, None)
    n_labeled = labels_ds.count()
    hist = (
        labels_ds.groupby("lbl")
        .aggregate(Count(alias_name="component_size"))
        .map_batches(
            lambda b: pa.table(
                {
                    "component_size": pc.cast(b.column("component_size"), pa.int64()),
                    "one": pa.array(np.ones(b.num_rows, np.int64), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
        .groupby("component_size")
        .aggregate(Sum("one", alias_name="n_components"))
        .to_pandas()  # |distinct sizes| rows — output-scale
    )
    n_iso = n_nodes - int(n_labeled)
    if n_iso:
        if (hist["component_size"] == 1).any():
            hist.loc[hist["component_size"] == 1, "n_components"] += n_iso
        else:
            hist = pd.concat(
                [hist, pd.DataFrame({"component_size": [1], "n_components": [n_iso]})],
                ignore_index=True,
            )
    hist = hist.sort_values("component_size").reset_index(drop=True)
    return pa.table(
        {
            "component_size": pa.array(hist["component_size"].astype("int64"), pa.int64()),
            "n_components": pa.array(hist["n_components"].astype("int64"), pa.int64()),
        }
    )


# ----------------------------------------------------------- blur detect ----
def _box5_blur(a: np.ndarray) -> np.ndarray:
    """5x5 box blur via an integral image (edge-replicate padding) —
    exact integer floor-means, bit-deterministic."""
    p = np.pad(a.astype(np.uint32), ((2, 2), (2, 2), (0, 0)), mode="edge")
    ii = np.zeros((p.shape[0] + 1, p.shape[1] + 1, a.shape[2]), np.uint64)
    ii[1:, 1:] = p.cumsum(0).cumsum(1)
    h, w = a.shape[:2]
    s = ii[5:h + 5, 5:w + 5] - ii[0:h, 5:w + 5] - ii[5:h + 5, 0:w] + ii[0:h, 0:w]
    return (s // 25).astype(np.uint8)


def _laplacian_var(px: np.ndarray) -> float:
    """Variance of the 4-neighbor Laplacian over the integer gray
    channel — the standard sharpness score (variance-of-Laplacian,
    Pech-Pacheco et al. 2000; LAION-style curation gates use it to
    drop blurred images)."""
    g = px.astype(np.int64).sum(2) // 3
    L = (
        4 * g[1:-1, 1:-1]
        - g[:-2, 1:-1]
        - g[2:, 1:-1]
        - g[1:-1, :-2]
        - g[1:-1, 2:]
    )
    return float(L.var())


def _ensure_blur_oracle(sf_dir: str) -> str:
    """SQL-predictable blur corpus keyed off ``part``: 96 48x64 PNGs
    with planted high-frequency detail (the fixture sinusoids alone
    are too smooth for a sharpness gate to mean anything); ODD keys
    are 5x5 box-blurred. Measured separation on this synthesis:
    sharp Laplacian variance >= 3110, blurred <= 17 (185x margin), so
    the 500 threshold is deep inside the gap and the oracle's
    blurred = (k % 2 = 1) is certain."""
    import pyarrow.parquet as pq_mod

    from ..fixtures import _pixels
    from ..functions.image import encode_image

    path = _cache_path("blur_oracle96.parquet", sf_dir)
    if not os.path.exists(path):
        keys = pq_mod.read_table(
            os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
        ).column("p_partkey").to_numpy()
        keys = np.sort(keys[keys < 96])
        ids, blobs = [], []
        for k in keys.tolist():
            rng = np.random.default_rng(2000 + k)
            px = _pixels(rng, 48, 64)
            detail = rng.integers(-40, 41, size=px.shape)
            px = np.clip(px.astype(np.int64) + detail, 0, 255).astype(np.uint8)
            if k % 2 == 1:
                px = _box5_blur(px)
            ids.append(f"img{k}")
            blobs.append(encode_image(px, "png"))
        tbl = pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
            }
        )
        tmp = path + ".tmp"
        pq_mod.write_table(tbl, tmp)
        os.replace(tmp, path)
    return path


def q_blur_detect(sf_dir: str, threshold: float = 500.0):
    """Driver-trust blur gate (variance-of-Laplacian, the standard
    image-curation sharpness filter): decode each PNG of the
    part-keyed blur corpus and classify blurred = lap_var < threshold.
    The DuckDB twin states blurred = (p_partkey % 2 = 1) — the planted
    truth — so a decode, grayscale, Laplacian or thresholding
    regression flips rows and fails the driver hash. The 185x measured
    separation (>=3110 sharp vs <=17 blurred) makes the gate certain,
    not statistical.

    Scale shape: pure map over blob batches, no shuffle (q_thumbnail's
    contract)."""
    path = _ensure_blur_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def detect(batch: pa.Table) -> pa.Table:
        from ..functions.image import decode_image

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        out = [bool(_laplacian_var(decode_image(b, "png")) < threshold) for b in blobs]
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "blurred": pa.array(out, pa.bool_()),
            }
        )

    return ds.map_batches(detect, batch_format="pyarrow", batch_size=16)


# ------------------------------------------------------- format sniffing ----
def _sniff_format(b: bytes) -> str:
    """Magic-byte container detection (the crawl data-quality primitive:
    servers lie about Content-Type, so pipelines trust the bytes)."""
    if b[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if b[:3] == b"\xff\xd8\xff":
        return "jpeg"
    if b[:6] in (b"GIF87a", b"GIF89a"):
        return "gif"
    return "unknown"


def q_format_sniff(sf_dir: str):
    """Declared-vs-actual format reconciliation over the part-keyed
    codec corpus: sniff every blob's container from magic bytes and
    compare with the declared fmt column — the gate that catches
    mislabeled payloads before a decoder trusts the label (qpng rows
    are EXPECTED mismatches: the quantized-png fmt label names the
    pipeline codec, but the container is PNG — exactly the
    content-type-vs-container distinction the op exists to surface).
    The DuckDB twin states the sniff result from key arithmetic (every
    fmt maps to a known container), so a sniffing regression or a
    corpus encoding drift fails the driver hash.

    Scale shape: pure map, reads 8 bytes per blob worth of decision —
    no decode, no shuffle."""
    path = _ensure_codec_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def sniff(batch: pa.Table) -> pa.Table:
        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        fmts = batch.column("fmt").to_pylist()
        sniffed = [_sniff_format(b) for b in blobs]
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "declared_fmt": pa.array(fmts, pa.string()),
                "sniffed_fmt": pa.array(sniffed, pa.string()),
                "container_match": pa.array(
                    [d == s for d, s in zip(fmts, sniffed)], pa.bool_()
                ),
            }
        )

    return ds.map_batches(sniff, batch_format="pyarrow", batch_size=32)


# ----------------------------------------------------- decode error gate ----
def _ensure_corrupt_oracle(sf_dir: str) -> str:
    """Codec corpus with PLANTED corruption keyed off ``part``: keys
    with k % 5 == 2 are truncated to 60% of their bytes, k % 5 == 4
    get a flipped byte inside the compressed stream — the two failure
    modes a crawler actually sees (cut-off transfers, bit rot). The
    other keys are intact. PNG only (zlib's integrity checking makes
    the failure deterministic)."""
    import pyarrow.parquet as pq_mod

    from ..fixtures import _pixels
    from ..functions.image import encode_image

    path = _cache_path("corrupt_oracle96.parquet", sf_dir)
    if not os.path.exists(path):
        keys = pq_mod.read_table(
            os.path.join(sf_dir, "part.parquet"), columns=["p_partkey"]
        ).column("p_partkey").to_numpy()
        keys = np.sort(keys[keys < 96])
        ids, blobs = [], []
        for k in keys.tolist():
            px = _pixels(np.random.default_rng(3000 + k), 32, 48)
            b = encode_image(px, "png")
            if k % 5 == 2:
                b = b[: int(len(b) * 0.6)]  # truncated transfer
            elif k % 5 == 4:
                a = bytearray(b)
                a[len(a) // 2] ^= 0xFF  # bit rot inside the stream
                b = bytes(a)
            ids.append(f"img{k}")
            blobs.append(b)
        tbl = pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "bytes": pa.array(blobs, pa.binary()),
            }
        )
        tmp = path + ".tmp"
        pq_mod.write_table(tbl, tmp)
        os.replace(tmp, path)
    return path


def q_decode_errors(sf_dir: str):
    """Decode-robustness gate: run the strict PNG decoder over a corpus
    with PLANTED corruption (truncation + bit rot at known keys) and
    report per-row decode_ok — the operator shape of 'a fetch pipeline
    must quarantine undecodable payloads, never crash the job and
    never silently pass garbage'. The stage catches per-row exceptions
    (the actor pool keeps streaming); the DuckDB twin states
    decode_ok = (k % 5 NOT IN (2, 4)) from the planted truth, so BOTH
    failure directions trip the driver hash: a decoder that crashes on
    (or silently accepts) corrupt bytes, and one that rejects intact
    ones.

    Scale shape: pure map over blob batches, no shuffle."""
    path = _ensure_corrupt_oracle(sf_dir)
    ds = ray.data.read_parquet(path)

    def gate(batch: pa.Table) -> pa.Table:
        from ..functions.image import decode_image

        ids = batch.column("image_id").to_pylist()
        blobs = batch.column("bytes").to_pylist()
        oks = []
        for b in blobs:
            try:
                arr = decode_image(b, "png")
                oks.append(arr.shape == (32, 48, 3))
            except Exception:
                oks.append(False)
        return pa.table(
            {
                "image_id": pa.array(ids, pa.string()),
                "decode_ok": pa.array(oks, pa.bool_()),
            }
        )

    return ds.map_batches(gate, batch_format="pyarrow", batch_size=16)
