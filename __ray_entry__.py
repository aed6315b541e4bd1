"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at
sf=0.01 and compares it against the matching ``oracle_sql()[name]`` via
DuckDB (row-count + schema + order-insensitive value-hash →
CORRECTNESS_r{N}.json).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in heroshi_ray) calls ``ray.init()`` / ``ray.shutdown()``.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on /root/testdata/sf0.001: the frontier schedule
    path (canonicalize -> exact dedup -> cuckoo seen-filter -> per-host
    politeness cap -> deterministic global order) over a URL frontier
    synthesized deterministically from the sf tables."""
    from heroshi_ray.pipelines.frontier import run_flagship

    return run_flagship(
        "/root/testdata/sf0.001",
        per_host_budget=32,
        epoch_budget=5000,
        n_seen_shards=4,
        seen_capacity=1 << 18,
    )


def queries() -> dict[str, Callable[[str], Any]]:
    from heroshi_ray.pipelines import dataops as d
    from heroshi_ray.pipelines import webops as w
    from heroshi_ray.pipelines.frontier import frontier_schedule_counts

    # Every entry has a DuckDB twin in oracle_sql(). The driver records
    # only the first 50 entries (the driver window, crawl-core first),
    # so new entries go at the end and entries are deleted only after
    # the window: its membership never shifts.
    return {
        # flagship twin: the fused schedule projected to (host, depth, n)
        # handout counts, which a DuckDB window twin reproduces exactly
        "q_frontier_schedule_oracle": frontier_schedule_counts,
        # codec gate: real JPEG/GIF/PNG decode dims + the >=40 dB invariant
        "q_codec_decode": d.q_codec_decode,
        # crawl-web ops (SQL-oracled)
        "q_sitemap_extract": w.q_sitemap_extract,
        "q_trap_detect": w.q_trap_detect,
        "q_recrawl_schedule": w.q_recrawl_schedule,
        "q_host_quota": w.q_host_quota,
        "q_url_strip_params": w.q_url_strip_params,
        "q_mirror_detect": w.q_mirror_detect,
        "q_frontier_compact": w.q_frontier_compact,
        "q_anchor_agg": w.q_anchor_agg,
        "q_crawl_delta": w.q_crawl_delta,
        "q_url_templates": w.q_url_templates,
        "q_scd2_history": w.q_scd2_history,
        "q_cdx_revisits": w.q_cdx_revisits,
        "q_host_gini": w.q_host_gini,
        "q_drain_epochs": w.q_drain_epochs,
        "q_budget_alloc": w.q_budget_alloc,
        "q_handout_interleave": w.q_handout_interleave,
        "q_crawl_delay_plan": w.q_crawl_delay_plan,
        "q_redirect_resolve": w.q_redirect_resolve,
        "q_robots_sitemaps": w.q_robots_sitemaps,
        "q_redirect_cycles": w.q_redirect_cycles,
        "q_canonicalize": d.q_canonicalize,
        # corpus / training-data ops (SQL-oracled)
        "q_stopword_stats": d.q_stopword_stats,
        "q_vocab_topk": d.q_vocab_topk,
        "q_embedding_norms": d.q_embedding_norms,
        "q_word_len_hist": d.q_word_len_hist,
        "q_punct_density": d.q_punct_density,
        "q_ttr_by_source": d.q_ttr_by_source,
        "q_source_lang_matrix": d.q_source_lang_matrix,
        "q_embedding_dim_stats": d.q_embedding_dim_stats,
        "q_ann_knn": d.q_ann_knn,
        "q_dedup_clusters": d.q_dedup_clusters,
        "q_pii_redact": d.q_pii_redact,
        "q_repetition_stats": d.q_repetition_stats,
        "q_chunk_dedup": d.q_chunk_dedup,
        "q_inverted_index": d.q_inverted_index,
        "q_edit_neardup": d.q_edit_neardup,
        "q_semantic_decontaminate": d.q_semantic_decontaminate,
        "q_containment_neardup": d.q_containment_neardup,
        "q_dup_spans": d.q_dup_spans,
        "q_dup_span_removal": d.q_dup_span_removal,
        "q_ann_range": d.q_ann_range,
        "q_entropy": d.q_entropy,
        "q_bigram_lift": d.q_bigram_lift,
        "q_bigram_count": d.q_bigram_count,
        "q_tfidf": d.q_tfidf,
        "q_pagerank": d.q_pagerank,
        "q_centroids": d.q_centroids,
        "q_chunk": d.q_chunk,
        "q_pack_sequences": d.q_pack_sequences,
        "q_data_mix": d.q_data_mix,
        "q_quantize_embeddings": d.q_quantize_embeddings,
        "q_quality_sample": d.q_quality_sample,
        "q_train_split": d.q_train_split,
        "q_embed_dedup": d.q_embed_dedup,
        "q_frequent_items": d.q_frequent_items,
        "q_quality_stats": d.q_quality_stats,
        "q_curate": d.q_curate,
        "q_dedup_exact": d.q_dedup_exact,
        "q_embed_neardup": d.q_embed_neardup,
        "q_token_count": d.q_token_count,
        "q_token_histogram": d.q_token_histogram,
        "q_sample": d.q_sample,
        "q_lang_count": d.q_lang_count,
        "q_lm_score": d.q_lm_score,
        "q_aspect_bucket": d.q_aspect_bucket,
        "q_ann_filtered": d.q_ann_filtered,
        "q_maxsim": d.q_maxsim,
        "q_temperature_mix": d.q_temperature_mix,
        "q_ccnet_bucket": d.q_ccnet_bucket,
        "q_train_val_split": d.q_train_val_split,
        "q_winnowing": d.q_winnowing,
        "q_degree_stats": d.q_degree_stats,
        "q_kl_drift": d.q_kl_drift,
        "q_incremental_dedup": d.q_incremental_dedup,
        "q_zipf_fit": d.q_zipf_fit,
        "q_dedup_keep_best": d.q_dedup_keep_best,
        "q_soft_dedup": d.q_soft_dedup,
        "q_theta_intersect": d.q_theta_intersect,
        "q_weighted_sample": d.q_weighted_sample,
        "q_ppr": d.q_ppr,
        "q_thumbnail": d.q_thumbnail,
        "q_letterbox": d.q_letterbox,
        "q_center_crop": d.q_center_crop,
        "q_reciprocity": d.q_reciprocity,
        "q_blur_detect": d.q_blur_detect,
        "q_format_sniff": d.q_format_sniff,
        "q_decode_errors": d.q_decode_errors,
        "q_dedup_first": d.q_dedup_first,
        "q_dedup_cluster_hist": d.q_dedup_cluster_hist,
    }


def oracle_sql() -> dict[str, str]:
    return {
        # FLAGSHIP twin: the fused schedule's (host, depth, n) handout
        # counts. Mirrors the synthetic candidate generation (hostid
        # fold, canonical-path collapse of the 4 noise styles = DISTINCT
        # over (hostid, ok, ln)), synth_robots longest-match semantics
        # (Disallow /o/9 on host0; /o/1 on k%4==1; /o/2 with Allow /o/22
        # on k%4==2), depth = (ok + ln) % 37, priority = 1/(1+depth),
        # and the per-host top-16 budget as a ROW_NUMBER window ordered
        # by depth (tie order inside a class is free — counts are
        # invariant). epoch budget is non-binding in the Ray twin.
        "q_frontier_schedule_oracle": """
            WITH cand AS (
              SELECT DISTINCT
                CASE WHEN l_suppkey % 7 = 0 THEN 0
                     ELSE l_suppkey % 97 END AS hostid,
                l_orderkey AS ok,
                l_linenumber AS ln,
                (l_orderkey + l_linenumber) % 37 AS depth
              FROM lineitem
            ), allowed AS (
              SELECT * FROM cand
              WHERE NOT (
                (hostid = 0 AND CAST(ok AS VARCHAR) LIKE '9%')
                OR (hostid % 4 = 1 AND CAST(ok AS VARCHAR) LIKE '1%')
                OR (hostid % 4 = 2 AND CAST(ok AS VARCHAR) LIKE '2%'
                    AND CAST(ok AS VARCHAR) NOT LIKE '22%')
              )
            ), ranked AS (
              SELECT hostid, depth,
                     ROW_NUMBER() OVER (
                       PARTITION BY hostid ORDER BY depth ASC, ok, ln
                     ) AS rn
              FROM allowed
            )
            SELECT 'host' || CAST(hostid AS VARCHAR) || '.example' AS host,
                   CAST(depth AS INTEGER) AS depth,
                   CAST(count(*) AS BIGINT) AS n
            FROM ranked WHERE rn <= 16
            GROUP BY 1, 2
        """,
        # codec gate twin: every column is part-key arithmetic; ok=TRUE
        # asserts the real decoders hit dims + the >=40 dB invariant
        "q_codec_decode": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   CAST(32 + 16 * (p_partkey % 3) AS INTEGER) AS w,
                   CAST(32 + 16 * ((p_partkey // 3) % 3) AS INTEGER) AS h,
                   CASE p_partkey % 4
                     WHEN 0 THEN 'png' WHEN 1 THEN 'jpeg'
                     WHEN 2 THEN 'gif' ELSE 'qpng' END AS fmt,
                   TRUE AS ok
            FROM part WHERE p_partkey < 96
        """,
        "q_token_count": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\\s+')) AS BIGINT)
                   END AS n_tokens
            FROM documents
        """,
        "q_token_histogram": """
            SELECT (nt // 10) * 10 AS token_bucket,
                   CAST(count(*) AS BIGINT) AS n_docs
            FROM (
                SELECT CASE WHEN trim(text) = '' THEN 0
                            ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                                 AS BIGINT)
                       END AS nt
                FROM documents
            ) GROUP BY 1
        """,
        "q_dedup_exact": """
            SELECT doc_id, text FROM (
                SELECT doc_id, text,
                       row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
                FROM documents
            ) WHERE rn = 1
        """,
        "q_lang_count": """
            SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY lang
        """,
        "q_ann_knn": """
            SELECT query_id, vec_id, cos_sim_e4 FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                       CAST(round(list_cosine_similarity(e.embedding, q.embedding) * 10000)
                            AS BIGINT) AS cos_sim_e4,
                       row_number() OVER (
                           PARTITION BY q.vec_id
                           ORDER BY list_cosine_similarity(e.embedding, q.embedding) DESC,
                                    e.vec_id) AS rn
                FROM embeddings q, embeddings e
                WHERE q.vec_id < 5 AND e.vec_id <> q.vec_id
            ) WHERE rn <= 3
        """,
        "q_embed_neardup": """
            SELECT a.vec_id AS vec_a, b.vec_id AS vec_b,
                   CAST(round(list_cosine_similarity(a.embedding, b.embedding) * 10000)
                        AS BIGINT) AS cos_sim_e4
            FROM embeddings a, embeddings b
            WHERE a.vec_id < b.vec_id
              AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45
        """,
        "q_embed_dedup": """
            SELECT e.vec_id FROM embeddings e WHERE e.vec_id NOT IN (
                SELECT b.vec_id FROM embeddings a, embeddings b
                WHERE a.vec_id < b.vec_id
                  AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45)
        """,
        "q_dedup_clusters": """
            WITH RECURSIVE e AS (
                SELECT a.vec_id AS u, b.vec_id AS v
                FROM embeddings a, embeddings b
                WHERE a.vec_id <> b.vec_id
                  AND list_cosine_similarity(a.embedding, b.embedding) >= 0.45
            ), r(u, v) AS (
                SELECT vec_id, vec_id FROM embeddings
                UNION
                SELECT r.u, e.v FROM r JOIN e ON e.u = r.v
            )
            SELECT u AS vec_id, CAST(min(v) AS BIGINT) AS cluster_id
            FROM r GROUP BY u
        """,
        "q_sample": """
            SELECT l_orderkey, l_partkey, l_quantity FROM lineitem
            WHERE ((l_orderkey % 1000003) * 31 + l_partkey) % 97 = 0
        """,
        "q_curate": """
            SELECT doc_id,
                   CAST(len(string_split_regex(trim(text), '\\s+')) AS BIGINT)
                       AS n_tokens
            FROM (
                SELECT doc_id, text,
                       row_number() OVER (PARTITION BY text ORDER BY doc_id) AS rn
                FROM documents
                WHERE n_chars >= 100
                  AND CASE WHEN trim(text) = '' THEN 0
                           ELSE len(string_split_regex(trim(text), '\\s+'))
                      END >= 20
            ) t WHERE rn = 1
        """,
        "q_frequent_items": """
            SELECT user_id, CAST(count(*) AS BIGINT) AS cnt
            FROM events GROUP BY user_id
            HAVING count(*) * 10000 >= 75 * (SELECT count(*) FROM events)
        """,
        "q_quality_stats": """
            SELECT doc_id,
                   CAST(length(text) AS BIGINT) AS n_chars,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                             AS BIGINT) END AS n_words,
                   CAST(length(regexp_replace(text, '[A-Za-z0-9\\s]', '', 'g'))
                        AS BIGINT) AS n_punct,
                   CAST(length(text) - length(regexp_replace(text, '[A-Z]', '', 'g'))
                        AS BIGINT) AS n_upper
            FROM documents
        """,
        "q_stopword_stats": """
            SELECT doc_id,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                             AS BIGINT) END AS n_tokens,
                   CASE WHEN trim(text) = '' THEN 0
                        ELSE CAST(len(list_filter(
                                 string_split_regex(trim(text), '\\s+'),
                                 x -> list_contains(
                                     ['the','a','an','and','or','of','to','in',
                                      'is','are','was','were','be','been','it',
                                      'this','that','for','on','with','as','by'],
                                     lower(x))))
                             AS BIGINT) END AS n_stop
            FROM documents
        """,
        "q_canonicalize": """
            SELECT 'http://host' || CAST(user_id AS VARCHAR) || '.example/e/'
                     || CAST(event_id AS VARCHAR) || '/y?q=~'
                     || CAST(event_id % 3 AS VARCHAR) AS url,
                   'http://(example,host' || CAST(user_id AS VARCHAR) || ',)/e/'
                     || CAST(event_id AS VARCHAR) || '/y?q=~'
                     || CAST(event_id % 3 AS VARCHAR) AS surt,
                   'host' || CAST(user_id AS VARCHAR) || '.example' AS host
            FROM events
        """,
        # bigram counts: tokenization is a literal single-space split on
        # BOTH sides (string_split here, polars str.split(" ") in the
        # engine); gram positions come from lineitem row numbers, so
        # the bound is derived from the data (generate_series can't take
        # a subquery bound)
        "q_bigram_count": """
            WITH tok AS (SELECT string_split(text, ' ') AS t FROM documents),
                 nums AS (SELECT CAST(row_number() OVER () AS BIGINT) AS i
                          FROM lineitem
                          QUALIFY i <= (SELECT max(len(t)) FROM tok) - 1),
                 b AS (SELECT t[CAST(i AS INT)] || ' ' || t[CAST(i AS INT)+1]
                              AS bigram
                       FROM tok CROSS JOIN nums WHERE i <= len(t) - 1)
            SELECT bigram, CAST(count(*) AS BIGINT) AS cnt
            FROM b GROUP BY bigram HAVING count(*) >= 5
        """,
        # integer fixed-point idf ((N*10^6) // df) so the score is exact
        # int64 arithmetic on both sides — a float ln-idf would diverge
        # in last-ulp summation order
        "q_tfidf": """
            WITH p AS (SELECT CAST(count(*) AS BIGINT) AS n FROM documents),
                 tok AS (SELECT doc_id, string_split(text, ' ') AS t
                         FROM documents),
                 tf AS (SELECT doc_id,
                          CAST(len(list_filter(t, x -> x = 'table')) AS BIGINT) AS tf0,
                          CAST(len(list_filter(t, x -> x = 'hash'))  AS BIGINT) AS tf1,
                          CAST(len(list_filter(t, x -> x = 'sort'))  AS BIGINT) AS tf2
                        FROM tok),
                 df AS (SELECT CAST(count(*) FILTER (tf0 > 0) AS BIGINT) AS df0,
                               CAST(count(*) FILTER (tf1 > 0) AS BIGINT) AS df1,
                               CAST(count(*) FILTER (tf2 > 0) AS BIGINT) AS df2
                        FROM tf)
            SELECT doc_id,
                   tf0 * (CASE WHEN df0 = 0 THEN 0
                               ELSE (SELECT n FROM p) * 1000000 // df0 END)
                 + tf1 * (CASE WHEN df1 = 0 THEN 0
                               ELSE (SELECT n FROM p) * 1000000 // df1 END)
                 + tf2 * (CASE WHEN df2 = 0 THEN 0
                               ELSE (SELECT n FROM p) * 1000000 // df2 END)
                   AS tfidf_e6
            FROM tf, df WHERE tfidf_e6 > 0
        """,
        # integer PageRank, 6 iterations unrolled as chained CTEs (the
        # recursive-term-with-aggregation form is not portable); all
        # arithmetic int64 fixed-point exactly as the engine computes it
        "q_pagerank": """
            WITH nodes AS (SELECT c_custkey AS node FROM customer),
                 nn AS (SELECT count(*) AS n FROM customer),
                 edges AS (SELECT o_custkey AS src,
                                  o_orderkey % (SELECT n FROM nn) AS dst,
                                  CAST(count(*) AS BIGINT) AS cnt
                           FROM orders GROUP BY 1, 2),
                 outdeg AS (SELECT src, SUM(cnt) AS deg FROM edges GROUP BY src),
                 base AS (SELECT CAST(15 * (1000000000000 // (SELECT n FROM nn))
                                      // 100 AS BIGINT) AS b),
                 it0 AS (SELECT node, CAST(1000000000000 // (SELECT n FROM nn)
                                           AS BIGINT) AS r FROM nodes),
                 it1 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it0 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it2 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it1 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it3 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it2 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it4 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it3 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it5 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it4 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it6 AS (SELECT n.node AS node,
                                (SELECT b FROM base)
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0) // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it5 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node)
            SELECT node AS custkey, CAST(r AS BIGINT) AS pagerank_e12 FROM it6
        """,
        # per-label embedding centroids as exact integer component sums
        # (list components cast to DOUBLE before scaling — the engine
        # upcasts float32 the same way)
        "q_centroids": """
            WITH dims AS (SELECT unnest(generate_series(0, 63)) AS dim),
            e AS (
                SELECT label, dims.dim AS dim,
                       CAST(round(CAST(embedding[dims.dim + 1] AS DOUBLE)
                                  * 1000000) AS BIGINT) AS v
                FROM embeddings, dims
            )
            SELECT label, CAST(dim AS BIGINT) AS dim,
                   CAST(sum(v) AS BIGINT) AS sum_e6,
                   CAST(count(*) AS BIGINT) AS n
            FROM e GROUP BY label, dim
        """,
        # fixed-size overlapping chunking (size=200, stride=150); chunk
        # positions via the row_number nums trick (bound derived from the
        # data, as in q_bigram_count's oracle)
        "q_chunk": """
            WITH nums AS (
              SELECT CAST(row_number() OVER () AS BIGINT) AS i FROM lineitem
              QUALIFY i <= (SELECT max(length(text)) FROM documents)
            )
            SELECT doc_id, CAST(i - 1 AS BIGINT) AS chunk_id,
                   substring(text, CAST((i - 1) * 150 + 1 AS INT), 200) AS chunk
            FROM documents CROSS JOIN nums
            WHERE (i - 1) * 150 < length(text)
        """,
        # embedding-level decontamination: best eval cosine per train
        # vec; eval = vec_id % 41 == 0, ties break to smallest eval id
        "q_semantic_decontaminate": """
            SELECT vec_id, eval_id, cos_sim_e4 FROM (
              SELECT t.vec_id, e.vec_id AS eval_id,
                     CAST(round(list_cosine_similarity(t.embedding, e.embedding)
                                * 10000) AS BIGINT) AS cos_sim_e4,
                     row_number() OVER (
                         PARTITION BY t.vec_id
                         ORDER BY list_cosine_similarity(t.embedding, e.embedding)
                                  DESC, e.vec_id) AS rn
              FROM embeddings t, embeddings e
              WHERE t.vec_id % 41 <> 0 AND e.vec_id % 41 = 0
            ) WHERE rn = 1 AND cos_sim_e4 >= 3500
        """,
        # per-doc char entropy, e4 bits (DuckDB entropy() is log2)
        "q_entropy": """
            SELECT doc_id,
                   CAST(round(entropy(c) * 10000) AS BIGINT) AS entropy_e4
            FROM (SELECT doc_id, unnest(string_split(text, '')) AS c
                  FROM documents)
            GROUP BY doc_id
        """,
        # fixed-radius cosine range search over the same eval split as
        # the semantic decontaminate twin
        "q_ann_range": """
            SELECT t.vec_id, e.vec_id AS query_id,
                   CAST(round(list_cosine_similarity(t.embedding,
                              e.embedding) * 10000) AS BIGINT)
                       AS cos_sim_e4
            FROM embeddings t, embeddings e
            WHERE t.vec_id % 41 <> 0 AND e.vec_id % 41 = 0
              AND round(list_cosine_similarity(t.embedding, e.embedding)
                        * 10000) >= 3500
        """,
        # char-12-gram CONTAINMENT (|A∩B| / min(|A|,|B|)) >= 0.8; same
        # no-fixed-cap gram-position trick as q_bigram_count's oracle
        "q_containment_neardup": """
            WITH nums AS (
              SELECT CAST(row_number() OVER () AS BIGINT) AS i FROM lineitem
              QUALIFY i <= (SELECT max(length(text)) FROM documents)
            ), grams AS (
              SELECT DISTINCT doc_id, substring(text, CAST(i AS INT), 12) AS g
              FROM documents CROSS JOIN nums
              WHERE i <= length(text) - 11
            ), sizes AS (
              SELECT doc_id, count(*) AS n FROM grams GROUP BY doc_id
            ), inter AS (
              SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, count(*) AS ni
              FROM grams a JOIN grams b ON a.g = b.g AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT doc_a, doc_b,
                   CAST(ni * 10000 // least(sa.n, sb.n) AS BIGINT) AS cont_e4
            FROM inter JOIN sizes sa ON sa.doc_id = doc_a
                       JOIN sizes sb ON sb.doc_id = doc_b
            WHERE ni * 10000 >= 8000 * least(sa.n, sb.n)
        """,
        # bigram lift (integer PMI-argument): HUGEINT guards the
        # N * c_xy product exactly where the engine switches to Python
        # ints; floor division on both sides
        "q_bigram_lift": """
            WITH u AS (SELECT w, CAST(count(*) AS BIGINT) AS c
                       FROM (SELECT unnest(string_split(text, ' ')) AS w
                             FROM documents)
                       GROUP BY w),
                 n AS (SELECT CAST(sum(c) AS BIGINT) AS n FROM u),
                 tok AS (SELECT string_split(text, ' ') AS t FROM documents),
                 nums AS (SELECT CAST(row_number() OVER () AS BIGINT) AS i
                          FROM lineitem
                          QUALIFY i <= (SELECT max(len(t)) FROM tok) - 1),
                 b AS (SELECT t[CAST(i AS INT)] AS w1,
                              t[CAST(i AS INT)+1] AS w2
                       FROM tok CROSS JOIN nums WHERE i <= len(t) - 1),
                 bc AS (SELECT w1, w2, CAST(count(*) AS BIGINT) AS cnt
                        FROM b GROUP BY w1, w2 HAVING count(*) >= 5)
            SELECT bc.w1 || ' ' || bc.w2 AS bigram, bc.cnt,
                   CAST((10000 * CAST(n.n AS HUGEINT) * bc.cnt)
                        // (u1.c * u2.c) AS BIGINT) AS lift_e4
            FROM bc, n
            JOIN u u1 ON u1.w = bc.w1
            JOIN u u2 ON u2.w = bc.w2
        """,
        # duplicated-substring spans: every maximal range covered by
        # 30-char windows appearing verbatim in >= 2 distinct docs;
        # islands merge when next_start - prev_start <= k (0-based
        # positions, matching the engine). unnest(generate_series)
        # derives positions from each doc's own length — no fixed cap.
        "q_dup_spans": """
            WITH posx AS (
              SELECT doc_id, text,
                     unnest(generate_series(1, greatest(length(text) - 29, 0)))
                         AS p
              FROM documents
            ), grams AS (
              SELECT doc_id, p - 1 AS pos,
                     substr(text, CAST(p AS INT), 30) AS g
              FROM posx
            ), dup AS (
              SELECT g FROM grams GROUP BY g
              HAVING count(DISTINCT doc_id) >= 2
            ), hits AS (
              SELECT doc_id, pos FROM grams WHERE g IN (SELECT g FROM dup)
            ), lagged AS (
              SELECT doc_id, pos,
                     CASE WHEN pos - lag(pos) OVER (
                              PARTITION BY doc_id ORDER BY pos) <= 30
                          THEN 0 ELSE 1 END AS brk
              FROM hits
            ), isl AS (
              SELECT doc_id, pos,
                     SUM(brk) OVER (PARTITION BY doc_id ORDER BY pos) AS grp
              FROM lagged
            )
            SELECT doc_id, span_start, span_len FROM (
              SELECT doc_id, MIN(pos) AS span_start,
                     CAST(MAX(pos) + 30 - MIN(pos) AS BIGINT) AS span_len
              FROM isl GROUP BY doc_id, grp)
        """,
        # substring-dedup REMOVAL: cut every duplicated 30-char window
        # occurrence except the global first (min (doc_id,pos) per
        # gram); spans merge with the q_dup_spans islands rule and the
        # kept segments re-concatenate in order
        "q_dup_span_removal": """
            WITH posx AS (
              SELECT doc_id, text,
                     unnest(generate_series(1, greatest(length(text) - 29, 0)))
                         AS p
              FROM documents),
            grams AS (SELECT doc_id, p - 1 AS pos,
                             substr(text, CAST(p AS INT), 30) AS g
                      FROM posx),
            dup AS (SELECT g FROM grams GROUP BY g
                    HAVING count(DISTINCT doc_id) >= 2),
            ranked AS (
              SELECT doc_id, pos, g,
                     row_number() OVER (PARTITION BY g
                                        ORDER BY doc_id, pos) AS rn
              FROM grams WHERE g IN (SELECT g FROM dup)),
            removal AS (SELECT DISTINCT doc_id, pos FROM ranked WHERE rn > 1),
            lagged AS (
              SELECT doc_id, pos,
                     CASE WHEN pos - lag(pos) OVER (
                              PARTITION BY doc_id ORDER BY pos) <= 30
                          THEN 0 ELSE 1 END AS brk
              FROM removal),
            isl AS (SELECT doc_id, pos,
                           SUM(brk) OVER (PARTITION BY doc_id
                                          ORDER BY pos) AS grp
                    FROM lagged),
            spans AS (SELECT doc_id, MIN(pos) AS s, MAX(pos) + 30 AS e
                      FROM isl GROUP BY doc_id, grp),
            sp AS (SELECT doc_id, s, e,
                          row_number() OVER (PARTITION BY doc_id
                                             ORDER BY s) AS rn,
                          coalesce(lag(e) OVER (PARTITION BY doc_id
                                                ORDER BY s), 0) AS prev_e
                   FROM spans),
            mid AS (SELECT sp.doc_id,
                           substr(d.text, CAST(prev_e AS INT) + 1,
                                  CAST(s - prev_e AS INT)) AS piece, rn
                    FROM sp JOIN documents d USING (doc_id)),
            tails AS (SELECT t.doc_id,
                             substr(d.text, CAST(t.max_e AS INT) + 1)
                                 AS piece,
                             2147483647 AS rn
                      FROM (SELECT doc_id, MAX(e) AS max_e FROM spans
                            GROUP BY doc_id) t
                      JOIN documents d USING (doc_id)),
            clean AS (SELECT doc_id,
                             string_agg(piece, '' ORDER BY rn) AS clean_text
                      FROM (SELECT * FROM mid UNION ALL
                            SELECT * FROM tails)
                      GROUP BY doc_id)
            SELECT doc_id, clean_text FROM clean
            UNION ALL
            SELECT doc_id, text AS clean_text FROM documents
            WHERE doc_id NOT IN (SELECT doc_id FROM spans)
        """,
        # token-budget sequence packing: pack of the doc's START offset
        # on the global token stream (exclusive prefix sum // 512)
        "q_pack_sequences": """
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                                    AS BIGINT)
                     END AS n_tokens
              FROM documents
            )
            SELECT doc_id, n_tokens,
                   CAST(COALESCE(SUM(n_tokens) OVER (
                            ORDER BY doc_id
                            ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                        ), 0) // 512 AS BIGINT) AS pack_id
            FROM t
        """,
        # weighted language mixing with oversampling; keep gate is the
        # Knuth multiplicative hash both numpy and SQL compute exactly
        "q_data_mix": """
            WITH w(lang, pct, reps) AS (
              VALUES ('en', 60, 1), ('de', 80, 2), ('es', 80, 1),
                     ('fr', 80, 3), ('zh', 40, 1)
            ), nums AS (
              SELECT CAST(row_number() OVER () AS BIGINT) AS i FROM lineitem
              QUALIFY i <= (SELECT max(reps) FROM w)
            )
            SELECT d.doc_id, d.lang, CAST(i - 1 AS BIGINT) AS "copy"
            FROM documents d JOIN w ON d.lang = w.lang
            CROSS JOIN nums
            WHERE i <= w.reps
              AND (d.doc_id * 2654435761) % 4294967296 % 100 < w.pct
        """,
        # per-dim affine int8 quantization, all-integer arithmetic
        "q_quantize_embeddings": """
            WITH dims AS (SELECT unnest(generate_series(0, 63)) AS dim),
            e AS (
                SELECT vec_id, dims.dim AS dim,
                       CAST(round(CAST(embedding[dims.dim + 1] AS DOUBLE)
                                  * 1000000) AS BIGINT) AS v
                FROM embeddings, dims
            ),
            mm AS (
                SELECT dim, min(v) AS mn,
                       greatest(max(v) - min(v), 1) AS span
                FROM e GROUP BY dim
            )
            SELECT e.vec_id, CAST(e.dim AS BIGINT) AS dim,
                   CAST((e.v - mm.mn) * 255 // mm.span AS BIGINT) AS code
            FROM e JOIN mm USING (dim)
        """,
        # deterministic hash train/val/test split manifest
        "q_train_split": """
            WITH t AS (
              SELECT lang,
                     CASE WHEN (doc_id * 2654435761) % 4294967296 % 100 < 10
                          THEN 'test'
                          WHEN (doc_id * 2654435761) % 4294967296 % 100 < 20
                          THEN 'val'
                          ELSE 'train' END AS split,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                                    AS BIGINT)
                     END AS n_tokens
              FROM documents
            )
            SELECT lang, split, CAST(count(*) AS BIGINT) AS n_docs,
                   CAST(sum(n_tokens) AS BIGINT) AS n_tokens
            FROM t GROUP BY lang, split
        """,
        # quality-weighted deterministic downsampling (curation)
        "q_quality_sample": """
            WITH t AS (
              SELECT doc_id,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(string_split_regex(trim(text), '\\s+'))
                                    AS BIGINT)
                     END AS n_tokens,
                     CASE WHEN trim(text) = '' THEN 0
                          ELSE CAST(len(list_filter(
                              string_split_regex(trim(text), '\\s+'),
                              x -> list_contains(
                                  ['the','a','an','and','or','of','to','in',
                                   'is','are','was','were','be','been','it',
                                   'this','that','for','on','with','as','by'],
                                  lower(x)))) AS BIGINT)
                     END AS n_stop
              FROM documents
            )
            SELECT doc_id,
                   least(10000, n_stop * 40000 // greatest(n_tokens, 1))
                       AS w_e4
            FROM t
            WHERE (doc_id * 2654435761) % 4294967296 % 10000
                  < least(10000, n_stop * 40000 // greatest(n_tokens, 1))
        """,
        # per-language top-k vocabulary with deterministic tie-break
        "q_vocab_topk": """
            WITH toks AS (
                SELECT lang, t AS token FROM (
                    SELECT lang,
                           unnest(string_split_regex(lower(text), '\\s+')) AS t
                    FROM documents
                ) WHERE t <> ''
            ), cnt AS (
                SELECT lang, token, CAST(count(*) AS BIGINT) AS n
                FROM toks GROUP BY lang, token
            )
            SELECT lang, token, n FROM (
                SELECT lang, token, n,
                       row_number() OVER (PARTITION BY lang
                                          ORDER BY n DESC, token) AS rk
                FROM cnt
            ) WHERE rk <= 10
        """,
        # round-3 session-4 corpus-hygiene additions -----------------------
        # PII redaction over template-built contact strings (same
        # fixed-template trick as q_canonicalize: the fixture has no
        # natural PII, so both sides construct identical strings)
        "q_pii_redact": r"""
            WITH m AS (
              SELECT event_id,
                     'contact user' || CAST(user_id AS VARCHAR) || ' at user'
                       || CAST(user_id AS VARCHAR) || '@example.com or +1-555-'
                       || lpad(CAST(event_id % 10000 AS VARCHAR), 4, '0')
                       || ' re ' || event_type AS msg
              FROM events
            )
            SELECT event_id,
                   CAST(len(regexp_extract_all(msg, '[a-z0-9._]+@[a-z0-9.-]+'))
                        AS BIGINT) AS n_emails,
                   CAST(len(regexp_extract_all(msg, '\+1-555-[0-9]{4}'))
                        AS BIGINT) AS n_phones,
                   regexp_replace(
                     regexp_replace(msg, '[a-z0-9._]+@[a-z0-9.-]+', '<EMAIL>', 'g'),
                     '\+1-555-[0-9]{4}', '<PHONE>', 'g') AS clean
            FROM m
        """,
        # Gopher-style duplicate-token fraction, integer ppm
        "q_repetition_stats": """
            SELECT doc_id,
                   CAST(len(string_split(text, ' ')) AS BIGINT) AS n_tokens,
                   CAST(len(list_distinct(string_split(text, ' '))) AS BIGINT)
                     AS n_distinct,
                   CAST((len(string_split(text, ' '))
                         - len(list_distinct(string_split(text, ' '))))
                        * 1000000 // len(string_split(text, ' ')) AS BIGINT)
                     AS dup_e6
            FROM documents
        """,
        # Dolma/CCNet-style corpus-level duplicated-chunk removal:
        # 3-token chunks present in >= 3 distinct docs are deleted and
        # the surviving text reassembled in order (docs losing every
        # chunk drop out, matching string_agg-over-zero-rows)
        "q_chunk_dedup": """
            WITH tok AS (
              SELECT doc_id, unnest(string_split(text, ' ')) AS tok,
                     generate_subscripts(string_split(text, ' '), 1) - 1 AS pos
              FROM documents
            ),
            chunks AS (
              SELECT doc_id, pos // 3 AS chunk_id,
                     string_agg(tok, ' ' ORDER BY pos) AS chunk
              FROM tok GROUP BY doc_id, pos // 3
            ),
            freq AS (
              SELECT chunk FROM (SELECT DISTINCT doc_id, chunk FROM chunks)
              GROUP BY chunk HAVING count(*) >= 3
            )
            SELECT doc_id, string_agg(chunk, ' ' ORDER BY chunk_id) AS text
            FROM chunks WHERE chunk NOT IN (SELECT chunk FROM freq)
            GROUP BY doc_id
        """,
        # bigram posting lists for 2 <= df <= 50 (index-scale output)
        "q_inverted_index": """
            WITH tok AS (
              SELECT doc_id, string_split(text, ' ') AS t FROM documents
            ), pairs AS (
              SELECT DISTINCT doc_id,
                     unnest(list_slice(t, 1, len(t) - 1)) || ' '
                       || unnest(list_slice(t, 2, len(t))) AS bigram
              FROM tok WHERE len(t) >= 2
            )
            SELECT bigram, CAST(count(*) AS BIGINT) AS df,
                   string_agg(CAST(doc_id AS VARCHAR), ',' ORDER BY doc_id)
                     AS postings
            FROM pairs GROUP BY bigram HAVING count(*) BETWEEN 2 AND 50
        """,
        # edit-distance-1 similarity self-join (the engine uses FastSS
        # deletion neighborhoods; the twin runs the quadratic check)
        "q_edit_neardup": """
            SELECT a.s_suppkey AS a, b.s_suppkey AS b
            FROM supplier a JOIN supplier b ON a.s_suppkey < b.s_suppkey
            WHERE levenshtein(a.s_name, b.s_name) <= 1
        """,
        # round-3 crawl-web scheduler brain
        "q_sitemap_extract": """
            SELECT 'http://host' || (o_custkey % 50) || '.example/o/'
                     || o_orderkey AS loc,
                   'host' || (o_custkey % 50) || '.example' AS host,
                   strftime(o_orderdate, '%Y-%m-%d') AS lastmod,
                   CAST(o_orderkey % 10 AS BIGINT) AS priority_e1
            FROM orders
        """,
        "q_trap_detect": """
            WITH u AS (
              SELECT DISTINCT
                     'h' || (l_suppkey % 64) || '.example' AS host,
                     'http://h' || (l_suppkey % 64) || '.example' ||
                     CASE WHEN l_linenumber % 2 = 1
                          THEN '/item/' || l_partkey
                          ELSE '/p' || l_partkey || '/v' || l_orderkey
                     END AS url
              FROM lineitem
            ), c AS (
              SELECT host,
                     COUNT(DISTINCT url) AS n_urls,
                     COUNT(DISTINCT regexp_replace(url, '[0-9]+', '{N}', 'g'))
                       AS n_templates
              FROM u GROUP BY host
            )
            SELECT host, n_urls, n_templates,
                   n_urls * 100 // n_templates AS ratio_e2,
                   CAST(n_urls * 100 // n_templates >= 10000 AS BIGINT)
                     AS is_trap
            FROM c
        """,
        "q_recrawl_schedule": """
            WITH h AS (
              SELECT user_id, ts, value,
                     LAG(value) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS pv
              FROM events
            ), a AS (
              SELECT user_id,
                     COUNT(*) AS n_fetches,
                     SUM(CASE WHEN pv IS NOT NULL AND value <> pv
                              THEN 1 ELSE 0 END) AS n_changes,
                     (epoch_us(MAX(ts)) - epoch_us(MIN(ts))) // 1000000
                       AS span_s
              FROM h GROUP BY user_id
            )
            SELECT user_id,
                   CAST(n_fetches AS BIGINT) AS n_fetches,
                   CAST(n_changes AS BIGINT) AS n_changes,
                   CAST(CASE WHEN n_changes > 0
                        THEN LEAST(GREATEST(span_s // n_changes, 3600),
                                   2592000)
                        ELSE 2592000 END AS BIGINT) AS next_s
            FROM a
        """,
        "q_lm_score": """
            WITH bg AS (
              SELECT doc_id,
                     LEAST(ord(substring(text, i, 1)), 128) AS a,
                     LEAST(ord(substring(text, i + 1, 1)), 128) AS b
              FROM (
                SELECT doc_id, text,
                       unnest(generate_series(1, length(text) - 1)) AS i
                FROM documents WHERE length(text) >= 2
              )
            ), cnt AS (
              SELECT a, b, COUNT(*) AS c FROM bg GROUP BY a, b
            ), rowc AS (
              SELECT a, SUM(c) AS ra FROM cnt GROUP BY a
            )
            SELECT bg.doc_id,
                   CAST(round(SUM(ln(rowc.ra + 129.0) - ln(cnt.c + 1.0))
                              / COUNT(*) * 10000) AS BIGINT) AS nll_e4
            FROM bg
            JOIN cnt USING (a, b) JOIN rowc USING (a)
            GROUP BY bg.doc_id
        """,
        "q_url_strip_params": r"""
            WITH u AS (
              SELECT 'h' || (user_id % 40) || '.example' AS host,
                     'http://h' || (user_id % 40) || '.example/p/'
                     || (event_id % 500)
                     || '?utm_source=s' || (event_id % 5)
                     || '&id=' || (event_id % 7)
                     || '&gclid=g' || event_id AS url
              FROM events
            ), c AS (
              SELECT host,
                     regexp_replace(regexp_replace(url,
                         '(utm_[a-z]+|gclid|fbclid|ref)=[^&]*&?', '', 'g'),
                         '[?&]+$', '', 'g') AS canon
              FROM u
            )
            SELECT host,
                   CAST(count(*) AS BIGINT) AS n_raw,
                   CAST(count(DISTINCT canon) AS BIGINT) AS n_canon,
                   CAST(count(*) * 100 // count(DISTINCT canon)
                        AS BIGINT) AS inflation_e2
            FROM c GROUP BY host
        """,
        "q_mirror_detect": """
            WITH f AS (
              SELECT DISTINCT (user_id % 24) AS hk,
                     (user_id % 8) * 100 + (event_id % 20) AS fp
              FROM events
            ), s AS (
              SELECT hk, CAST(count(*) AS BIGINT) AS n,
                     CAST(sum(fp) AS BIGINT) AS sm,
                     CAST(bit_xor((fp * 2654435761)
                          % 9223372036854775807) AS BIGINT) AS bx
              FROM f GROUP BY hk
            )
            SELECT 'm' || a.hk || '.example' AS host_a,
                   'm' || b.hk || '.example' AS host_b
            FROM s a JOIN s b
              ON a.n = b.n AND a.sm = b.sm AND a.bx = b.bx
            WHERE 'm' || a.hk || '.example' < 'm' || b.hk || '.example'
        """,
        "q_aspect_bucket": """
            WITH d AS (
              SELECT p_partkey AS image_id,
                     64 + (p_partkey % 13) * 32 AS w,
                     64 + (p_partkey % 7) * 48 AS h
              FROM part
            ), l AS (
              SELECT unnest([50, 75, 100, 133, 150, 200]) AS r
            )
            SELECT image_id, CAST(w AS BIGINT) AS w,
                   CAST(h AS BIGINT) AS h,
                   CAST(r AS BIGINT) AS bucket_r_e2
            FROM (
              SELECT image_id, w, h, r,
                     row_number() OVER (
                       PARTITION BY image_id
                       ORDER BY abs(100 * w - r * h), r) AS rn
              FROM d CROSS JOIN l
            ) WHERE rn = 1
        """,
        "q_frontier_compact": """
            WITH f AS (
              SELECT 'com,h' || (l_suppkey % 64) || ')/p'
                     || (l_partkey % 997) AS surt,
                     CAST(l_orderkey % 9973 AS BIGINT) AS priority,
                     CAST(l_orderkey AS BIGINT) AS src_okey,
                     CAST(l_linenumber % 8 AS BIGINT) AS depth
              FROM lineitem
            )
            SELECT surt, priority, src_okey, depth,
                   CAST(n AS BIGINT) AS n_merged
            FROM (
              SELECT surt, priority, src_okey, depth,
                     row_number() OVER (
                       PARTITION BY surt
                       ORDER BY priority DESC, src_okey, depth) AS rn,
                     count(*) OVER (PARTITION BY surt) AS n
              FROM f
            ) WHERE rn = 1
        """,
        "q_ann_filtered": """
            SELECT query_id, vec_id, cos_sim_e4 FROM (
                SELECT q.vec_id AS query_id, e.vec_id AS vec_id,
                       CAST(round(list_cosine_similarity(e.embedding,
                                                         q.embedding)
                                  * 10000) AS BIGINT) AS cos_sim_e4,
                       row_number() OVER (
                           PARTITION BY q.vec_id
                           ORDER BY list_cosine_similarity(e.embedding,
                                                           q.embedding)
                                    DESC, e.vec_id) AS rn
                FROM embeddings q, embeddings e
                WHERE q.vec_id < 5 AND e.vec_id <> q.vec_id
                  AND e.label = q.label
            ) WHERE rn <= 3
        """,
        "q_ccnet_bucket": r"""
            WITH bg AS (
              SELECT doc_id,
                     LEAST(ord(substring(text, i, 1)), 128) AS a,
                     LEAST(ord(substring(text, i + 1, 1)), 128) AS b
              FROM (
                SELECT doc_id, text,
                       unnest(generate_series(1, length(text) - 1)) AS i
                FROM documents WHERE length(text) >= 2
              )
            ), cnt AS (
              SELECT a, b, COUNT(*) AS c FROM bg GROUP BY a, b
            ), rowc AS (
              SELECT a, SUM(c) AS ra FROM cnt GROUP BY a
            ), s AS (
              SELECT bg.doc_id,
                     CAST(round(SUM(ln(rowc.ra + 129.0) - ln(cnt.c + 1.0))
                                / COUNT(*) * 10000) AS BIGINT) AS nll_e4
              FROM bg
              JOIN cnt USING (a, b) JOIN rowc USING (a)
              GROUP BY bg.doc_id
            ), sl AS (
              SELECT s.doc_id, d.lang, s.nll_e4
              FROM s JOIN documents d ON s.doc_id = d.doc_id
            ), w AS (
              SELECT doc_id, lang, nll_e4,
                     COUNT(*) OVER (PARTITION BY lang
                                    ORDER BY nll_e4) AS cle,
                     COUNT(*) OVER (PARTITION BY lang) AS n
              FROM sl
            ), cut AS (
              SELECT lang,
                     MIN(nll_e4) FILTER (3 * cle >= n) AS c33,
                     MIN(nll_e4) FILTER (3 * cle >= 2 * n) AS c67
              FROM w GROUP BY lang
            )
            SELECT sl.doc_id, sl.lang,
                   CASE WHEN sl.nll_e4 <= cut.c33 THEN 'head'
                        WHEN sl.nll_e4 <= cut.c67 THEN 'middle'
                        ELSE 'tail' END AS bucket
            FROM sl JOIN cut USING (lang)
        """,
        "q_train_val_split": r"""
            SELECT doc_id, lang,
                   CASE WHEN (doc_id % 1000003) * 2654435761 % 4294967296
                             * 1000 < 50 * 4294967296
                        THEN 'val' ELSE 'train' END AS split
            FROM documents
        """,
        "q_crawl_delta": r"""
            WITH a AS (
              SELECT doc_id, md5(text) AS h FROM documents
            ), b AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 7 = 0 THEN md5(text || 'x')
                          ELSE md5(text) END AS h
              FROM documents WHERE doc_id % 13 != 0
              UNION ALL
              SELECT doc_id + 1000000, md5(text)
              FROM documents WHERE doc_id % 17 = 0
            )
            SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                   CASE WHEN b.doc_id IS NULL THEN 'gone'
                        WHEN a.doc_id IS NULL THEN 'new'
                        WHEN a.h != b.h THEN 'changed'
                        ELSE 'unchanged' END AS status
            FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
        """,
        "q_winnowing": r"""
            WITH nums AS (
              SELECT CAST(row_number() OVER () AS BIGINT) AS i FROM lineitem
              QUALIFY i <= (SELECT max(length(text)) FROM documents)
            ), g AS (
              SELECT doc_id, i, substring(text, i, 5) AS gram,
                     length(text) - 5 + 1 AS n
              FROM documents, nums
              WHERE i <= length(text) - 5 + 1
            ), m AS (
              SELECT doc_id, i, n,
                     MIN(gram) OVER (PARTITION BY doc_id ORDER BY i
                       ROWS BETWEEN CURRENT ROW AND 3 FOLLOWING) AS gram
              FROM g
            )
            SELECT DISTINCT doc_id, gram
            FROM m WHERE i <= n - 4 + 1
        """,
        "q_url_templates": r"""
            WITH u AS (
              SELECT 'h' || CAST(user_id % 40 AS VARCHAR) || '.example'
                       AS host,
                     CASE event_type
                       WHEN 'purchase' THEN '/product/'
                         || CAST(event_id % 997 AS VARCHAR) || '/review/'
                         || CAST(user_id % 53 AS VARCHAR)
                       WHEN 'click' THEN '/item/'
                         || CAST(event_id % 811 AS VARCHAR)
                       WHEN 'view' THEN '/cat/'
                         || CAST(user_id % 7 AS VARCHAR) || '/page/'
                         || CAST(event_id % 211 AS VARCHAR)
                       ELSE '/account/' || CAST(user_id AS VARCHAR)
                         || '/settings'
                     END AS path
              FROM events
            )
            SELECT host,
                   regexp_replace(path, '[0-9]+', '{n}', 'g') AS template,
                   CAST(count(*) AS BIGINT) AS n_urls
            FROM u GROUP BY host, template
        """,
        "q_scd2_history": r"""
            WITH a AS (
              SELECT doc_id, md5(text) AS h FROM documents
            ), b AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 7 = 0 THEN md5(text || 'x')
                          ELSE md5(text) END AS h
              FROM documents WHERE doc_id % 13 != 0
              UNION ALL
              SELECT doc_id + 1000000, md5(text)
              FROM documents WHERE doc_id % 17 = 0
            ), j AS (
              SELECT COALESCE(a.doc_id, b.doc_id) AS doc_id,
                     a.h AS ha, b.h AS hb
              FROM a FULL OUTER JOIN b ON a.doc_id = b.doc_id
            )
            SELECT doc_id, ha AS h, CAST(1 AS BIGINT) AS valid_from,
                   CAST(2 AS BIGINT) AS valid_to,
                   CAST(0 AS BIGINT) AS is_current
            FROM j WHERE hb IS NULL OR (ha IS NOT NULL AND ha != hb)
            UNION ALL
            SELECT doc_id, hb AS h,
                   CAST(CASE WHEN ha IS NULL OR ha != hb THEN 2 ELSE 1 END
                        AS BIGINT) AS valid_from,
                   CAST(-1 AS BIGINT) AS valid_to,
                   CAST(1 AS BIGINT) AS is_current
            FROM j WHERE hb IS NOT NULL
        """,
        "q_cdx_revisits": r"""
            WITH c AS (
              SELECT 'example,h' || CAST(user_id % 40 AS VARCHAR)
                       || ')/p/' || CAST(event_id % 97 AS VARCHAR)
                       AS surt,
                     epoch_us(ts) AS t_us, event_id,
                     md5('example,h' || CAST(user_id % 40 AS VARCHAR)
                       || ')/p/' || CAST(event_id % 97 AS VARCHAR)
                       || '#'
                       || CAST((event_id // 5) % 3 AS VARCHAR)) AS digest
              FROM events
            ), m AS (
              SELECT surt, t_us, digest,
                     LAG(digest) OVER (PARTITION BY surt
                                       ORDER BY t_us, event_id) AS pd
              FROM c
            )
            SELECT surt, t_us, digest,
                   CASE WHEN pd = digest THEN 'revisit'
                        ELSE 'response' END AS kind
            FROM m
        """,
        "q_degree_stats": r"""
            WITH nn AS (SELECT count(*) AS n FROM customer),
            e AS (SELECT o_custkey AS src,
                         o_orderkey % (SELECT n FROM nn) AS dst
                  FROM orders),
            d AS (
              SELECT node, SUM(outd) AS outd, SUM(ind) AS ind FROM (
                SELECT src AS node, 1 AS outd, 0 AS ind FROM e
                UNION ALL
                SELECT dst AS node, 0 AS outd, 1 AS ind FROM e
              ) GROUP BY node
            )
            SELECT CASE WHEN outd > 0 THEN length(bin(outd)) - 1
                        ELSE -1 END AS out_class,
                   CASE WHEN ind > 0 THEN length(bin(ind)) - 1
                        ELSE -1 END AS in_class,
                   CAST(count(*) AS BIGINT) AS n_nodes
            FROM d GROUP BY 1, 2
        """,
        "q_kl_drift": r"""
            WITH w AS (
              SELECT source, unnest(string_split(text, ' ')) AS tok
              FROM documents
            ), c AS (
              SELECT source, tok, CAST(count(*) AS BIGINT) AS c
              FROM w GROUP BY 1, 2
            ), st AS (
              SELECT source, SUM(c) AS n FROM c GROUP BY source
            ), g AS (
              SELECT tok, SUM(c) AS gc FROM c GROUP BY tok
            ), gt AS (SELECT SUM(gc) AS gn FROM g)
            SELECT c.source,
                   CAST(round(SUM(
                     (c.c * 1.0 / st.n)
                     * ln((c.c * 1.0 / st.n)
                          / (g.gc * 1.0 / (SELECT gn FROM gt)))
                   ) * 10000) AS BIGINT) AS kl_e4
            FROM c JOIN st USING (source) JOIN g USING (tok)
            GROUP BY c.source
        """,
        "q_incremental_dedup": r"""
            SELECT doc_id FROM documents
            WHERE doc_id % 3 = 0
              AND text NOT IN (
                SELECT text FROM documents
                WHERE doc_id % 3 != 0 OR doc_id % 9 = 0
              )
        """,
        "q_zipf_fit": r"""
            WITH f AS (
              SELECT tok, CAST(count(*) AS BIGINT) AS c FROM (
                SELECT unnest(string_split(text, ' ')) AS tok
                FROM documents
              ) GROUP BY tok
            ), r AS (
              SELECT ln(CAST(row_number() OVER (ORDER BY c DESC, tok)
                             AS DOUBLE)) AS x,
                     ln(CAST(c AS DOUBLE)) AS y
              FROM f
            ), s AS (
              SELECT CAST(count(*) AS DOUBLE) AS n,
                     SUM(x * y) AS sxy, SUM(x) AS sx, SUM(y) AS sy,
                     SUM(x * x) AS sxx
              FROM r
            )
            SELECT CAST(n AS BIGINT) AS n_vocab,
                   CAST(round((n * sxy - sx * sy)
                              / (n * sxx - sx * sx) * 10000) AS BIGINT)
                     AS slope_e4
            FROM s
        """,
        "q_maxsim": """
            WITH mx AS (
              SELECT e.label, q.vec_id AS qid,
                     MAX(list_cosine_similarity(e.embedding, q.embedding))
                       AS m
              FROM embeddings e, embeddings q
              WHERE q.vec_id < 3
              GROUP BY e.label, q.vec_id
            )
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(round(SUM(m) * 10000) AS BIGINT) AS maxsim_e4
            FROM mx GROUP BY label
        """,
        "q_anchor_agg": """
            WITH l AS (
              SELECT 'p' || (o_orderkey % 200) AS target,
                     'w' || (o_custkey % 30) AS anchor
              FROM orders
            ), c AS (
              SELECT target, anchor, count(*) AS n FROM l GROUP BY 1, 2
            )
            SELECT target, CAST(n_links AS BIGINT) AS n_links,
                   CAST(n_anchors AS BIGINT) AS n_anchors,
                   anchor AS top_anchor, CAST(n AS BIGINT) AS top_n
            FROM (
              SELECT target, anchor, n,
                     SUM(n) OVER (PARTITION BY target) AS n_links,
                     COUNT(*) OVER (PARTITION BY target) AS n_anchors,
                     row_number() OVER (PARTITION BY target
                                        ORDER BY n DESC, anchor) AS rn
              FROM c
            ) WHERE rn = 1
        """,
        "q_temperature_mix": """
            WITH m AS (
              SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
              FROM documents GROUP BY lang
            ), w AS (
              SELECT lang, n_docs, POWER(n_docs, 0.7) AS w FROM m
            ), t AS (
              SELECT SUM(w) AS sw, SUM(n_docs) AS tot FROM w
            )
            SELECT lang, n_docs,
                   CAST(round(w / (SELECT sw FROM t) * 1000000) AS BIGINT)
                     AS weight_e6,
                   CAST(CAST(round(w / (SELECT sw FROM t) * 1000000)
                             AS BIGINT)
                        * (SELECT tot FROM t) // 1000000 AS BIGINT)
                     AS target_n
            FROM w
        """,
        "q_host_quota": """
            WITH d AS (
              SELECT 'h' || (l_suppkey % 64) || '.example' AS host,
                     COUNT(*) AS demand
              FROM lineitem GROUP BY 1
            ), g AS (SELECT SUM(demand) // 3 AS budget FROM d),
            s AS (
              SELECT host, demand,
                     COALESCE(SUM(demand) OVER (
                       ORDER BY demand, host
                       ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING
                     ), 0) AS before_sum,
                     ROW_NUMBER() OVER (ORDER BY demand, host) AS rn,
                     COUNT(*) OVER () AS n
              FROM d
            ), lvl AS (
              SELECT MAX(LEAST(GREATEST(budget - before_sum, 0)
                               // (n - rn + 1), demand)) AS level
              FROM s, g
            )
            SELECT s.host,
                   CAST(s.demand AS BIGINT) AS demand,
                   CAST(LEAST(s.demand, lvl.level) AS BIGINT) AS alloc
            FROM s, lvl
        """,
        "q_embedding_norms": r"""
            WITH n AS (
              SELECT label,
                     CAST(floor(sqrt(list_aggregate(
                            list_transform(embedding,
                                           x -> CAST(x AS DOUBLE)
                                                * CAST(x AS DOUBLE)),
                            'sum')) * 10000 + 0.5) AS BIGINT) AS e4
              FROM embeddings)
            SELECT CAST(label AS BIGINT) AS label,
                   CAST(count(*) AS BIGINT) AS n_vecs,
                   CAST(SUM(e4) // count(*) AS BIGINT) AS avg_norm_e4
            FROM n GROUP BY label
        """,
        "q_word_len_hist": r"""
            WITH w AS (
              SELECT unnest(regexp_extract_all(text, '[a-z]+')) AS word
              FROM documents)
            SELECT CAST(length(word) AS BIGINT) AS word_len,
                   CAST(count(*) AS BIGINT) AS n_words
            FROM w GROUP BY 1
        """,
        "q_punct_density": r"""
            WITH d AS (
              SELECT lang,
                     length(regexp_replace(text, '[^,.!?;:]', '', 'g'))
                       AS p,
                     length(text) AS c
              FROM documents)
            SELECT lang,
                   CAST(SUM(p) AS BIGINT) AS punct_chars,
                   CAST(SUM(c) AS BIGINT) AS total_chars,
                   CAST(SUM(p) * 10000 // SUM(c) AS BIGINT) AS density_e4
            FROM d GROUP BY lang
        """,
        "q_ttr_by_source": r"""
            WITH w AS (
              SELECT source,
                     unnest(regexp_extract_all(text, '[a-z]+')) AS word
              FROM documents)
            SELECT source,
                   CAST(count(*) AS BIGINT) AS n_words,
                   CAST(count(DISTINCT word) AS BIGINT) AS n_distinct,
                   CAST(count(DISTINCT word) * 10000 // count(*) AS BIGINT)
                     AS ttr_e4
            FROM w GROUP BY source
        """,
        "q_source_lang_matrix": r"""
            SELECT source, lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM documents GROUP BY 1, 2
        """,
        "q_embedding_dim_stats": r"""
            WITH x AS (
              SELECT d.dim AS dim,
                     CASE WHEN v >= 0
                          THEN CAST(floor(CAST(v AS DOUBLE)*10000 + 0.5)
                               AS BIGINT)
                          ELSE -CAST(floor(-CAST(v AS DOUBLE)*10000 + 0.5)
                               AS BIGINT) END AS e4
              FROM embeddings,
                   LATERAL (SELECT unnest(generate_series(1, 64)) AS dim) d,
                   LATERAL (SELECT embedding[d.dim] AS v) val)
            SELECT CAST(dim AS BIGINT) AS dim,
                   CAST(count(*) AS BIGINT) AS n_vecs,
                   CAST(CASE WHEN SUM(e4) >= 0
                             THEN SUM(e4) // count(*)
                             ELSE -((-SUM(e4)) // count(*)) END AS BIGINT)
                     AS avg_e4
            FROM x GROUP BY dim
        """,
        # quality-aware exact dedup: keep max-n_chars (doc_id tiebreak)
        # per distinct text; dup mass planted as 'dup-' || (doc_id//7)%13
        # on every 7th doc
        "q_dedup_keep_best": r"""
            WITH d AS (
              SELECT doc_id, n_chars,
                     CASE WHEN doc_id % 7 = 0
                          THEN 'dup-' || CAST((doc_id // 7) % 13 AS VARCHAR)
                          ELSE text END AS key
              FROM documents
            ), r AS (
              SELECT doc_id, n_chars, row_number() OVER (
                       PARTITION BY key ORDER BY n_chars DESC, doc_id) AS rn
              FROM d
            )
            SELECT doc_id, n_chars FROM r WHERE rn = 1
        """,
        # host-concentration Gini over the flagship's hostid fold;
        # integer-exact rational rounding ((2p+q)//(2q) half-away) —
        # rank ties contribute i*x sums invariantly, so ORDER BY n alone
        # is deterministic
        "q_host_gini": r"""
            WITH h AS (
              SELECT CASE WHEN l_suppkey % 7 = 0 THEN 0
                          ELSE l_suppkey % 97 END AS hostid,
                     count(*) AS n
              FROM lineitem GROUP BY 1
            ), ranked AS (
              SELECT n, row_number() OVER (ORDER BY n, hostid) AS i FROM h
            ), s AS (
              SELECT CAST(count(*) AS BIGINT) AS nh,
                     CAST(sum(n) AS BIGINT) AS s0,
                     CAST(sum(i * n) AS BIGINT) AS s1
              FROM ranked
            )
            SELECT nh AS n_hosts, s0 AS n_urls,
                   CAST((2 * ((2 * s1 - (nh + 1) * s0) * 1000000)
                         + nh * s0) // (2 * nh * s0) AS BIGINT) AS gini_e6
            FROM s
        """,
        # soft dedup: every member of an exact-dup group of size n
        # keeps weight 1/n (same planted dup mass as q_dedup_keep_best)
        "q_soft_dedup": r"""
            WITH keyed AS (
              SELECT doc_id,
                     CASE WHEN doc_id % 7 = 0
                          THEN 'dup-' || CAST((doc_id // 7) % 13 AS VARCHAR)
                          ELSE text END AS key
              FROM documents
            ), counts AS (
              SELECT key, CAST(count(*) AS BIGINT) AS n FROM keyed GROUP BY key
            )
            SELECT k.doc_id, c.n AS n_dups, 1.0 / c.n AS weight
            FROM keyed k JOIN counts c ON k.key = c.key
        """,
        # theta/KMV intersection — EXACT in the unsaturated regime the
        # fixture sits in, so the twin is the plain distinct self-join
        "q_theta_intersect": r"""
            WITH du AS (SELECT DISTINCT event_type, user_id FROM events)
            SELECT a.event_type AS type_a, b.event_type AS type_b,
                   CAST(count(*) AS BIGINT) AS n_common
            FROM du a JOIN du b
              ON a.user_id = b.user_id AND a.event_type < b.event_type
            GROUP BY 1, 2
        """,
        # A-Res weighted sample: the n_sample smallest -ln(u)/w keys
        # with u the Knuth-hash uniform — deterministic, so the twin
        # replays the identical race (key gaps at the rank boundary are
        # ~1/n^2 of scale, 10 orders above any ln() ULP divergence)
        "q_weighted_sample": r"""
            SELECT doc_id, n_chars FROM (
              SELECT doc_id, n_chars,
                     -ln((((doc_id * 2654435761) % 4294967296) + 1)
                         / 4294967296.0) / n_chars AS key
              FROM documents
              ORDER BY key, doc_id
              LIMIT 100
            )
        """,
        # personalized PageRank: q_pagerank's integer fixed-point CTE
        # with teleport + init concentrated on seeds (node % 41 = 0),
        # unrolled to the q_ppr default of 4 iterations
        "q_ppr": """
            WITH nodes AS (SELECT c_custkey AS node FROM customer),
                 ns AS (SELECT count(*) AS n FROM customer
                        WHERE c_custkey % 41 = 0),
                 edges AS (SELECT o_custkey AS src,
                                  o_orderkey % (SELECT count(*) FROM customer)
                                    AS dst,
                                  CAST(count(*) AS BIGINT) AS cnt
                           FROM orders GROUP BY 1, 2),
                 outdeg AS (SELECT src, SUM(cnt) AS deg FROM edges GROUP BY src),
                 r0 AS (SELECT CAST(1000000000000 // (SELECT n FROM ns)
                                    AS BIGINT) AS v),
                 bs AS (SELECT CAST(15 * (SELECT v FROM r0) // 100
                                    AS BIGINT) AS v),
                 it0 AS (SELECT node,
                                CASE WHEN node % 41 = 0
                                     THEN (SELECT v FROM r0) ELSE 0 END AS r
                         FROM nodes),
                 it1 AS (SELECT n.node AS node,
                                CASE WHEN n.node % 41 = 0
                                     THEN (SELECT v FROM bs) ELSE 0 END
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0)
                                // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it0 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it2 AS (SELECT n.node AS node,
                                CASE WHEN n.node % 41 = 0
                                     THEN (SELECT v FROM bs) ELSE 0 END
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0)
                                // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it1 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it3 AS (SELECT n.node AS node,
                                CASE WHEN n.node % 41 = 0
                                     THEN (SELECT v FROM bs) ELSE 0 END
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0)
                                // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it2 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node),
                 it4 AS (SELECT n.node AS node,
                                CASE WHEN n.node % 41 = 0
                                     THEN (SELECT v FROM bs) ELSE 0 END
                              + 85 * COALESCE(SUM(e.cnt * (r.r // d.deg)), 0)
                                // 100 AS r
                         FROM nodes n
                         LEFT JOIN edges e ON e.dst = n.node
                         LEFT JOIN it3 r ON r.node = e.src
                         LEFT JOIN outdeg d ON d.src = e.src
                         GROUP BY n.node)
            SELECT node AS custkey, CAST(r AS BIGINT) AS ppr_e12 FROM it4
        """,
        # drain-time plan: ceil(n/budget) per flagship-fold host,
        # histogram over epochs
        "q_drain_epochs": r"""
            WITH h AS (
              SELECT CASE WHEN l_suppkey % 7 = 0 THEN 0
                          ELSE l_suppkey % 97 END AS hostid,
                     count(*) AS n
              FROM lineitem GROUP BY 1
            )
            SELECT CAST((n + 15) // 16 AS BIGINT) AS epochs,
                   CAST(count(*) AS BIGINT) AS n_hosts
            FROM h GROUP BY 1
        """,
        # thumbnail gate twin: dims are codec-corpus key arithmetic / 8;
        # ok=TRUE asserts the real decode + exact box kernel + fidelity
        "q_thumbnail": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   CAST((32 + 16 * (p_partkey % 3)) // 8 AS INTEGER) AS thumb_w,
                   CAST((32 + 16 * ((p_partkey // 3) % 3)) // 8 AS INTEGER)
                       AS thumb_h,
                   CASE p_partkey % 4
                     WHEN 0 THEN 'png' WHEN 1 THEN 'jpeg'
                     WHEN 2 THEN 'gif' ELSE 'qpng' END AS fmt,
                   TRUE AS ok
            FROM part WHERE p_partkey < 96
        """,
        # letterbox twin: planted pads are pure key arithmetic on the
        # 48-row canvas; a hash match certifies decode + detection
        "q_letterbox": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   CAST(2 * (p_partkey % 5) AS INTEGER) AS pad_top,
                   CAST(3 * (p_partkey % 4) AS INTEGER) AS pad_bottom,
                   CAST(48 - 2 * (p_partkey % 5) - 3 * (p_partkey % 4)
                        AS INTEGER) AS content_h
            FROM part WHERE p_partkey < 96
        """,
        # Hamilton apportionment twin: identical floor/remainder/rank
        # algebra; sum(alloc) == budget by construction on both sides
        "q_budget_alloc": """
            WITH demand AS (
              SELECT CASE WHEN l_suppkey % 7 = 0 THEN 0
                          ELSE l_suppkey % 97 END AS hostid,
                     CAST(count(*) AS BIGINT) AS demand
              FROM lineitem GROUP BY 1
            ), tot AS (
              SELECT SUM(demand) AS total, SUM(demand) // 4 AS budget
              FROM demand
            ), base AS (
              SELECT d.hostid, d.demand,
                     (t.budget * d.demand) // t.total AS base,
                     (t.budget * d.demand) % t.total AS rem
              FROM demand d, tot t
            ), lo AS (
              SELECT t.budget - SUM(b.base) AS leftover FROM base b, tot t
              GROUP BY t.budget
            ), ranked AS (
              SELECT hostid, demand, base, rem,
                     ROW_NUMBER() OVER (ORDER BY rem DESC, hostid ASC) AS rk
              FROM base
            )
            SELECT r.hostid, r.demand,
                   CAST(r.base + CASE WHEN r.rk <= l.leftover THEN 1 ELSE 0 END
                        AS BIGINT) AS alloc
            FROM ranked r, lo l
        """,
        # politeness-interleave twin: within-host ROW_NUMBER cap, then a
        # total-order position over (rank, hostid, order key)
        "q_handout_interleave": """
            WITH rows_in AS (
              SELECT o_orderkey AS order_key,
                     o_custkey % 53 AS hostid,
                     CAST(round(o_totalprice * 100) AS BIGINT) AS priority_e2
              FROM orders
            ), ranked AS (
              SELECT *,
                     ROW_NUMBER() OVER (
                       PARTITION BY hostid
                       ORDER BY priority_e2 DESC, order_key ASC
                     ) AS rank_in_host
              FROM rows_in
            )
            SELECT CAST(ROW_NUMBER() OVER (
                     ORDER BY rank_in_host, hostid, order_key
                   ) AS BIGINT) AS pos,
                   CAST(hostid AS BIGINT) AS hostid,
                   order_key,
                   CAST(rank_in_host AS BIGINT) AS rank_in_host,
                   priority_e2
            FROM ranked WHERE rank_in_host <= 4
        """,
        # center-crop twin: geometry is codec-corpus key arithmetic;
        # ok=TRUE asserts decode + crop fidelity
        "q_center_crop": """
            WITH dims AS (
              SELECT p_partkey AS k,
                     32 + 16 * (p_partkey % 3) AS w,
                     32 + 16 * ((p_partkey // 3) % 3) AS h
              FROM part WHERE p_partkey < 96
            )
            SELECT 'img' || CAST(k AS VARCHAR) AS image_id,
                   CAST((w - LEAST(w, h)) // 2 AS INTEGER) AS crop_x,
                   CAST((h - LEAST(w, h)) // 2 AS INTEGER) AS crop_y,
                   CAST(LEAST(w, h) AS INTEGER) AS crop_size,
                   TRUE AS ok
            FROM dims
        """,
        # Crawl-delay drain twin: template arithmetic (hosts % 3 = 0
        # publish no delay -> 1 s default; else 1 + hostid % 7)
        "q_crawl_delay_plan": """
            WITH h AS (
              SELECT CASE WHEN l_suppkey % 7 = 0 THEN 0
                          ELSE l_suppkey % 97 END AS hostid,
                     CAST(count(*) AS BIGINT) AS demand
              FROM lineitem GROUP BY 1
            )
            SELECT hostid, demand,
                   CAST(CASE WHEN hostid % 3 = 0 THEN 1
                             ELSE 1 + hostid % 7 END AS BIGINT) AS delay_s,
                   CAST(demand * (CASE WHEN hostid % 3 = 0 THEN 1
                                       ELSE 1 + hostid % 7 END)
                        AS BIGINT) AS drain_s
            FROM h
        """,
        # reciprocity twin: distinct directed edges of the pagerank
        # graph, self-join on the reversed pair, half-away e6 ratio
        "q_reciprocity": """
            WITH n AS (SELECT count(*) AS n_nodes FROM customer),
            e AS (
              SELECT DISTINCT o_custkey AS src,
                     o_orderkey % (SELECT n_nodes FROM n) AS dst
              FROM orders
              WHERE o_custkey <> o_orderkey % (SELECT n_nodes FROM n)
            ), stats AS (
              SELECT (SELECT count(*) FROM e) AS n_edges,
                     (SELECT count(*) FROM e a
                      JOIN e b ON a.src = b.dst AND a.dst = b.src)
                         AS n_reciprocal
            )
            SELECT CAST(n_edges AS BIGINT) AS n_edges,
                   CAST(n_reciprocal AS BIGINT) AS n_reciprocal,
                   CAST((2 * n_reciprocal * 1000000 + n_edges)
                        // (2 * n_edges) AS BIGINT) AS reciprocity_e6
            FROM stats
        """,
        # blur-gate twin: planted truth is key parity; a decode /
        # Laplacian / threshold regression flips rows
        "q_blur_detect": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   (p_partkey % 2 = 1) AS blurred
            FROM part WHERE p_partkey < 96
        """,
        # redirect-map twin: the planted chain structure is closed-form
        # (u redirects to u-1 unless u % 8 = 0), so final/hops are pure
        # arithmetic while the engine genuinely chases pointers
        "q_redirect_resolve": """
            SELECT DISTINCT o_orderkey AS url_id,
                   CAST(o_orderkey - (o_orderkey % 8) AS BIGINT) AS final_id,
                   CAST(o_orderkey % 8 AS BIGINT) AS hops
            FROM orders
        """,
        # sitemap-autodiscovery twin: template string arithmetic over
        # the flagship host fold
        "q_robots_sitemaps": """
            WITH h AS (
              SELECT DISTINCT CASE WHEN l_suppkey % 7 = 0 THEN 0
                                   ELSE l_suppkey % 97 END AS hostid
              FROM lineitem
            )
            SELECT hostid,
                   'http://host' || CAST(hostid AS VARCHAR)
                       || '.example/sitemap.xml' AS sitemap_url
            FROM h WHERE hostid % 4 <> 3
            UNION ALL
            SELECT hostid,
                   'http://host' || CAST(hostid AS VARCHAR)
                       || '.example/sitemap-news.xml'
            FROM h WHERE hostid % 4 <> 3 AND hostid % 2 = 0
        """,
        # redirect-cycle twin: 16-blocks alternate terminal chains and
        # 8-cycles (top blocks truncated to chains); the canonical id
        # is uniform closed-form while the engine detects periodicity
        "q_redirect_cycles": """
            WITH n AS (SELECT count(*) AS nd FROM orders)
            SELECT DISTINCT o_orderkey AS url_id,
                   CAST(o_orderkey - (o_orderkey % 16)
                        + CASE WHEN o_orderkey % 16 >= 8 THEN 8 ELSE 0 END
                        AS BIGINT) AS final_id,
                   (o_orderkey % 16 >= 8
                    AND o_orderkey - (o_orderkey % 16) + 15
                        < (SELECT nd FROM n)) AS is_cycle
            FROM orders
        """,
        # sniff twin: every declared fmt maps to a known container
        # (qpng's container IS png — the expected mismatch)
        "q_format_sniff": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   CASE p_partkey % 4
                     WHEN 0 THEN 'png' WHEN 1 THEN 'jpeg'
                     WHEN 2 THEN 'gif' ELSE 'qpng' END AS declared_fmt,
                   CASE p_partkey % 4
                     WHEN 0 THEN 'png' WHEN 1 THEN 'jpeg'
                     WHEN 2 THEN 'gif' ELSE 'png' END AS sniffed_fmt,
                   (p_partkey % 4 <> 3) AS container_match
            FROM part WHERE p_partkey < 96
        """,
        # decode-error twin: planted truth — truncated (k%5=2) and
        # bit-rotted (k%5=4) rows must fail, intact rows must pass
        "q_decode_errors": """
            SELECT 'img' || CAST(p_partkey AS VARCHAR) AS image_id,
                   (p_partkey % 5 NOT IN (2, 4)) AS decode_ok
            FROM part WHERE p_partkey < 96
        """,
        "q_dedup_first": """
            SELECT l_orderkey, l_partkey, l_linenumber, l_quantity FROM (
                SELECT l_orderkey, l_partkey, l_linenumber, l_quantity,
                       row_number() OVER (PARTITION BY l_orderkey
                                          ORDER BY l_linenumber, l_partkey,
                                                   l_quantity) AS rn
                FROM lineitem
            ) WHERE rn = 1
        """,
        # duplication-profile twin: cluster sizes from GROUP BY text,
        # histogram over the sizes
        "q_dedup_cluster_hist": """
            WITH c AS (
              SELECT CAST(count(*) AS BIGINT) AS cluster_size
              FROM documents GROUP BY text
            )
            SELECT cluster_size, CAST(count(*) AS BIGINT) AS n_clusters
            FROM c GROUP BY 1
        """,
    }
