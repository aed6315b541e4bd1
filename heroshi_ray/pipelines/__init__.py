"""Pipeline entry points.

- crawl: the epoch loop (seed -> crawl -> checkpoint -> resume)
- frontier: flagship schedule pipeline + bench input synthesis
- verify: M10 corpus invariant vs reference
- curation: image+caption curation to tar shards, LLM-text composite
- webops: DuckDB-oracled crawl-web operators (sitemaps, traps, recrawl,
  redirects, politeness plans)
- dataops: DuckDB-oracled corpus operators (dedup, exact ANN, text
  statistics, graph ranks) plus rows-only image decode, curation and
  near-dup entries

None of the crawl, flagship or verifier paths imports webops or dataops
(tests/test_queries_oracle.py::test_crawl_path_import_closure).
"""
