"""Pipeline entry points.

- crawl: the epoch loop (seed -> crawl -> checkpoint -> resume)
- frontier: flagship schedule pipeline + bench input synthesis
- verify: M10 corpus invariant vs reference
- curation: image+caption curation to tar shards, LLM-text composite
- webops: DuckDB-oracled crawl-web operators (sitemaps, traps, recrawl,
  redirects, politeness plans)
- dataops: dedup / ANN / text-analysis / multimodal operators
"""
