"""Pipeline entry points.

- crawl: the epoch loop (seed -> crawl -> checkpoint -> resume)
- frontier: flagship schedule pipeline + bench input synthesis
- verify: M10 corpus invariant vs reference
- curation: image+caption curation to tar shards
- webops: DuckDB-oracled crawl-web operators (sitemaps, traps, recrawl,
  redirects, politeness plans)
- dataops: DuckDB-oracled corpus operators (dedup, exact ANN, text
  statistics, graph ranks, codec and image checks)

Only the ``__ray_entry__.py`` registry and the tests import webops or
dataops (tests/test_imports.py::test_analytics_imported_only_by_registry).
"""
