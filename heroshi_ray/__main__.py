"""CLI entry points: `python -m heroshi_ray <cmd>`.

Commands
--------
fixtures  --out DIR [--hosts N --pages N --images N --seeds N --seed S]
crawl     --fixtures DIR --workdir DIR [--epochs N --budget N] [--no-resume]
verify    --workdir DIR --fixtures DIR
schedule  --sf-dir DIR [--budget N]
curate    --corpus PATH --out DIR [--samples-per-shard N]
reshard   --shards-in DIR --out DIR [--samples-per-shard N]
query     [NAME] [--sf-dir DIR --out PATH --head N --oracle]

These own a Ray session (ray.init / ray.shutdown); the library itself
never initialises Ray (driver contract, __ray_entry__.py).
"""

from __future__ import annotations

import argparse
import json
import sys


def _ray_up():
    import logging
    import os

    logging.getLogger("ray.data").setLevel(logging.ERROR)
    import ray

    if not ray.is_initialized():
        # honors RAY_ADDRESS so `ray job submit -- python -m heroshi_ray
        # crawl ...` attaches to the submitting cluster (north_rule's
        # deployment surface); standalone runs default to a local session
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="heroshi_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    f = sub.add_parser("fixtures")
    f.add_argument("--out", required=True)
    f.add_argument("--hosts", type=int, default=8)
    f.add_argument("--pages", type=int, default=300)
    f.add_argument("--images", type=int, default=60)
    f.add_argument("--seeds", type=int, default=12)
    f.add_argument("--seed", type=int, default=42)

    c = sub.add_parser("crawl")
    c.add_argument("--fixtures", required=True)
    c.add_argument("--workdir", required=True)
    c.add_argument("--epochs", type=int, default=32)
    c.add_argument("--budget", type=int, default=96)
    c.add_argument("--no-resume", action="store_true")

    v = sub.add_parser("verify")
    v.add_argument("--workdir", required=True)
    v.add_argument("--fixtures", required=True)

    s = sub.add_parser("schedule")
    s.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    s.add_argument("--budget", type=int, default=64)

    cu = sub.add_parser("curate")
    cu.add_argument("--corpus", required=True)
    cu.add_argument("--out", required=True)
    cu.add_argument("--samples-per-shard", type=int, default=256)

    rs = sub.add_parser("reshard")
    rs.add_argument("--shards-in", required=True)
    rs.add_argument("--out", required=True)
    rs.add_argument("--samples-per-shard", type=int, default=256)

    we = sub.add_parser("warc-export")  # fetch-result parquet -> WARC 1.1
    we.add_argument("--fetch-parquet", required=True)
    we.add_argument("--out", required=True)
    we.add_argument("--records-per-file", type=int, default=2048)

    wi = sub.add_parser("warc-import")  # WARC 1.1 -> parquet
    wi.add_argument("--warc-dir", required=True)
    wi.add_argument("--out", required=True)

    q = sub.add_parser("query")  # run any registered operator by name
    q.add_argument("name", nargs="?", help="queries() key; omit to list")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.001")
    q.add_argument("--out", help="write the result as parquet here")
    q.add_argument("--head", type=int, default=5, help="rows to print")
    q.add_argument(
        "--oracle", action="store_true",
        help="cross-check against the DuckDB twin (exits 1 on mismatch)",
    )

    args = p.parse_args(argv)

    if args.cmd == "fixtures":
        from .fixtures import write_fixture_dir

        paths = write_fixture_dir(
            args.out, n_hosts=args.hosts, n_pages=args.pages,
            n_images=args.images, n_seeds=args.seeds, seed=args.seed,
        )
        print(json.dumps(paths))
        return 0

    ray = _ray_up()
    try:
        if args.cmd == "crawl":
            import os

            from .pipelines.crawl import Crawler, CrawlConfig

            fx = args.fixtures
            paths = {
                "pages": os.path.join(fx, "pages.parquet"),
                "corpus": os.path.join(fx, "corpus.parquet"),
                "robots": os.path.join(fx, "robots.parquet"),
                "seeds": os.path.join(fx, "seeds.txt"),
            }
            cfg = CrawlConfig(max_epochs=args.epochs, epoch_budget=args.budget)
            cr = Crawler(paths, args.workdir, cfg)
            rep = cr.run(resume=not args.no_resume)
            print(
                json.dumps(
                    {
                        "epochs": rep.epochs_run,
                        "scheduled": rep.urls_scheduled,
                        "admitted": rep.urls_admitted,
                        "fetch_ok": rep.fetch_ok,
                        "fetch_err": rep.fetch_err,
                        "robots_denied": rep.robots_denied,
                        "wall_s": round(rep.wall_s, 2),
                    }
                )
            )
            cr.shutdown()
        elif args.cmd == "verify":
            import os

            import pyarrow.parquet as pq

            from .pipelines.crawl import Crawler, CrawlConfig
            from .pipelines.verify import verify_corpus

            import glob

            files = sorted(
                glob.glob(os.path.join(args.workdir, "corpus", "e*", "*.parquet"))
            )
            import ray.data as rd

            ours = rd.read_parquet(files)
            ref = pq.read_table(os.path.join(args.fixtures, "corpus.parquet"))
            verdicts = verify_corpus(ours, ref).to_pandas()
            print(
                json.dumps(
                    {
                        "rows": int(len(verdicts)),
                        "passed": int(verdicts["passed"].sum()),
                        "failed": int((~verdicts["passed"]).sum()),
                    }
                )
            )
            return 0 if verdicts["passed"].all() else 1
        elif args.cmd == "schedule":
            from .pipelines.frontier import run_flagship

            out = run_flagship(args.sf_dir, per_host_budget=args.budget)
            print(json.dumps({"scheduled": out.count()}))
        elif args.cmd == "curate":
            from .pipelines.curation import curate_to_shards

            m = curate_to_shards(
                args.corpus, args.out,
                samples_per_shard=args.samples_per_shard,
            ).to_pandas()
            print(
                json.dumps(
                    {
                        "shards": int(len(m)),
                        "samples": int(m["n_samples"].sum()),
                        "bytes": int(m["n_bytes"].sum()),
                        "buckets": sorted(m["partition"].unique().tolist()),
                    }
                )
            )
        elif args.cmd == "warc-export":
            import ray.data as _rd

            from .sources.warc import write_warc

            m = write_warc(
                _rd.read_parquet(args.fetch_parquet), args.out,
                records_per_file=args.records_per_file,
            ).to_pandas()
            print(
                json.dumps(
                    {
                        "files": int(len(m)),
                        "records": int(m["n_records"].sum()),
                        "bytes": int(m["n_bytes"].sum()),
                    }
                )
            )
        elif args.cmd == "warc-import":
            from .sources.warc import read_warc

            read_warc(args.warc_dir).write_parquet(args.out)
            print(json.dumps({"out": args.out}))
        elif args.cmd == "reshard":
            from .sources.tarshards import reshard_tar_shards

            m = reshard_tar_shards(
                args.shards_in, args.out,
                samples_per_shard=args.samples_per_shard,
            ).to_pandas()
            print(
                json.dumps(
                    {
                        "shards": int(len(m)),
                        "samples": int(m["n_samples"].sum()),
                        "bytes": int(m["n_bytes"].sum()),
                    }
                )
            )
        elif args.cmd == "query":
            return _run_query(args)
    finally:
        ray.shutdown()
    return 0


def _run_query(args) -> int:
    """Run one registered operator by name over an sf-dir — the CLI
    face of the __ray_entry__ driver contract, so every pipeline in
    queries() is directly runnable (and, with --oracle, directly
    cross-checkable) without writing a script."""
    import importlib.util
    import os
    import sys

    import pandas as pd

    # __ray_entry__ lives at the repo root, not inside the package.
    # Reuse an already-imported instance (e.g. under pytest, or when the
    # driver imported it first): re-exec'ing the file from disk while
    # heroshi_ray.* stays at its in-memory version can skew the registry
    # against the loaded pipeline modules.
    entrymod = sys.modules.get("__ray_entry__")
    if entrymod is None or not hasattr(entrymod, "queries"):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        spec = importlib.util.spec_from_file_location(
            "__ray_entry__", os.path.join(root, "__ray_entry__.py")
        )
        entrymod = importlib.util.module_from_spec(spec)
        sys.modules["__ray_entry__"] = entrymod
        spec.loader.exec_module(entrymod)

    qs, orc = entrymod.queries(), entrymod.oracle_sql()
    if not args.name:
        for name in sorted(qs):
            print(name)
        return 0
    if args.name not in qs:
        print(json.dumps({"err": f"unknown query {args.name!r}"}))
        return 1

    res = qs[args.name](args.sf_dir)
    df = res if isinstance(res, pd.DataFrame) else res.to_pandas()
    if args.out:
        df.to_parquet(args.out, index=False)
    report = {"query": args.name, "rows": int(len(df)),
              "columns": sorted(df.columns.tolist())}

    if args.oracle:
        import duckdb

        con = duckdb.connect()
        for t in ("region nation customer supplier part orders "
                  "lineitem events documents embeddings").split():
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM "
                f"'{os.path.join(args.sf_dir, t + '.parquet')}'"
            )

        def canon(x: pd.DataFrame) -> pd.DataFrame:
            x = x[sorted(x.columns)].copy()
            for c in x.columns:
                if x[c].dtype == object:
                    x[c] = x[c].astype(str)
            return x.sort_values(
                list(x.columns), kind="mergesort"
            ).reset_index(drop=True)

        theirs = con.sql(orc[args.name]).df()
        try:
            pd.testing.assert_frame_equal(
                canon(df), canon(theirs),
                check_dtype=False, check_exact=True,
            )
            report["oracle"] = "match"
        except AssertionError as e:
            report["oracle"] = f"MISMATCH: {str(e)[:200]}"
            print(json.dumps(report))
            return 1
    print(json.dumps(report))
    if args.head and len(df):
        print(df.head(args.head).to_string())
    return 0


if __name__ == "__main__":
    sys.exit(main())
