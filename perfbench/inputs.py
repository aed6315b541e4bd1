"""Seeded inputs: the handout workloads' frontier and the crawl's synthetic
web. The same seed gives the same inputs, and the program under test
receives only these files."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq


@dataclass(frozen=True)
class Scale:
    # frontier: rows x url variants per row, written in blocks
    rows: int
    order_keys: int
    expand: int
    blocks: int
    catchup_epoch_budget: int
    # crawl fixture (fixtures.write_fixture_dir) and epochs
    hosts: int
    pages: int
    images: int
    seeds: int
    epochs: int


# "full": 360k frontier URLs in 16 blocks of 22.5k, and a 12k-page web;
# "small": the self-test's. At this frontier size the gate's per-block
# fixed cost matters: 32 blocks of 11k took 2.5 s per rep (8% spread
# between reps) where 16 blocks took 1.4 s (4%), on 4 CPUs.
SCALES = {
    "full": Scale(60_000, 15_000, 6, 16, 60_000, 128, 12_000, 128, 512, 3),
    "small": Scale(6_000, 1_500, 6, 4, 6_000, 16, 600, 16, 32, 3),
}


def write_frontier(out_dir: str, scale: Scale, seed: int) -> None:
    """The flagship's frontier shape (as ``synth_frontier_from_sf`` makes
    it from lineitem): per row an order, line, supplier and part drawn
    uniformly; hosts fold suppliers into one hot host and a 97-host tail;
    ``expand`` path variants per row; one of four spellings per row that
    canonicalize to the same URL (upper case and :80, a ``/x/..`` dot
    segment and a fragment, a ``/.`` segment). Repeated (order, line)
    pairs give duplicate URLs. ``scale.blocks`` parquet files, read back
    per rep like a crawl checkpoint.

    The URL-building code repeats ``synth_frontier_from_sf``'s on
    purpose: the benchmark's input must stay the same while the program
    under test changes, or a change to that function would move the
    figures of every workload without any layer getting faster."""
    import polars as pl

    rng = np.random.default_rng(seed)
    n = scale.rows
    d = pl.DataFrame(
        {
            "o": rng.integers(0, scale.order_keys, n),
            "s": rng.integers(0, 100, n),
            "l": rng.integers(1, 8, n),
            "p": rng.integers(0, 2000, n),
        }
    ).with_columns(
        pl.lit(list(range(scale.expand)), dtype=pl.List(pl.Int64)).alias("v")
    ).explode("v")
    hostid = pl.when(pl.col("s") % 7 == 0).then(0).otherwise(pl.col("s") % 97)
    h = pl.format("host{}.example", hostid)
    path = pl.format("/o/{}/l/{}/v/{}", pl.col("o"), pl.col("l"), pl.col("v"))
    style = pl.col("p") % 4
    url = (
        pl.when(style == 0).then(pl.format("http://{}{}", h, path))
        .when(style == 1).then(pl.format("HTTP://{}:80{}", h.str.to_uppercase(), path))
        .when(style == 2).then(pl.format("http://{}/x/..{}#frag", h, path))
        .otherwise(pl.format("http://{}/.{}", h, path))
    )
    urls = d.select(url.alias("url")).to_arrow().column("url").cast(pa.string())
    os.makedirs(out_dir, exist_ok=True)
    step = -(-len(urls) // scale.blocks)
    for b in range(scale.blocks):
        pq.write_table(
            pa.table({"url": urls.slice(b * step, step)}),
            os.path.join(out_dir, f"part-{b:03d}.parquet"),
        )


def write_web(out_dir: str, scale: Scale, seed: int) -> dict:
    from heroshi_ray.fixtures import write_fixture_dir

    return write_fixture_dir(
        out_dir, n_hosts=scale.hosts, n_pages=scale.pages,
        n_images=scale.images, n_seeds=scale.seeds, seed=seed,
    )
