"""The crawl configurations the benchmark and bench.py pass must still
construct: a CrawlConfig field they name that no longer exists fails
here in a second, not only in perfbench's two-minute self-test."""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_crawl_configs_construct():
    sys.path.insert(0, ROOT)
    try:
        import bench
        from perfbench.inputs import SCALES
        from perfbench.workloads import crawl_config
    finally:
        sys.path.remove(ROOT)
    from heroshi_ray.pipelines.crawl import CrawlConfig

    for name, scale in SCALES.items():
        cfg = crawl_config(scale)
        assert isinstance(cfg, CrawlConfig), name
        assert cfg.max_epochs == scale.epochs
    assert CrawlConfig(max_epochs=3, **bench.CRAWL_KWARGS).fetch_batch_size == 512
