"""The crawl's post-fetch stage: which fetched images become corpus rows,
and how often a worker process builds its fetch and extract stages."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from heroshi_ray.functions.gif import gif_encode
from heroshi_ray.functions.image import decode_image, png_encode, phash64
from heroshi_ray.functions.jpeg import jpeg_encode
from heroshi_ray.stages.extract import FusedExtractor, image_format
from heroshi_ray.stages.fetch import _results_table


def _pixels(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    # 4x4 blocks of flat colour: few palette entries, so GIF is exact
    return np.repeat(np.repeat(rng.integers(0, 256, (4, 6, 3), np.uint8), 4, 0), 4, 1)


def _frontier(n: int) -> pa.Table:
    """The frontier columns a fetcher passes through, for ``n`` rows of
    one host."""
    return pa.table(
        {
            "surt": pa.array([f"s{i}" for i in range(n)], pa.string()),
            "host": pa.array(["h.example"] * n, pa.string()),
            "depth": pa.array([1] * n, pa.int32()),
            "retries": pa.array([0] * n, pa.int32()),
            "priority": pa.array([1.0] * n, pa.float64()),
        }
    )


def _fetched(pages: list[tuple[str, str, bytes]]) -> pa.Table:
    """(url, content type, body) -> FETCH rows as the fetcher returns them."""
    results = [(200, ct, body, 1.0, "", url, []) for url, ct, body in pages]
    return _results_table(
        _frontier(len(pages)), [u for u, _, _ in pages], results, 0
    )


def test_fused_extractor_keeps_png_jpeg_and_gif():
    """One PNG, one JPEG and one GIF fetched: three corpus rows, each
    decoded with its own codec."""
    px = [_pixels(i) for i in range(3)]
    pages = [
        ("http://h.example/img/a.png", "image/png", png_encode(px[0])),
        ("http://h.example/img/b.jpg", "image/jpeg", jpeg_encode(px[1])),
        ("http://h.example/img/c.gif", "image/gif", gif_encode(px[2])),
    ]
    out = FusedExtractor()(_fetched(pages))
    rows = out.filter(pc.is_valid(out.column("image_id")))
    assert rows.column("image_id").to_pylist() == ["a", "b", "c"]
    assert rows.column("fmt").to_pylist() == ["png", "jpeg", "gif"]
    for (_, _, body), fmt, w, h, ph in zip(
        pages, *(rows.column(c).to_pylist() for c in ("fmt", "w", "h", "phash"))
    ):
        dec = decode_image(body, fmt)
        assert (h, w) == dec.shape[:2] == (16, 24)
        assert ph == phash64(dec)


def test_image_format_by_extension_then_magic():
    png, jpg, gif = png_encode(_pixels(0)), jpeg_encode(_pixels(1)), gif_encode(_pixels(2))
    assert image_format("http://h/i/a.png", png) == ("a", "png")
    # qpng is served as image/png with PNG bytes: only the extension tells
    assert image_format("http://h/i/a.qpng", png) == ("a", "qpng")
    assert image_format("http://h/i/a.jpeg", jpg) == ("a", "jpeg")
    assert image_format("http://h/i/a.jpg", jpg) == ("a", "jpeg")
    assert image_format("http://h/i/a.gif", gif) == ("a", "gif")
    # no extension: the magic bytes decide
    assert image_format("http://h/i/p", png) == ("p", "png")
    assert image_format("http://h/i/j", jpg) == ("j", "jpeg")
    assert image_format("http://h/i/g", gif) == ("g", "gif")
    assert image_format("http://h/i/x", b"RIFF....WEBP") is None
    # an extension the crawl does not decode is not sniffed
    assert image_format("http://h/i/a.webp", png) is None


def test_fetch_stages_built_once_per_worker_process(ray_session, tmp_path):
    """Six fetch rounds: no worker process constructs its fetcher twice
    (the stage cache survives rounds)."""
    import os

    import ray

    from heroshi_ray.stages.fetch import SyntheticFetcher, fetch_dataset

    inits = str(tmp_path / "inits")

    class CountingFetcher(SyntheticFetcher):
        def __init__(self, log_path, **kwargs):
            super().__init__(**kwargs)
            with open(log_path, "a") as f:
                f.write(f"{os.getpid()}\n")

    urls = [f"http://h.example/p{i}" for i in range(3)]
    pages = ray.put(
        pa.table(
            {
                "url": pa.array(urls, pa.string()),
                "status_code": pa.array([200] * 3, pa.int32()),
                "content_type": pa.array(["text/html"] * 3, pa.string()),
                "body": pa.array([b"<a href=\"/q\">q</a>"] * 3, pa.binary()),
                "fetch_ms": pa.array([1.0] * 3, pa.float64()),
            }
        )
    )
    sched = _frontier(3).append_column("url", pa.array(urls, pa.string()))
    for e in range(6):
        rnd = fetch_dataset(
            sched, None, now_us=e, batch_size=2, fetcher_cls=CountingFetcher,
            fetcher_kwargs={"log_path": inits, "pages_ref": pages},
        ).materialize()
        assert rnd.log.column("success").to_pylist() == [True] * 3
        assert rnd.n_links == 3
    with open(inits) as f:
        pids = f.read().split()
    assert len(pids) == len(set(pids)), pids
