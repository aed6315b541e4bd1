"""Deterministic synthetic fixtures (FIXTURES.md §1–5).

No external data, no network (SURVEY.md §7.6): the "web" the engine
crawls is a deterministic table of pages whose bodies are generated
HTML / PNG payloads. ``numpy.random.default_rng(seed)`` everywhere;
same seed -> byte-identical tables, which is what makes the golden
oracle-vs-engine comparison and the resume test meaningful.

Tables produced:
- ``corpus``  — image+caption pairs in the BASELINE.json:15 schema (T1).
- ``pages``   — the synthetic web graph the Fetcher resolves against:
  Zipf-skewed host sizes (host0 is hot — the skew test), HTML bodies
  with mixed-style outlinks (relative, absolute, protocol-relative,
  canonicalization noise) and <img src alt> refs whose alt text is the
  corpus caption; image URLs serve the corpus bytes.
- ``robots``  — per-host robots.txt bodies (allow-all, Disallow,
  Crawl-delay, longest-match pairs, 404).
- ``seeds``   — seed URLs with canonicalization edge cases + duplicates.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from .functions.image import encode_image, phash64
from .schemas import CORPUS

_VOCAB = (
    "sun moon river stone cloud forest ember glass tide harbor lantern meadow "
    "crimson quiet copper drift fable grove hollow iris juniper kestrel larkspur "
    "marble nectar onyx prairie quartz russet saffron thistle umber velvet willow "
    "yarrow zephyr anchor birch cinder dune echo fjord gale heath isle jetty knoll "
    "loam mesa north opal pine quay reef slate trellis vale wharf xenon yield zinc"
).split()


def _caption(rng: np.random.Generator) -> str:
    n = int(rng.integers(5, 21))
    return " ".join(_VOCAB[i] for i in rng.integers(0, len(_VOCAB), size=n))


def _pixels(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    f1, f2, p1, p2 = rng.uniform(1.5, 4.0, 2).tolist() + rng.uniform(0, 6.28, 2).tolist()
    base = 128 + 70 * np.sin(xx / w * f1 + p1) + 55 * np.cos(yy / h * f2 + p2)
    px = np.stack(
        [base + rng.uniform(-8, 8), 0.85 * base + 20, 255 - 0.6 * base], axis=2
    )
    return np.clip(px, 0, 255).astype(np.uint8)


def make_corpus(n: int, seed: int = 42, jpeg_frac: float = 0.0) -> pa.Table:
    """``jpeg_frac`` > 0 converts the top fraction of the format draw to
    real baseline JPEG (functions/jpeg.py). The default 0.0 keeps the
    r1-r3 corpora byte-identical (golden tests pin them); the rng draw
    sequence is unchanged either way."""
    rng = np.random.default_rng(seed)
    sizes = np.array([32, 48, 64], dtype=np.int32)
    ids, blobs, ws, hs, fmts, caps, phs = [], [], [], [], [], [], []
    for i in range(n):
        h = int(sizes[rng.integers(0, 3)])
        w = int(sizes[rng.integers(0, 3)])
        px = _pixels(rng, h, w)
        r = rng.random()
        fmt = "png" if r < 0.7 else "qpng"
        if jpeg_frac and r >= 1.0 - jpeg_frac:
            fmt = "jpeg"
        blob = encode_image(px, fmt)
        ids.append(f"img{i:08d}")
        blobs.append(blob)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(_caption(rng))
        # phash of the *decoded* payload (what a verifier recomputes)
        from .functions.image import decode_image

        phs.append(phash64(decode_image(blob, fmt)))
    return pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "phash": pa.array(phs, pa.int64()),
        },
        schema=CORPUS,
    )


def make_corpus_pair(
    n: int, seed: int = 321, jpeg_frac: float = 0.25, gif_frac: float = 0.0
) -> tuple[pa.Table, pa.Table]:
    """(lossy corpus, lossless reference twin) over the SAME source
    pixels: the corpus encodes each image in its drawn fmt (png / qpng /
    real baseline jpeg), the reference stores the untouched source
    pixels as lossless PNG. Feeding both to pipelines/verify.py
    exercises the BASELINE.json:15 per-row invariant (PSNR >= 40 dB for
    lossy fmts) against ground truth — the jpeg decoder's acceptance
    gate."""
    from .functions.image import decode_image, png_encode

    rng = np.random.default_rng(seed)
    sizes = np.array([32, 48, 64], dtype=np.int32)
    ids, blobs, ws, hs, fmts, caps, phs, refs = [], [], [], [], [], [], [], []
    for i in range(n):
        h = int(sizes[rng.integers(0, 3)])
        w = int(sizes[rng.integers(0, 3)])
        px = _pixels(rng, h, w)
        r = rng.random()
        fmt = "png" if r < 0.7 else "qpng"
        if jpeg_frac and r >= 1.0 - jpeg_frac:
            fmt = "jpeg"
        if gif_frac and 1.0 - jpeg_frac - gif_frac <= r < 1.0 - jpeg_frac:
            fmt = "gif"
        blob = encode_image(px, fmt)
        ids.append(f"img{i:08d}")
        blobs.append(blob)
        ws.append(w)
        hs.append(h)
        fmts.append(fmt)
        caps.append(_caption(rng))
        phs.append(phash64(decode_image(blob, fmt)))
        refs.append(png_encode(px))
    corpus = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(blobs, pa.binary()),
            "w": pa.array(ws, pa.int32()),
            "h": pa.array(hs, pa.int32()),
            "fmt": pa.array(fmts, pa.string()),
            "caption": pa.array(caps, pa.string()),
            "phash": pa.array(phs, pa.int64()),
        },
        schema=CORPUS,
    )
    ref = pa.table(
        {
            "image_id": pa.array(ids, pa.string()),
            "bytes": pa.array(refs, pa.binary()),
            "fmt": pa.array(["png"] * n, pa.string()),
            "caption": pa.array(caps, pa.string()),
        }
    )
    return corpus, ref


def _href_variants(rng: np.random.Generator, host: str, path: str) -> str:
    """Render a link to http://{host}{path} in one of several styles, some
    with canonicalization noise that must collapse to the same URL."""
    r = rng.random()
    if r < 0.35:
        return path  # absolute-path relative
    if r < 0.55:
        return f"http://{host}{path}"
    if r < 0.65:
        return f"//{host}{path}"
    if r < 0.75:
        return f"HTTP://{host.upper()}:80{path}"
    if r < 0.85:
        return f"http://{host}/x/..{path}"
    if r < 0.95:
        return f"http://{host}{path}#frag{int(rng.integers(9))}"
    return f"http://{host}/.{path}"


def make_web(
    n_hosts: int = 8,
    n_pages: int = 300,
    n_images: int = 60,
    seed: int = 42,
    corpus: pa.Table | None = None,
):
    """Build (pages_table, corpus_table). ``n_pages`` counts HTML pages;
    image pages are added on top (one per corpus row, round-robin hosts)."""
    rng = np.random.default_rng(seed)
    if corpus is None:
        corpus = make_corpus(n_images, seed=seed + 1)
    n_images = corpus.num_rows
    hosts = [f"host{k}.example" for k in range(n_hosts)]

    # Zipf(a=1.2) page counts -> host0 hot
    weights = 1.0 / np.arange(1, n_hosts + 1) ** 1.2
    weights /= weights.sum()
    counts = np.maximum(1, (weights * n_pages).astype(int))
    page_paths: dict[str, list[str]] = {}
    for k, host in enumerate(hosts):
        paths = [f"/p/{j}" for j in range(counts[k])]
        n_priv = max(1, counts[k] // 10)
        paths += [f"/p/private/{j}" for j in range(n_priv)]
        page_paths[host] = paths

    # 3xx alias pages: /r/{j} redirects to a real page (Location relative
    # or absolute, same- or cross-host); host0 additionally carries a
    # 2-hop chain (/r/chain -> /r/0 -> page) and a redirect loop pair
    alias_paths: dict[str, list[str]] = {h: [] for h in hosts}
    redirect_of: dict[str, tuple[int, str]] = {}  # url -> (status, location)
    for k, host in enumerate(hosts):
        n_alias = max(1, int(counts[k]) // 8)
        for j in range(n_alias):
            tgt_host = host if rng.random() < 0.7 else hosts[int(rng.integers(0, n_hosts))]
            tgt = page_paths[tgt_host][int(rng.integers(0, len(page_paths[tgt_host])))]
            loc = (
                tgt
                if (tgt_host == host and rng.random() < 0.5)
                else f"http://{tgt_host}{tgt}"
            )
            st = int(rng.choice([301, 302, 307], p=[0.6, 0.3, 0.1]))
            path = f"/r/{j}"
            alias_paths[host].append(path)
            redirect_of[f"http://{host}{path}"] = (st, loc)
    h0 = hosts[0]
    redirect_of[f"http://{h0}/r/chain"] = (301, "/r/0")  # 2-hop chain via /r/0
    redirect_of[f"http://{h0}/r/loopa"] = (302, "/r/loopb")
    redirect_of[f"http://{h0}/r/loopb"] = (302, "/r/loopa")
    alias_paths[h0] += ["/r/chain", "/r/loopa"]

    # assign images to hosts round-robin; image url path /img/{image_id}.{fmt}
    img_urls: list[tuple[str, int]] = []  # (url, corpus_row_idx)
    img_host_of: dict[str, list[tuple[str, int]]] = {h: [] for h in hosts}
    ids = corpus.column("image_id").to_pylist()
    fmts = corpus.column("fmt").to_pylist()
    for i in range(n_images):
        host = hosts[i % n_hosts]
        path = f"/img/{ids[i]}.{fmts[i]}"
        img_urls.append((f"http://{host}{path}", i))
        img_host_of[host].append((path, i))

    captions = corpus.column("caption").to_pylist()
    blobs = corpus.column("bytes").to_pylist()

    urls, hostcol, status, ctype, body, outlinks, fetch_ms, location = (
        [], [], [], [], [], [], [], [],
    )

    all_pages = [(h, p) for h in hosts for p in page_paths[h]]
    for host, path in all_pages:
        url = f"http://{host}{path}"
        st = int(rng.choice([200, 404, 500], p=[0.92, 0.05, 0.03]))
        n_out = int(rng.integers(2, 7))
        links_html = []
        truth = []
        for _ in range(n_out):
            if rng.random() < 0.8:
                tgt_host = host
            else:
                tgt_host = hosts[int(rng.integers(0, n_hosts))]
            # ~12% of links point at a 3xx alias — the crawl must chase it
            if alias_paths[tgt_host] and rng.random() < 0.12:
                tgt_path = alias_paths[tgt_host][
                    int(rng.integers(0, len(alias_paths[tgt_host])))
                ]
            else:
                tgt_path = page_paths[tgt_host][
                    int(rng.integers(0, len(page_paths[tgt_host])))
                ]
            href = _href_variants(rng, tgt_host, tgt_path)
            links_html.append(f'<a href="{href}">go</a>')
            truth.append(f"http://{tgt_host}{tgt_path}")
        img_html = ""
        if img_host_of[host] and rng.random() < 0.7:
            ipath, irow = img_host_of[host][int(rng.integers(0, len(img_host_of[host])))]
            img_html = f'<img src="{ipath}" alt="{captions[irow]}">'
            truth.append(f"http://{host}{ipath}")
        html = (
            f"<html><head><title>{host}{path}</title></head><body>"
            f"<p>page {path} of {host}</p>\n" + "\n".join(links_html) + "\n" + img_html +
            "</body></html>"
        )
        urls.append(url)
        hostcol.append(host)
        status.append(st)
        ctype.append("text/html")
        body.append(html.encode() if st == 200 else b"")
        outlinks.append(truth if st == 200 else [])
        location.append("")
        # host0 slower (straggler test)
        mu = 3.5 if host == hosts[0] else 2.5
        fetch_ms.append(float(np.exp(rng.normal(mu, 0.4))))

    for (url, irow) in img_urls:
        urls.append(url)
        hostcol.append(url.split("/")[2])
        status.append(200)
        ctype.append("image/png")
        body.append(blobs[irow])
        outlinks.append([])
        location.append("")
        fetch_ms.append(float(np.exp(rng.normal(2.0, 0.3))))

    for alias_url, (st, loc) in sorted(redirect_of.items()):
        urls.append(alias_url)
        hostcol.append(alias_url.split("/")[2])
        status.append(st)
        ctype.append("")
        body.append(b"")
        outlinks.append([])
        location.append(loc)
        fetch_ms.append(float(np.exp(rng.normal(1.0, 0.2))))

    pages = pa.table(
        {
            "url": pa.array(urls, pa.string()),
            "host": pa.array(hostcol, pa.string()),
            "status_code": pa.array(status, pa.int32()),
            "content_type": pa.array(ctype, pa.string()),
            "body": pa.array(body, pa.binary()),
            "out_links": pa.array(outlinks, pa.list_(pa.string())),
            "fetch_ms": pa.array(fetch_ms, pa.float64()),
            "location": pa.array(location, pa.string()),
        }
    )
    return pages, corpus


def make_robots(hosts: list[str], seed: int = 42) -> pa.Table:
    rng = np.random.default_rng(seed)
    bodies, statuses = [], []
    for i, h in enumerate(hosts):
        r = rng.random()
        if r < 0.2:
            bodies.append("")
            statuses.append(404)  # no robots -> allow all
        elif r < 0.5:
            bodies.append("User-agent: *\nDisallow: /p/private/\nCrawl-delay: 2\n")
            statuses.append(200)
        elif r < 0.7:
            bodies.append(
                "User-agent: *\nDisallow: /p/private/\nAllow: /p/private/0\n"
                "Crawl-delay: 1\n"
            )
            statuses.append(200)
        else:
            bodies.append("User-agent: *\nDisallow:\n")
            statuses.append(200)
    return pa.table(
        {
            "host": pa.array(hosts, pa.string()),
            "robots_body": pa.array(bodies, pa.string()),
            "status": pa.array(statuses, pa.int32()),
        }
    )


def make_seeds(pages: pa.Table, k: int = 12, seed: int = 42) -> list[str]:
    """Seed URLs with canonicalization noise + duplicates (FIXTURES.md §2)."""
    rng = np.random.default_rng(seed)
    urls = [u for u, s in zip(pages.column("url").to_pylist(),
                              pages.column("status_code").to_pylist()) if s == 200]
    urls = [u for u in urls if "/img/" not in u]
    picks = [urls[int(rng.integers(0, len(urls)))] for _ in range(k)]
    out = []
    for u in picks:
        host = u.split("/")[2]
        path = u[len(f"http://{host}"):]
        style = rng.random()
        if style < 0.25:
            out.append(u)
        elif style < 0.45:
            out.append(f"HTTP://{host.upper()}:80{path}")
        elif style < 0.6:
            out.append(f"http://{host}/a/..{path}#top")
        elif style < 0.75:
            out.append(f"http://{host}/.{path}")
        else:
            out.append(u)
            out.append(u)  # literal duplicate
    out.append("not a url at all")
    out.append("ftp://host0.example/skip-me")
    # a 3xx alias seed: the very first fetch exercises the redirect chase
    host0 = urls[0].split("/")[2] if urls else "host0.example"
    out.append(f"http://{host0}/r/0")
    return out


def write_fixture_dir(
    out_dir: str,
    n_hosts: int = 8,
    n_pages: int = 300,
    n_images: int = 60,
    n_seeds: int = 12,
    seed: int = 42,
) -> dict:
    """Write pages/corpus/robots parquet + seeds.txt; returns paths dict."""
    os.makedirs(out_dir, exist_ok=True)
    pages, corpus = make_web(n_hosts, n_pages, n_images, seed=seed)
    hosts = sorted(set(pages.column("host").to_pylist()))
    robots = make_robots(hosts, seed=seed + 2)
    seeds = make_seeds(pages, k=n_seeds, seed=seed + 3)
    paths = {
        "pages": os.path.join(out_dir, "pages.parquet"),
        "corpus": os.path.join(out_dir, "corpus.parquet"),
        "robots": os.path.join(out_dir, "robots.parquet"),
        "seeds": os.path.join(out_dir, "seeds.txt"),
    }
    pq.write_table(pages, paths["pages"])
    pq.write_table(corpus, paths["corpus"])
    pq.write_table(robots, paths["robots"])
    with open(paths["seeds"], "w") as f:
        f.write("\n".join(seeds) + "\n")
    return paths
