"""Lance-format adapter (S1) — BASELINE.json:15 names the corpus "a
Lance table of image + caption pairs".

``pylance`` is not installed in this sandbox (SURVEY.md §7.6), so the
corpus store is format-pluggable: Lance when importable, parquet with
the identical schema otherwise. ``read_corpus_any`` / ``write_corpus_any``
are the adapter boundary only: no engine code calls them yet. The crawl
writes its corpus as parquet, and the verifier and curation read
parquet directly, so switching the corpus to Lance means routing those
paths through this adapter.
"""

from __future__ import annotations

import os

import pyarrow as pa

import ray.data

try:  # pragma: no cover - not installable offline
    import lance  # type: ignore

    HAVE_LANCE = True
except ImportError:
    lance = None
    HAVE_LANCE = False


def corpus_format(path: str) -> str:
    if path.endswith(".lance") or os.path.isdir(os.path.join(path, "_versions")):
        return "lance"
    return "parquet"


def read_corpus_any(path: str) -> "ray.data.Dataset":
    if corpus_format(path) == "lance":
        if not HAVE_LANCE:
            raise ImportError(
                "corpus is a Lance dataset but pylance is not installed; "
                "install pylance or convert to parquet"
            )
        # ray.data.read_lance exists in Ray >= 2.10 when lance is available
        return ray.data.read_lance(path)
    return ray.data.read_parquet(path)


def write_corpus_any(ds: "ray.data.Dataset", path: str, fmt: str | None = None) -> None:
    fmt = fmt or ("lance" if HAVE_LANCE and path.endswith(".lance") else "parquet")
    if fmt == "lance":  # pragma: no cover - pylance not installable offline
        if not HAVE_LANCE:
            raise ImportError("pylance not installed")
        import ray as _ray

        blocks = [_ray.get(r) for r in ds.to_arrow_refs()]
        tbl = pa.concat_tables(
            [b for b in blocks if b.num_rows], promote_options="none"
        )
        lance.write_dataset(tbl, path)
        return
    ds.write_parquet(path)
