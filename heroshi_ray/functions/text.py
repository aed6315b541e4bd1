"""Text-analysis primitives for large-scale training-data pipelines:
the stopword set and whitespace token counting.

Functions are batch-vectorized (operate on lists, return numpy arrays)
so they drop straight into ``map_batches`` bodies; the stopword set
lives at module level.
"""

from __future__ import annotations

import numpy as np

# ---------------------------------------------------------------- tokens
STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it this that for on with as by".split()
)


def token_count_ws(texts: list[str]) -> np.ndarray:
    """Whitespace token count (matches SQL string_split semantics)."""
    return np.array([len(t.split()) if t and t.strip() else 0 for t in texts], np.int64)
