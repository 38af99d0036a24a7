"""Semantic relatedness between labels.

A weighted blend of word-embedding cosine and normalized spatial co-location:

    srel(a, b) = delta * cosine(a, b) + (1 - delta) * coloc(a, b)

Both components live in [0, 1] (negative cosines clamp to 0, co-location
normalizes by the table's maximum pair count), so srel does too. Abstract
labels never occur in co-location data; their pairs simply get a zero
co-location term at full `1 - delta` weight lost, not renormalized.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .knowledge import ColocTable, EmbeddingTable


def cosine(a: str, b: str, emb: EmbeddingTable) -> float:
    """Cosine similarity of two labels, clamped to [0, 1].

    Multiword labels embed as the mean of their in-vocabulary token vectors;
    labels with no in-vocabulary token (or zero vectors) score 0.
    """
    va = emb.label_vector(a)
    vb = emb.label_vector(b)
    if va is None or vb is None:
        return 0.0
    na = float(np.linalg.norm(va))
    nb = float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    raw = float(np.dot(va, vb)) / (na * nb)
    return min(1.0, max(0.0, raw))


def coloc(a: str, b: str, table: ColocTable) -> float:
    """Co-location count normalized by the table-wide maximum pair count."""
    if table.max_count == 0:
        return 0.0
    return table.get(a, b) / table.max_count


def srel(a: str, b: str, delta: float, emb: EmbeddingTable, table: ColocTable) -> float:
    value = delta * cosine(a, b, emb) + (1.0 - delta) * coloc(a, b, table)
    # guard against accumulation slop at the boundaries
    return min(1.0, max(0.0, value))


class Relatedness:
    """Memoizing srel over one store; safe to share across worker threads.

    Cache entries are pure functions of the immutable tables, so concurrent
    recomputation of the same key always stores the same value.
    """

    def __init__(self, emb: EmbeddingTable, coloc_table: ColocTable, delta: float = 0.5):
        if not 0.0 <= delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {delta!r}")
        self.delta = delta
        self.emb = emb
        self.coloc_table = coloc_table
        self._cache: dict[tuple[str, str], float] = {}

    def srel(self, a: str, b: str) -> float:
        if a == b:
            key = (a, b)
        else:
            key = (a, b) if a < b else (b, a)
        hit = self._cache.get(key)
        if hit is None:
            hit = srel(key[0], key[1], self.delta, self.emb, self.coloc_table)
            self._cache[key] = hit
        return hit


def image_coherence(top_labels: list[str], rel: Relatedness) -> float:
    """Mean pairwise srel over a set of per-box top labels.

    Used to select incoherent test images (the refinement engine's natural
    prey); returns 1.0 when fewer than two labels exist because a single
    detection cannot disagree with anything.
    """
    if len(top_labels) < 2:
        return 1.0
    total = 0.0
    pairs = 0
    for i in range(len(top_labels)):
        for j in range(i + 1, len(top_labels)):
            total += rel.srel(top_labels[i], top_labels[j])
            pairs += 1
    return total / pairs
