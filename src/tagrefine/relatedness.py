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


class Relatedness:
    """srel over one store; safe to share across worker threads.

    Each label's mean embedding vector and its norm are worked out on first
    use and kept, so state grows with the number of distinct labels, never
    with the number of pairs. A label with no in-vocabulary token or a zero
    vector is kept as None and has cosine 0 with everything. Entries are
    pure functions of the immutable tables, so threads that fill the same
    entry concurrently store equal values.
    """

    def __init__(self, emb: EmbeddingTable, coloc_table: ColocTable, delta: float = 0.5):
        if not 0.0 <= delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {delta!r}")
        self.delta = delta
        self.emb = emb
        self.coloc_table = coloc_table
        self._vectors: dict[str, tuple[np.ndarray, float] | None] = {}

    def _vector(self, label: str) -> tuple[np.ndarray, float] | None:
        if label in self._vectors:
            return self._vectors[label]
        entry = None
        vec = self.emb.label_vector(label)
        if vec is not None:
            norm = float(np.linalg.norm(vec))
            if norm != 0.0:
                entry = (vec, norm)
        self._vectors[label] = entry
        return entry

    def srel(self, a: str, b: str) -> float:
        cos = 0.0
        va, vb = self._vector(a), self._vector(b)
        if va is not None and vb is not None:
            cos = min(1.0, max(0.0, float(np.dot(va[0], vb[0])) / (va[1] * vb[1])))
        table = self.coloc_table
        co = table.get(a, b) / table.max_count if table.max_count else 0.0
        # guard against accumulation slop at the boundaries
        return min(1.0, max(0.0, self.delta * cos + (1.0 - self.delta) * co))


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
