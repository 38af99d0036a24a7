"""Semantic relatedness between labels.

A weighted blend of word-embedding cosine and normalized spatial co-location:

    srel(a, b) = delta * cosine(a, b) + (1 - delta) * coloc(a, b)

Both components live in [0, 1] (negative cosines clamp to 0, co-location
normalizes by the table's maximum pair count), so srel does too. Abstract
labels never occur in co-location data; their pairs simply get a zero
co-location term at full `1 - delta` weight lost, not renormalized.

Two paths compute it. `Relatedness.srel` scores one pair with one dot
product; it is the reference that tests check tables against.
`Relatedness.table` scores every pair of a rows x cols block with one
matrix product; the program reads srel only from such tables. The two
agree to the last bit or two: the matrix product sums each dot product in
an order of its own, and every other step is the same float arithmetic.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .knowledge import ColocTable, EmbeddingTable

# Labels whose vector and norm a `Relatedness` keeps. Worst case, each entry
# holds a multiword label's mean vector (8 * dim bytes) and about 300 bytes
# of key, tuple, norm and cache links: some 22 MiB for 300-d vectors.
LABEL_CACHE = 8192


class SrelTable:
    """srel over a fixed rows x cols block, looked up by label.

    Called as `table(a, b)` with `a` a row label and `b` a column label, so
    it serves wherever a scalar srel function does on those pairs;
    `block(rows, cols)` reads a whole sub-block as an array. Any other label
    is a KeyError. A pair of labels that are both rows and both columns has
    one value, whichever way it is asked for.
    """

    __slots__ = ("_rows", "_cols", "_values")

    def __init__(self, rows: dict[str, int], cols: dict[str, int], values: np.ndarray):
        self._rows = rows
        self._cols = cols
        self._values = values

    def __call__(self, a: str, b: str) -> float:
        return float(self._values[self._rows[a], self._cols[b]])

    def block(self, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
        """srel of every pair of `rows` x `cols`, as a new array."""
        return self._values[np.ix_([self._rows[a] for a in rows],
                                   [self._cols[b] for b in cols])]


class Relatedness:
    """srel over one store; one per run, shared by every image refined.

    Each label's mean embedding vector and its norm are worked out on first
    use and kept for the `LABEL_CACHE` most recently used labels. A label
    with no in-vocabulary token or a zero vector is kept as None and has
    cosine 0 with everything. Entries are pure functions of the immutable
    tables, so an image sees the same values whichever images were refined
    before it, and whatever the cache evicted.
    """

    def __init__(self, emb: EmbeddingTable, coloc_table: ColocTable, delta: float = 0.5):
        if not 0.0 <= delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {delta!r}")
        self.delta = delta
        self.emb = emb
        self.coloc_table = coloc_table
        # over the table, not a bound method: a cache holding `self` would
        # make a cycle that keeps the whole store alive until the cyclic GC
        self._vector = lru_cache(maxsize=LABEL_CACHE)(partial(_entry, emb))

    def srel(self, a: str, b: str) -> float:
        cos = 0.0
        va, vb = self._vector(a), self._vector(b)
        if va is not None and vb is not None:
            cos = min(1.0, max(0.0, float(np.dot(va[0], vb[0])) / (va[1] * vb[1])))
        table = self.coloc_table
        co = table.get(a, b) / table.max_count if table.max_count else 0.0
        # guard against accumulation slop at the boundaries
        return min(1.0, max(0.0, self.delta * cos + (1.0 - self.delta) * co))

    def _matrix(self, labels: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
        """The labels' vectors as rows and their norms; a label with no
        vector gets a zero row and norm 1, so its cosines come out 0."""
        zero = np.zeros(self.emb.dim)
        entries = [self._vector(label) or (zero, 1.0) for label in labels]
        mat = np.array([vec for vec, _ in entries]).reshape(len(labels), self.emb.dim)
        return mat, np.array([norm for _, norm in entries])

    def table(self, rows: Sequence[str], cols: Sequence[str]) -> SrelTable:
        """srel for every pair of `rows` x `cols`, as `srel` computes it but
        with all the dot products in one matrix product.

        Labels given twice keep their first place. The cosine, co-location,
        blend and clamps are elementwise float operations in `srel`'s order,
        so a pair whose cosine is 0 for want of a vector gets `srel`'s value
        bit for bit. A pair of labels found in both `rows` and `cols` takes
        one value, the one computed with the earlier row first.
        """
        row_at = {label: i for i, label in enumerate(dict.fromkeys(rows))}
        col_at = {label: j for j, label in enumerate(dict.fromkeys(cols))}
        rmat, rnorms = self._matrix(list(row_at))
        cmat, cnorms = self._matrix(list(col_at))
        cos = (rmat @ cmat.T) / np.outer(rnorms, cnorms)
        cos = np.minimum(1.0, np.maximum(0.0, cos))

        co = np.zeros_like(cos)
        coloc, max_count = self.coloc_table, self.coloc_table.max_count
        if max_count:
            for i, a in enumerate(row_at):
                for b, n in coloc.neighbors(a).items():
                    j = col_at.get(b)
                    if j is not None:
                        co[i, j] = n / max_count
        values = np.minimum(1.0, np.maximum(0.0, self.delta * cos + (1.0 - self.delta) * co))

        # the matrix product need not sum (a, b) and (b, a) alike; copy each
        # such pair's value from the earlier row to the later one
        shared = [(i, col_at[label]) for label, i in row_at.items() if label in col_at]
        if len(shared) > 1:
            r, c = np.array(shared).T
            lower, upper = np.tril_indices(len(shared), -1)
            values[r[lower], c[upper]] = values[r[upper], c[lower]]
        return SrelTable(row_at, col_at, values)


def _entry(emb: EmbeddingTable, label: str) -> tuple[np.ndarray, float] | None:
    """A label's mean vector and its norm; None for no vector or a zero one."""
    vec = emb.label_vector(label)
    if vec is not None:
        norm = float(np.linalg.norm(vec))
        if norm != 0.0:
            return vec, norm
    return None


def image_coherence(top_labels: list[str], rel: Relatedness) -> float:
    """Mean pairwise srel over a set of per-box top labels.

    Used to select incoherent test images (the refinement engine's natural
    prey); returns 1.0 when fewer than two labels exist because a single
    detection cannot disagree with anything.
    """
    if len(top_labels) < 2:
        return 1.0
    srel = rel.table(top_labels, top_labels)
    total = 0.0
    pairs = 0
    for i in range(len(top_labels)):
        for j in range(i + 1, len(top_labels)):
            total += srel(top_labels[i], top_labels[j])
            pairs += 1
    return total / pairs
