"""Semantic relatedness between labels.

A weighted blend of word-embedding cosine and normalized spatial co-location:

    srel(a, b) = delta * cosine(a, b) + (1 - delta) * coloc(a, b)

Both components live in [0, 1] (negative cosines clamp to 0, co-location
normalizes by the table's maximum pair count), so srel does too. Abstract
labels never occur in co-location data; their pairs simply get a zero
co-location term at full `1 - delta` weight lost, not renormalized.

Two paths compute it. `Relatedness.srel` scores one pair with one dot
product; it is the reference that tests check tables against.
`Relatedness.table` scores every pair of a labels x (labels + extra) block
with one matrix product; the program reads srel only from such tables. A
table keeps its cosines and co-location terms, so a hyperparameter search
blends each image's table again per trial instead of rebuilding it. The two
paths agree to the last bit or two: the matrix product sums each dot
product in an order of its own, and every other step is the same float
arithmetic.
"""

from __future__ import annotations

from functools import lru_cache, partial
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .knowledge import EmbeddingTable
from .labels import PairTable, tokens

# Labels whose vector and norm a `Relatedness` keeps. Worst case, each entry
# holds a multiword label's mean vector (8 * dim bytes) and about 300 bytes
# of key, tuple, norm and cache links: some 22 MiB for 300-d vectors.
LABEL_CACHE = 8192
# Row counts whose lower-triangle indices `Relatedness.table` keeps for its
# mirror copy, 8 * n * (n - 1) bytes each. A table's rows are an image's
# distinct visual labels, a few dozen.
MIRROR_CACHE = 128


class SrelTable:
    """srel over a fixed labels x (labels + extra) block, looked up by label.

    Called as `table(a, b)` with `a` one of the labels and `b` any label of
    the block, so it serves wherever a scalar srel function does on those
    pairs; `block(labels, extra)` reads a whole sub-block as an array, and
    `at` the pairs at given `indices`. Any other label is a LookupError. A
    pair of the labels has one value, whichever way round it is asked for.

    The cosine, co-location, blend and clamps are elementwise float
    operations in `Relatedness.srel`'s order, so a pair whose cosine is 0
    for want of a vector gets `srel`'s value bit for bit. The cosines and
    co-location terms are only read, so `blend` can make a table at any
    number of deltas over the same arrays.
    """

    __slots__ = ("_index", "_cos", "_co", "_delta", "_values")

    def __init__(self, index: dict[str, int], cos: np.ndarray, co: np.ndarray, delta: float):
        self._index = index
        self._cos = cos
        self._co = co
        self._delta = delta
        values = delta * cos
        values += (1.0 - delta) * co
        self._values = np.minimum(1.0, np.maximum(0.0, values, out=values), out=values)

    def __call__(self, a: str, b: str) -> float:
        return float(self._values[self._index[a], self._index[b]])

    def blend(self, delta: float) -> SrelTable:
        """The same block at `delta`: this table itself at its own delta."""
        if delta == self._delta:
            return self
        return SrelTable(self._index, self._cos, self._co, delta)

    def indices(self, labels: Sequence[str]) -> np.ndarray:
        """Each label's row or column in the table."""
        return np.array([self._index[a] for a in labels], dtype=np.intp)

    def at(self, positions: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """srel at (row, column) `positions` from `indices`, as a new array."""
        return self._values[positions]

    def block(self, labels: Sequence[str], extra: Sequence[str]) -> np.ndarray:
        """srel of every pair of `labels` x (`labels` + `extra`), as a new array."""
        at = self.indices(labels)
        return self._values[at[:, None], np.concatenate([at, self.indices(extra)])]


class Relatedness:
    """srel over one store; one per run, shared by every image refined.

    Its `delta` is the blend of `srel` and `table`; `candidates.generate`
    blends each image's table at that image's own `hp.delta`, which is the
    table itself when the two agree.

    Each label's mean embedding vector and its norm are worked out on first
    use and kept for the `LABEL_CACHE` most recently used labels; a label
    with one token in the vocabulary reads the norm the embedding table
    keeps. A label
    with no in-vocabulary token or a zero vector is kept as None and has
    cosine 0 with everything. Entries are pure functions of the immutable
    tables, so an image sees the same values whichever images were refined
    before it, and whatever the cache evicted.
    """

    def __init__(self, emb: EmbeddingTable, coloc_table: PairTable, delta: float = 0.5):
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
        co = table.get(a, b) / table.max_value if table.max_value else 0.0
        # guard against accumulation slop at the boundaries
        return min(1.0, max(0.0, self.delta * cos + (1.0 - self.delta) * co))

    def table(self, labels: Sequence[str], extra: Sequence[str] = ()) -> SrelTable:
        """srel at this `delta` for every pair of `labels` x (`labels` +
        `extra`), with all the dot products in one matrix product.

        Labels given twice keep their first place. The product is of this
        block's own rows: one product over a larger block would sum many of
        the same dot products in another order.
        """
        index = {label: i for i, label in enumerate(dict.fromkeys([*labels, *extra]))}
        n = len(dict.fromkeys(labels))
        # a label with no vector gets a zero row and norm 1, so its cosines come out 0
        zero = np.zeros(self.emb.dim)
        entries = [self._vector(label) or (zero, 1.0) for label in index]
        mat = np.array([vec for vec, _ in entries]).reshape(len(index), self.emb.dim)
        norms = np.array([norm for _, norm in entries])
        cos = mat[:n] @ mat.T
        cos /= np.outer(norms[:n], norms)
        cos = np.minimum(1.0, np.maximum(0.0, cos, out=cos), out=cos)
        # the matrix product need not sum (a, b) and (b, a) alike; both take
        # the value computed with the earlier label first. Co-location is
        # symmetric already, so every blend of the table is too.
        _mirror_upper(cos[:, :n])

        co = np.zeros_like(cos)
        coloc, max_value = self.coloc_table, self.coloc_table.max_value
        if max_value:
            for i, a in zip(range(n), index):
                for b, count in coloc.neighbors(a).items():
                    j = index.get(b)
                    if j is not None:
                        co[i, j] = count / max_value
        return SrelTable(index, cos, co, self.delta)


def _mirror_upper(square: np.ndarray) -> None:
    """Copy the strict upper triangle of `square` onto its lower one, in
    place: [j, i] takes [i, j] for every i < j."""
    lower = _lower_triangle(len(square))
    square[lower] = square.T[lower]


@lru_cache(maxsize=MIRROR_CACHE)
def _lower_triangle(n: int) -> tuple[np.ndarray, np.ndarray]:
    """`np.tril_indices(n, -1)`, read-only, for the tables' mirror copy."""
    lower = np.tril_indices(n, -1)
    for at in lower:
        at.setflags(write=False)
    return lower


def _entry(emb: EmbeddingTable, label: str) -> tuple[np.ndarray, float] | None:
    """A label's mean vector and its norm; None for no vector or a zero one.

    A label with one token in the vocabulary has that token's vector and
    the norm the table keeps for it; only a multiword mean is normed here."""
    in_vocab = [t for t in tokens(label) if t in emb.vectors]
    if not in_vocab:
        return None
    if len(in_vocab) == 1:
        vec, norm = emb.vectors[in_vocab[0]], emb.norms[in_vocab[0]]
    else:
        vec = np.mean([emb.vectors[t] for t in in_vocab], axis=0)
        norm = float(np.linalg.norm(vec))
    return (vec, norm) if norm != 0.0 else None


def image_coherence(top_labels: list[str], rel: Relatedness) -> float:
    """Mean pairwise srel over a set of per-box top labels.

    Used to select incoherent test images (the refinement engine's natural
    prey); returns 1.0 when fewer than two labels exist because a single
    detection cannot disagree with anything.
    """
    if len(top_labels) < 2:
        return 1.0
    srel = rel.table(top_labels)
    total = 0.0
    pairs = 0
    for i in range(len(top_labels)):
        for j in range(i + 1, len(top_labels)):
            total += srel(top_labels[i], top_labels[j])
            pairs += 1
    return total / pairs
