"""Background-knowledge tables: parsed once, validated, then immutable.

Files are read through `textio`, which sets the comment rule and the
LoadError shape shared by every input. Loaders are pure functions of the file contents,
so loading the same file twice yields equal tables. Each loader returns the
map the store keeps: `load_hypernyms` child -> sorted parents, pruned with
the popularity map of `load_allowlist`, and `load_assertions` subject ->
object -> highest score.

`load_embeddings` parses the vector text of `EMBEDDING_BLOCK` lines per
`np.loadtxt` call and then checks the rows one by one, in file order. A
block that numpy does not parse whole is read again one row at a time with
`float`'s rules, so every row loads, or fails with the same message and
line, as it would if each row were parsed on its own.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from .errors import LoadError
from .labels import CanonLabels, PairTable, canon_label
from .textio import data_lines, tsv_fields

log = logging.getLogger(__name__)

HYPERNYM_MAX_DEPTH = 3
MAX_PARENTS_PER_CHILD = 3
PERMITTED_RELATIONS = ("usedFor", "hasProperty")

# Embedding lines parsed per `np.loadtxt` call. Larger blocks parse no faster
# and keep more text and floats alive at once.
EMBEDDING_BLOCK = 64


# --- embeddings ---------------------------------------------------------------

@dataclass
class EmbeddingTable:
    """Dense word vectors keyed by token; every vector has length `dim`.

    `norms` holds each token's Euclidean norm. `load_embeddings` fills it
    from the squared norm it checks; given None, it is worked out here with
    `np.linalg.norm`, which gives the same bits.
    """

    dim: int
    vectors: dict[str, np.ndarray]
    norms: dict[str, float] | None = None

    def __post_init__(self):
        if self.norms is None:
            self.norms = {t: float(np.linalg.norm(v)) for t, v in self.vectors.items()}


@np.errstate(over="ignore")  # an overflowing squared norm is a LoadError, not a warning
def load_embeddings(path) -> EmbeddingTable:
    """Parse `token v1 v2 ... vd` lines (whitespace separated).

    All rows must agree on the dimension; non-numeric or non-finite
    components, and a vector whose squared norm overflows, are load errors.
    Duplicate tokens resolve last-wins, and their count is logged as one warning.
    """
    vectors: dict[str, np.ndarray] = {}
    norms: dict[str, float] = {}
    dim = 0
    duplicates = 0
    for lineno, token, vec in _embedding_rows(path):
        token = canon_label(token)
        squared = vec @ vec
        # a non-finite component makes the squared norm non-finite too
        if not math.isfinite(squared):
            what = "squared vector norm overflows" if np.isfinite(vec).all() \
                else "non-finite vector component"
            raise LoadError(path, what, lineno)
        if dim == 0 and not vectors:
            dim = vec.size
        elif vec.size != dim:
            raise LoadError(
                path, f"dimension mismatch: expected {dim}, got {vec.size}", lineno
            )
        if token in vectors:
            duplicates += 1
        vec.setflags(write=False)
        vectors[token] = vec
        # np.linalg.norm is the same correctly rounded root of the same dot product
        norms[token] = math.sqrt(squared)
    if duplicates:
        log.warning("%s: %d duplicate embedding tokens (last wins)", path, duplicates)
    return EmbeddingTable(dim=dim, vectors=vectors, norms=norms)


def _embedding_rows(path) -> Iterator[tuple[int, str, np.ndarray]]:
    """(line number, token, vector) for each data line, in file order.

    `EMBEDDING_BLOCK` lines at a time, the vector text goes through one
    `np.loadtxt` call. A block it does not parse whole is read again one row
    at a time with `_row_vector`: that reports a token-only row or a
    non-numeric component, and loads what `float` reads but numpy does not
    (`1_000`, non-ASCII digits). A LoadError from `data_lines` (a line that
    is not UTF-8) comes after the rows read before it, so the first bad row
    of the file is the one reported.
    """
    lines = data_lines(path)
    while True:
        block: list[tuple[int, str, str]] = []
        try:
            for lineno, line in islice(lines, EMBEDDING_BLOCK):
                token, *rest = line.split(None, 1)
                block.append((lineno, token, rest[0] if rest else ""))
        except LoadError:
            yield from _block_vectors(path, block)
            raise
        yield from _block_vectors(path, block)
        if len(block) < EMBEDDING_BLOCK:
            return


def _block_vectors(
    path, block: list[tuple[int, str, str]]
) -> Iterator[tuple[int, str, np.ndarray]]:
    """`_embedding_rows` of one block of (line number, token, vector text)."""
    rests = [rest for _, _, rest in block]
    parsed = None
    # numpy would skip a token-only row, and warn of a block of none at all
    if rests and all(rests):
        try:
            parsed = np.loadtxt(rests, dtype=float, comments=None, ndmin=2)
        except ValueError:
            pass
    if parsed is None:
        for lineno, token, rest in block:
            yield lineno, token, _row_vector(path, lineno, rest)
        return
    for (lineno, token, _), vec in zip(block, parsed):
        yield lineno, token, vec.copy()


def _row_vector(path, lineno: int, rest: str) -> np.ndarray:
    """The vector of one line from the text after its token."""
    parts = rest.split()
    if not parts:
        raise LoadError(path, "expected `token v1 ... vd`", lineno)
    try:
        return np.array(parts, dtype=float)
    except ValueError as exc:
        raise LoadError(path, f"non-numeric vector component: {exc}", lineno) from exc


# --- frequency allowlist -------------------------------------------------------

def load_allowlist(path) -> dict[str, float]:
    """Parse `label<TAB>score` rows into label -> popularity; scores must be
    nonnegative reals, and a label that is absent scores 0."""
    entries: dict[str, float] = {}
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        label_s, score_s = tsv_fields(path, lineno, line, 2)
        try:
            label = canon[label_s]
            score = float(score_s)
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
        if not math.isfinite(score) or score < 0:
            raise LoadError(path, f"negative or non-finite score {score_s!r}", lineno)
        entries[label] = score
    return entries


# --- hypernyms -----------------------------------------------------------------

def load_hypernyms(
    path, allowlist: Mapping[str, float], threshold: float = 0.0
) -> dict[str, tuple[str, ...]]:
    """Parse `child<TAB>parent<TAB>depth` rows into child -> sorted parents.

    Rows with depth outside 1..3, self-loops, or parents scoring below the
    allowlist threshold are dropped with a warning. A child keeps at most the
    3 best-scoring parents (ties broken lexicographically by parent).
    Retention is deterministic under permutation of the input lines.
    """
    parents_of: dict[str, set[str]] = {}
    dropped = 0
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        child_s, parent_s, depth_s = tsv_fields(path, lineno, line, 3)
        try:
            child = canon[child_s]
            parent = canon[parent_s]
            depth = int(depth_s)
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
        if not 1 <= depth <= HYPERNYM_MAX_DEPTH:
            log.warning("%s:%d dropped: depth %d outside 1..%d",
                        path, lineno, depth, HYPERNYM_MAX_DEPTH)
            dropped += 1
            continue
        if child == parent:
            log.warning("%s:%d dropped: self-loop %r", path, lineno, child)
            dropped += 1
            continue
        if allowlist.get(parent, 0.0) < threshold:
            log.warning("%s:%d dropped: parent %r below allowlist threshold",
                        path, lineno, parent)
            dropped += 1
            continue
        parents_of.setdefault(child, set()).add(parent)
    if dropped:
        log.warning("%s: %d hypernym rows dropped", path, dropped)

    index: dict[str, tuple[str, ...]] = {}
    for child, parents in parents_of.items():
        if len(parents) > MAX_PARENTS_PER_CHILD:
            ranked = sorted(parents, key=lambda p: (-allowlist.get(p, 0.0), p))
            parents = ranked[:MAX_PARENTS_PER_CHILD]
        index[child] = tuple(sorted(parents))
    return index


# --- commonsense assertions ----------------------------------------------------

def load_assertions(path) -> dict[str, dict[str, float]]:
    """Parse `subject<TAB>relation<TAB>object<TAB>score` rows into
    subject -> object -> score.

    Only usedFor/hasProperty survive; rows with other relations or
    non-positive scores are dropped (counted in one summary warning). A
    subject/object pair given more than once keeps its highest score.
    Non-numeric scores are load errors.
    """
    by_subject: dict[str, dict[str, float]] = {}
    dropped_relation = 0
    dropped_score = 0
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        subj_s, rel_s, obj_s, score_s = tsv_fields(path, lineno, line, 4)
        try:
            score = float(score_s)
        except ValueError as exc:
            raise LoadError(path, f"non-numeric score {score_s!r}", lineno) from exc
        if not math.isfinite(score):
            raise LoadError(path, f"non-finite score {score_s!r}", lineno)
        if rel_s.strip() not in PERMITTED_RELATIONS:
            dropped_relation += 1
            continue
        if score <= 0:
            dropped_score += 1
            continue
        try:
            subject = canon[subj_s]
            obj = canon[obj_s]
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
        objects = by_subject.setdefault(subject, {})
        if score > objects.get(obj, 0.0):
            objects[obj] = score
    if dropped_relation or dropped_score:
        log.warning("%s: dropped %d rows with unsupported relations, %d with non-positive scores",
                    path, dropped_relation, dropped_score)
    return by_subject


# --- co-location counts ----------------------------------------------------------

def load_coloc(path) -> PairTable:
    """Parse `label1<TAB>label2<TAB>count`; repeated pairs (either order) sum."""
    table = PairTable()
    self_pairs = 0
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        a_s, b_s, count_s = tsv_fields(path, lineno, line, 3)
        try:
            a = canon[a_s]
            b = canon[b_s]
            count = int(count_s)
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
        if count < 0:
            raise LoadError(path, f"negative count {count}", lineno)
        if a == b:
            self_pairs += 1
            continue
        table.add(a, b, count)
    if self_pairs:
        log.warning("%s: ignored %d self-pair rows", path, self_pairs)
    return table


# --- assembled store --------------------------------------------------------------

@dataclass
class KnowledgeStore:
    """Everything the refinement pipeline reads; immutable after assembly."""

    embeddings: EmbeddingTable
    parents: Mapping[str, tuple[str, ...]]         # child -> sorted retained parents
    by_subject: Mapping[str, Mapping[str, float]]  # subject -> object -> highest score
    coloc: PairTable                               # co-location counts
    vsim: PairTable                                # mined visual similarity

    @classmethod
    def assemble(
        cls,
        embeddings: EmbeddingTable | None = None,
        parents: Mapping[str, tuple[str, ...]] | None = None,
        by_subject: Mapping[str, Mapping[str, float]] | None = None,
        coloc: PairTable | None = None,
        vsim: PairTable | None = None,
    ) -> "KnowledgeStore":
        """The store over the loaded maps, with an empty table for each one not given."""
        return cls(
            embeddings=embeddings or EmbeddingTable(dim=0, vectors={}),
            parents=parents or {},
            by_subject=by_subject or {},
            coloc=coloc or PairTable(),
            vsim=vsim or PairTable(),
        )
