"""Label canonicalization, label-pair tables and the three label spaces.

Every label string entering the system goes through :func:`canon_label`
exactly once, at parse time; everything downstream compares labels by
plain string equality.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from types import MappingProxyType
from typing import Iterator, KeysView, Mapping


def canon_label(text: str) -> str:
    """Canonical form: lowercase, trimmed, internal whitespace collapsed.

    Raises ValueError if the result is empty.
    """
    out = " ".join(text.split()).lower()
    if not out:
        raise ValueError("empty label")
    return out


class CanonLabels(dict):
    """Raw text -> its :func:`canon_label`, worked out on first lookup.

    A loader keeps one for a load, so each distinct field is canonicalised
    once however often it repeats, and every text with the same canonical
    form maps to one string object. Text that fails is not kept: it raises
    the same ValueError wherever it occurs.
    """

    def __init__(self):
        super().__init__()
        self._shared: dict[str, str] = {}  # canonical label -> its one object

    def __missing__(self, text: str) -> str:
        label = canon_label(text)
        label = self[text] = self._shared.setdefault(label, label)
        return label


_NO_NEIGHBORS: Mapping[str, float] = MappingProxyType({})


class PairTable:
    """Symmetric nonnegative values of label pairs, kept as
    label -> {neighbour: value}, and their largest value; a missing pair is 0.

    Co-location counts and mined visual similarity are both such tables.
    """

    def __init__(self, values: Mapping[tuple[str, str], float] | None = None):
        self._neighbors: defaultdict[str, dict[str, float]] = defaultdict(dict)
        self.max_value = 0
        for (a, b), value in (values or {}).items():
            self.add(a, b, value)

    def add(self, a: str, b: str, value: float) -> None:
        """Add `value` to the pair's; a pair given twice, in either order,
        sums, and a self-pair is not kept."""
        if a == b:
            return
        row = self._neighbors[a]
        total = row[b] = row.get(b, 0) + value
        self._neighbors[b][a] = total
        if total > self.max_value:
            self.max_value = total

    def get(self, a: str, b: str) -> float:
        return self._neighbors.get(a, _NO_NEIGHBORS).get(b, 0)

    def neighbors(self, label: str) -> Mapping[str, float]:
        """Every label paired with `label`, and the pair's value."""
        return self._neighbors.get(label, _NO_NEIGHBORS)

    def labels(self) -> KeysView[str]:
        """Every label that has at least one stored pair."""
        return self._neighbors.keys()

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        """All stored pairs, (a, b, value) with a < b, sorted."""
        neighbors = self._neighbors
        for a in sorted(neighbors):
            row = neighbors[a]
            for b in sorted(b for b in row if b > a):
                yield a, b, row[b]

    def __len__(self) -> int:
        return sum(map(len, self._neighbors.values())) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, PairTable) and self._neighbors == other._neighbors


def tokens(label: str) -> list[str]:
    """Tokens of a (canonical) label; multiword labels split on spaces."""
    return label.split(" ")


class Space(enum.Enum):
    """Where a refined label lives: concrete, generalized, or abstract."""

    CL = "CL"
    XL = "XL"
    AL = "AL"


class Origin(enum.Enum):
    """How a visual candidate entered a box's candidate set."""

    ORIGINAL = "ORIGINAL"
    SIMILAR = "SIMILAR"
    HYPERNYM = "HYPERNYM"


# Candidate origin determines the output space of a chosen visual label.
SPACE_OF_ORIGIN = {
    Origin.ORIGINAL: Space.CL,
    Origin.SIMILAR: Space.CL,
    Origin.HYPERNYM: Space.XL,
}

GLOBAL_BOX = "GLOBAL"
