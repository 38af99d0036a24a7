"""Label canonicalization and the three label spaces.

Every label string entering the system goes through :func:`canon_label`
exactly once, at parse time; everything downstream compares labels by
plain string equality.
"""

from __future__ import annotations

import enum


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
