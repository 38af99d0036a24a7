"""The candidate scans as they were before each box's candidates came from
one walk per table: a label at a time, one lookup per detection or child.

`tests/test_candidates.py::TestWalkOracle` checks `visual_candidates`,
`hypernym_children`, `gconf` and `phrase_supports` against these, bit for
bit, on seeded random boxes.
"""

from typing import Iterable, Mapping, Sequence

from tagrefine.errors import ContractViolation
from tagrefine.labels import PairTable
from tagrefine.scoring import SrelFn
from tagrefine.vsim import BoundingBox


def similar_set(table: PairTable, label: str, tau_s: float) -> set[str]:
    """Labels visually similar to `label` at threshold tau_s."""
    return {other for other, score in table.neighbors(label).items() if score >= tau_s}


def expand_similar(box: BoundingBox, vsim_table: PairTable, tau_s: float) -> set[str]:
    """Visually-similar labels the detector did not propose for this box."""
    original = set(box.labels())
    out: set[str] = set()
    for label in original:
        out |= similar_set(vsim_table, label, tau_s)
    return out - original


def expand_hypernyms(
    visual_labels: Iterable[str], parents: Mapping[str, tuple[str, ...]]
) -> list[str]:
    """Hypernym parents of the given labels that are not among them, sorted."""
    labels = set(visual_labels)
    return sorted({parent for label in labels for parent in parents.get(label, ())} - labels)


def asserted_objects(
    visual_labels: Iterable[str], by_subject: Mapping[str, Mapping[str, float]]
) -> dict[str, dict[str, float]]:
    """object -> subject -> score for every phrase asserted about any of the
    visual labels; a phrase that is itself one of them is left out."""
    visual = set(visual_labels)
    supporting: dict[str, dict[str, float]] = {}
    for subject in visual:
        for obj, score in by_subject.get(subject, {}).items():
            if obj not in visual:
                supporting.setdefault(obj, {})[subject] = score
    return supporting


def vconf(box: BoundingBox, label: str, vsim_table: PairTable) -> float:
    """Visual confidence of a concrete label for a box.

    Original detections keep their detector confidence; visually-similar
    additions earn the similarity-weighted sum of the box's original
    confidences. Anything else is a caller bug.
    """
    originals = dict(box.candidates)
    if label in originals:
        return originals[label]
    sims = [(conf, vsim_table.get(orig_label, label)) for orig_label, conf in box.candidates]
    if not any(s > 0.0 for _, s in sims):
        raise ContractViolation(
            f"label {label!r} is neither original nor visually similar in box {box.box_id!r}"
        )
    # `+` from 0, as `sum()` adds floats up to Python 3.11; from 3.12 on
    # `sum()` compensates, and its last bits may differ
    total = 0
    for conf, s in sims:
        total += conf * s
    return total


def gconf(
    box_visual_labels: Sequence[str],
    hypernym: str,
    parents: Mapping[str, tuple[str, ...]],
    srel_fn: SrelFn,
) -> float:
    """Generalization confidence: summed relatedness to children in this box.

    Exactly 0 for labels that are themselves original or similar candidates
    of the box. Sums in the order of `box_visual_labels`.
    """
    if hypernym in box_visual_labels:
        return 0.0
    total = 0.0
    for child in box_visual_labels:
        if hypernym in parents.get(child, ()):
            total += srel_fn(hypernym, child)
    return total
