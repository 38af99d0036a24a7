"""Per-image candidate label generation.

Each box's candidate set is its original detections, plus undetected labels
the detector tends to confuse with them, plus hypernyms generalizing both.
Abstract candidates are commonsense phrases asserted about any of the
image's visual candidates; they attach to the image globally, not to a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import ConfigError
from .knowledge import KnowledgeStore
from .labels import Origin
from .relatedness import Relatedness
from .scoring import Hyperparameters, SrelFn, gconf, vconf
from .vsim import BoundingBox, DetectionRecord, VsimTable, similar_set


@dataclass(frozen=True)
class VisualCandidate:
    label: str
    origin: Origin
    vconf: float = 0.0  # 0 for hypernym candidates
    gconf: float = 0.0  # 0 for original/similar candidates


@dataclass(frozen=True)
class AbstractCandidate:
    label: str
    cnet: float  # strongest supporting assertion weight
    supports: tuple[tuple[str, float], ...]  # (visual label, its aconf)

    def max_aconf(self) -> float:
        return max((a for _, a in self.supports), default=0.0)


@dataclass
class CandidateSets:
    box_ids: tuple[str, ...]
    per_box: dict[str, list[VisualCandidate]]
    abstract: list[AbstractCandidate]
    srel: SrelFn | None = None  # what the candidates were scored with


def expand_similar(box: BoundingBox, vsim_table: VsimTable, tau_s: float) -> set[str]:
    """Visually-similar labels the detector did not propose for this box."""
    original = set(box.labels())
    out: set[str] = set()
    for label in original:
        out |= similar_set(vsim_table, label, tau_s)
    return out - original


def expand_hypernyms(
    visual_labels: Iterable[str], parents: Mapping[str, tuple[str, ...]]
) -> dict[str, tuple[str, ...]]:
    """Hypernym parents of the given labels, keyed parent -> children here."""
    children_of: dict[str, set[str]] = {}
    for label in visual_labels:
        for parent in parents.get(label, ()):
            children_of.setdefault(parent, set()).add(label)
    return {parent: tuple(sorted(kids)) for parent, kids in children_of.items()}


def asserted_objects(
    visual_labels: Iterable[str], by_subject: Mapping[str, Mapping[str, float]]
) -> dict[str, dict[str, float]]:
    """object -> subject -> score for every phrase asserted about any of the
    visual labels; a phrase that is itself one of them is left out."""
    visual = set(visual_labels)
    # the callers sort what they read from this, so the result does not
    # depend on the order in which subjects are visited
    supporting: dict[str, dict[str, float]] = {}
    for subject in visual:
        for obj, score in by_subject.get(subject, {}).items():
            if obj not in visual:
                supporting.setdefault(obj, {})[subject] = score
    return supporting


def rank_abstract(
    supporting: Mapping[str, Mapping[str, float]], cap: int, srel_fn: SrelFn
) -> list[AbstractCandidate]:
    """Abstract candidates from `asserted_objects`: each phrase's supports,
    ranked by the best supporting aconf, ties broken lexicographically, and
    truncated to `cap` to keep the joint selection tractable."""
    if cap < 1:
        raise ConfigError(f"abstract candidate cap must be >= 1, got {cap!r}")
    out: list[AbstractCandidate] = []
    for obj in sorted(supporting):
        scores = supporting[obj]
        cnet = max(scores.values())
        supports = tuple(
            (subject, cnet * srel_fn(subject, obj)) for subject in sorted(scores)
        )
        out.append(AbstractCandidate(label=obj, cnet=cnet, supports=supports))
    out.sort(key=lambda c: (-c.max_aconf(), c.label))
    return out[:cap]


def generate(
    record: DetectionRecord,
    store: KnowledgeStore,
    hp: Hyperparameters,
    srel: Relatedness | SrelFn,
) -> CandidateSets:
    """Build the full candidate space for one image.

    A label keeps the strongest origin it qualifies for
    (original > similar > hypernym) and appears once per box. Given a
    `Relatedness`, srel is computed once for the image, as one table of
    the visual labels x (the visual labels + every phrase asserted about
    them); given a plain function, that function is called per pair.
    """
    boxes = []
    for box in record.boxes:
        original = list(box.labels())
        similar = sorted(expand_similar(box, store.vsim, hp.tau_s))
        # ordered, not a set: gconf sums over it, and set order follows the
        # string hash seed, which would change the last bits between runs
        box_visual = original + similar
        hyper = [label for label in sorted(expand_hypernyms(box_visual, store.parents))
                 if label not in box_visual]  # else an original/similar candidate
        boxes.append((box, original, similar, hyper))

    # in box order, so the table, and every value read from it, is the
    # same in every process
    visual = list(dict.fromkeys(label for _, original, similar, hyper in boxes
                                for label in (*original, *similar, *hyper)))
    # every asserted phrase, before the cap: the supports decide the ranking
    supporting = asserted_objects(visual, store.by_subject)
    srel_fn = srel.table(visual, visual + sorted(supporting)) \
        if isinstance(srel, Relatedness) else srel

    per_box: dict[str, list[VisualCandidate]] = {}
    for box, original, similar, hyper in boxes:
        cands: list[VisualCandidate] = []
        for label in original:
            cands.append(
                VisualCandidate(label=label, origin=Origin.ORIGINAL,
                                vconf=vconf(box, label, store.vsim))
            )
        for label in similar:
            cands.append(
                VisualCandidate(label=label, origin=Origin.SIMILAR,
                                vconf=vconf(box, label, store.vsim))
            )
        box_visual = original + similar
        for label in hyper:
            cands.append(
                VisualCandidate(label=label, origin=Origin.HYPERNYM,
                                gconf=gconf(box_visual, label, store.parents, srel_fn))
            )
        per_box[box.box_id] = cands

    return CandidateSets(
        box_ids=tuple(box.box_id for box in record.boxes),
        per_box=per_box,
        abstract=rank_abstract(supporting, hp.abstract_cap, srel_fn),
        srel=srel_fn,
    )
