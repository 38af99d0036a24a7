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
from .relatedness import Relatedness, SrelTable
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
    cnet: float   # strongest supporting assertion weight
    aconf: float  # best support: cnet * srel(visual label, phrase)


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
    # the callers sort what they read from this, so the result does not
    # depend on the order in which subjects are visited
    supporting: dict[str, dict[str, float]] = {}
    for subject in visual:
        for obj, score in by_subject.get(subject, {}).items():
            if obj not in visual:
                supporting.setdefault(obj, {})[subject] = score
    return supporting


def phrase_cnet(supporting: Mapping[str, Mapping[str, float]]) -> dict[str, float]:
    """Per phrase from `asserted_objects`, its cnet: its strongest assertion score."""
    return {obj: max(scores.values()) for obj, scores in supporting.items()}


def rank_abstract(
    supporting: Mapping[str, Mapping[str, float]], cnet: Mapping[str, float], cap: int,
    srel_fn: SrelFn,
) -> list[AbstractCandidate]:
    """Abstract candidates from `asserted_objects` and their `phrase_cnet`,
    ranked by their best support, ties broken lexicographically, and
    truncated to `cap` to keep the joint selection tractable."""
    if cap < 1:
        raise ConfigError(f"abstract candidate cap must be >= 1, got {cap!r}")
    out: list[AbstractCandidate] = []
    for obj, scores in supporting.items():
        aconf = max(cnet[obj] * srel_fn(subject, obj) for subject in scores)
        out.append(AbstractCandidate(label=obj, cnet=cnet[obj], aconf=aconf))
    out.sort(key=lambda c: (-c.aconf, c.label))
    return out[:cap]


@dataclass
class ImageLabels:
    """What `generate` builds for one image and `tau_s` that no weight changes."""
    # per box: its id, its original and similar candidates (with vconf), and
    # its hypernym labels
    boxes: list[tuple[str, list[VisualCandidate], list[str]]]
    supporting: dict[str, dict[str, float]]  # `asserted_objects` of the visual labels
    cnet: dict[str, float]  # `phrase_cnet` of `supporting`
    table: SrelTable | None  # the image's srel, given a `Relatedness`


def image_labels(
    record: DetectionRecord, store: KnowledgeStore, tau_s: float, srel: Relatedness | SrelFn
) -> ImageLabels:
    """Each box's original, similar and hypernym labels at `tau_s`, the
    phrases asserted about them with their cnet and, given a `Relatedness`,
    the srel table of the visual labels x (the visual labels + those
    phrases)."""
    boxes = []
    visual: dict[str, None] = {}
    for box in record.boxes:
        original = list(box.labels())
        similar = sorted(expand_similar(box, store.vsim, tau_s))
        hyper = expand_hypernyms(original + similar, store.parents)
        fixed = [VisualCandidate(label=label, origin=Origin.ORIGINAL,
                                 vconf=vconf(box, label, store.vsim)) for label in original]
        fixed += [VisualCandidate(label=label, origin=Origin.SIMILAR,
                                  vconf=vconf(box, label, store.vsim)) for label in similar]
        boxes.append((box.box_id, fixed, hyper))
        # in box order, so the srel table, and every value read from it, is
        # the same in every process
        visual.update(dict.fromkeys([*original, *similar, *hyper]))
    # every asserted phrase, before the cap: the best supports decide the ranking
    supporting = asserted_objects(visual, store.by_subject)
    table = srel.table(list(visual), sorted(supporting)) \
        if isinstance(srel, Relatedness) else None
    return ImageLabels(boxes, supporting, phrase_cnet(supporting), table)


def generate(
    record: DetectionRecord,
    store: KnowledgeStore,
    hp: Hyperparameters,
    srel: Relatedness | SrelFn,
    memo: dict[float, ImageLabels] | None = None,
) -> CandidateSets:
    """Build the full candidate space for one image.

    A label keeps the strongest origin it qualifies for
    (original > similar > hypernym) and appears once per box. Given a
    `Relatedness`, srel is computed once for the image, as one table of
    the visual labels x (the visual labels + every phrase asserted about
    them), blended at `hp.delta`; given a plain function, that function is
    called per pair.

    `memo`, one dict per image kept across calls that differ only in
    weights, keeps the image's `ImageLabels` per `tau_s`, so that later
    calls run only the blend, gconf and the abstract ranking.
    """
    labels = None if memo is None else memo.get(hp.tau_s)
    if labels is None:
        labels = image_labels(record, store, hp.tau_s, srel)
        if memo is not None:
            memo[hp.tau_s] = labels
    srel_fn = srel if labels.table is None else labels.table.blend(hp.delta)

    per_box: dict[str, list[VisualCandidate]] = {}
    for box_id, fixed, hyper in labels.boxes:
        # ordered, not a set: gconf sums over it, and set order follows the
        # string hash seed, which would change the last bits between runs
        box_visual = [c.label for c in fixed]
        per_box[box_id] = fixed + [
            VisualCandidate(label=label, origin=Origin.HYPERNYM,
                            gconf=gconf(box_visual, label, store.parents, srel_fn))
            for label in hyper
        ]

    return CandidateSets(
        box_ids=tuple(box.box_id for box in record.boxes),
        per_box=per_box,
        abstract=rank_abstract(labels.supporting, labels.cnet, hp.abstract_cap, srel_fn),
        srel=srel_fn,
    )
