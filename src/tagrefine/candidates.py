"""Per-image candidate label generation.

Each box's candidate set is its original detections, plus undetected labels
the detector tends to confuse with them, plus hypernyms generalizing both.
Abstract candidates are commonsense phrases asserted about any of the
image's visual candidates; they attach to the image globally, not to a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError
from .knowledge import KnowledgeStore
from .labels import Origin, PairTable
from .relatedness import Relatedness, SrelTable
from .scoring import Hyperparameters, SrelFn, gconf
from .vsim import BoundingBox, DetectionRecord


# Named tuples, not dataclasses: every image builds a few dozen of each, and
# every `tune` trial the abstract ones again.

class VisualCandidate(NamedTuple):
    label: str
    origin: Origin
    vconf: float = 0.0  # 0 for hypernym candidates
    gconf: float = 0.0  # 0 for original/similar candidates


class AbstractCandidate(NamedTuple):
    label: str
    cnet: float   # strongest supporting assertion weight
    aconf: float  # best support: cnet * srel(visual label, phrase)


@dataclass
class CandidateSets:
    box_ids: tuple[str, ...]
    per_box: dict[str, list[VisualCandidate]]
    abstract: list[AbstractCandidate]
    srel: SrelFn | None = None  # what the candidates were scored with


def visual_candidates(box: BoundingBox, vsim: PairTable, tau_s: float) -> list[VisualCandidate]:
    """The box's original candidates, in detection order, then its similar
    ones, sorted, each with its vconf, from one walk over the detections'
    vsim neighbours.

    An original keeps its detector confidence. Any other neighbour sums
    conf * score over the detections it neighbours, with `+` in detection
    order, and is similar when one of those scores is >= tau_s. A detection
    it does not neighbour would add a zero term, which leaves the sum's bits
    as they are, so the sum is vconf over all the box's detections.
    """
    detections = dict(box.candidates)
    vconf: dict[str, float] = {}
    similar: set[str] = set()
    for label, conf in box.candidates:
        for other, score in vsim.neighbors(label).items():
            if other not in detections:
                vconf[other] = vconf.get(other, 0.0) + conf * score
                if score >= tau_s:
                    similar.add(other)
    return [VisualCandidate(label, Origin.ORIGINAL, conf) for label, conf in box.candidates] + [
        VisualCandidate(label, Origin.SIMILAR, vconf[label]) for label in sorted(similar)]


def hypernym_children(
    labels: Sequence[str], parents: Mapping[str, tuple[str, ...]]
) -> list[tuple[str, list[str]]]:
    """Each parent of the distinct `labels` that is not one of them, sorted,
    with its children among them in their order."""
    children: dict[str, list[str]] = {}
    for label in labels:
        for parent in parents.get(label, ()):
            children.setdefault(parent, []).append(label)
    return [(parent, children[parent]) for parent in sorted(children.keys() - set(labels))]


@dataclass
class Supports:
    """The phrases asserted about an image's visual labels, sorted, and the
    visual labels that support each, grouped by phrase in that order."""
    phrases: list[str]
    cnet: np.ndarray  # per phrase, its strongest assertion score
    subjects: list[str]  # per support, its visual label
    counts: np.ndarray  # per phrase, its number of supports

    def srel(self, srel_fn: SrelFn) -> np.ndarray:
        """srel of every support, one call per (visual label, phrase) pair."""
        objs = (obj for obj, n in zip(self.phrases, self.counts.tolist()) for _ in range(n))
        return np.array([srel_fn(subject, obj) for subject, obj in zip(self.subjects, objs)],
                        dtype=float)

    def positions(self, table: SrelTable) -> tuple[np.ndarray, np.ndarray]:
        """Where every support sits in `table`, for `SrelTable.at`."""
        return table.indices(self.subjects), np.repeat(table.indices(self.phrases), self.counts)


def phrase_supports(
    visual: Collection[str], by_subject: Mapping[str, Mapping[str, float]]
) -> Supports:
    """`Supports` of every phrase asserted about one of the distinct `visual`
    labels; a phrase that is itself one of them is left out.

    Each phrase's supports follow the order of `visual`; what the callers
    read of them, a phrase's largest cnet and largest srel, does not depend
    on that order.
    """
    supporting: dict[str, dict[str, float]] = {}  # phrase -> subject -> score
    for subject in visual:
        for obj, score in by_subject.get(subject, {}).items():
            if obj not in visual:
                supporting.setdefault(obj, {})[subject] = score
    phrases = sorted(supporting)
    return Supports(
        phrases=phrases,
        cnet=np.array([max(supporting[obj].values()) for obj in phrases], dtype=float),
        subjects=[subject for obj in phrases for subject in supporting[obj]],
        counts=np.array([len(supporting[obj]) for obj in phrases], dtype=np.intp),
    )


def rank_abstract(supports: Supports, srel: np.ndarray, cap: int) -> list[AbstractCandidate]:
    """Abstract candidates ranked by their best support, ties broken
    lexicographically, and truncated to `cap` to keep the joint selection
    tractable.

    `srel` holds the srel of each support, in `supports.subjects` order. A
    phrase's aconf is its cnet times its largest srel: for cnet >= 0,
    rounding keeps cnet * s monotone in s, so this is the largest
    cnet * srel bit for bit.
    """
    if cap < 1:
        raise ConfigError(f"abstract candidate cap must be >= 1, got {cap!r}")
    if not supports.phrases:
        return []
    starts = np.cumsum(supports.counts) - supports.counts
    aconf = supports.cnet * np.maximum.reduceat(srel, starts)
    # a stable sort over the sorted phrases breaks aconf ties by label
    keep = np.argsort(-aconf, kind="stable")[:cap].tolist()
    cnet, aconf = supports.cnet.tolist(), aconf.tolist()
    return [AbstractCandidate(supports.phrases[i], cnet[i], aconf[i]) for i in keep]


@dataclass
class ImageLabels:
    """What `generate` builds for one image and `tau_s` that no weight changes."""
    # per box: its id, its original and similar candidates (with vconf), and
    # its hypernyms, each with its children in the box
    boxes: list[tuple[str, list[VisualCandidate], list[tuple[str, list[str]]]]]
    supports: Supports  # of the phrases asserted about the visual labels
    table: SrelTable | None  # the image's srel, given a `Relatedness`
    support_at: tuple[np.ndarray, np.ndarray] | None  # `supports.positions(table)`


def image_labels(
    record: DetectionRecord, store: KnowledgeStore, tau_s: float, srel: Relatedness | SrelFn
) -> ImageLabels:
    """Each box's original, similar and hypernym labels at `tau_s`, the
    phrases asserted about them with their supports and, given a
    `Relatedness`, the srel table of the visual labels x (the visual labels
    + those phrases) and where each support pair sits in it."""
    boxes = []
    visual: dict[str, None] = {}
    for box in record.boxes:
        fixed = visual_candidates(box, store.vsim, tau_s)
        box_labels = [c.label for c in fixed]
        hyper = hypernym_children(box_labels, store.parents)
        boxes.append((box.box_id, fixed, hyper))
        # in box order, so the srel table, and every value read from it, is
        # the same in every process
        visual.update(dict.fromkeys([*box_labels, *(label for label, _ in hyper)]))
    # every asserted phrase, before the cap: the best supports decide the ranking
    supports = phrase_supports(visual, store.by_subject)
    if not isinstance(srel, Relatedness):
        return ImageLabels(boxes, supports, None, None)
    table = srel.table(list(visual), supports.phrases)
    return ImageLabels(boxes, supports, table, supports.positions(table))


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
    if labels.table is None:
        srel_fn, support_srel = srel, labels.supports.srel(srel)
    else:
        srel_fn = labels.table.blend(hp.delta)
        support_srel = srel_fn.at(labels.support_at)

    per_box = {}
    for box_id, fixed, hyper in labels.boxes:
        per_box[box_id] = fixed + [
            VisualCandidate(label, Origin.HYPERNYM, gconf=gconf(label, children, srel_fn))
            for label, children in hyper]

    return CandidateSets(
        box_ids=tuple(box.box_id for box in record.boxes),
        per_box=per_box,
        abstract=rank_abstract(labels.supports, support_srel, hp.abstract_cap),
        srel=srel_fn,
    )
