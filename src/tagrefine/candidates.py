"""Per-image candidate label generation.

Each box's candidate set is its original detections, plus undetected labels
the detector tends to confuse with them, plus hypernyms generalizing both.
Abstract candidates are commonsense phrases asserted about any of the
image's visual candidates; they attach to the image globally, not to a box.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .errors import ConfigError
from .knowledge import KnowledgeStore
from .labels import Origin
from .relatedness import Relatedness, SrelTable
from .scoring import Hyperparameters, SrelFn, gconf, vconf
from .vsim import BoundingBox, DetectionRecord, VsimTable, similar_set


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


@dataclass
class Supports:
    """The phrases of `asserted_objects`, sorted, and the visual labels that
    support each, grouped by phrase in that order."""
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


def phrase_supports(supporting: Mapping[str, Mapping[str, float]]) -> Supports:
    """`Supports` of what `asserted_objects` returns."""
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
    # its hypernym labels
    boxes: list[tuple[str, list[VisualCandidate], list[str]]]
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
    supports = phrase_supports(asserted_objects(visual, store.by_subject))
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
        abstract=rank_abstract(labels.supports, support_srel, hp.abstract_cap),
        srel=srel_fn,
    )
