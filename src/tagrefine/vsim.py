"""Mining of visual-similarity ("confusability") scores from detector output.

Two labels are visually similar when a detector keeps proposing both as
candidates for the same bounding box. Over a corpus of detection records we
accumulate, per label pair, the summed confidences of their co-candidacies,
and per label the total confidence mass; the final score is the Jaccard-style
ratio

    pair_conf(a, b) / (total_conf(a) + total_conf(b))

which is 1.0 for labels that only ever appear together and 0.0 for labels
that never share a box.

The sums are exact. Every finite double is n / 2^k for ints n and
0 <= k <= 1074, so it is an integer multiple of 2^-E for any E >= k. The
accumulator holds each sum as an int counting units of 2^-E, with E the
largest k of any confidence seen so far rounded up to a multiple of 64 (at
least 64); a larger k shifts the sums held so far left to the new E. The
sums are then plain int additions: no rounding, and, since the final E
depends only on the largest k, the same ints under any record order. The
ratio is one int true division. Its value does not depend on E, and
CPython rounds it correctly, as it does float() of the same rational held
as a Fraction, so each score is the double nearest the exact ratio and the
table is the same, bit for bit, as one built from exact rational sums.
A confidence of 2^-7 (about 0.008) or more has k <= 59, so a corpus of
such confidences stays at E = 64, and its sums are ints of a few 30-bit
digits rather than the 1,075 bits that one fixed unit of 2^-1074 needs.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, KeysView

from .errors import LoadError
from .labels import CanonLabels
from .textio import data_lines, json_str, tsv_fields

log = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class BoundingBox:
    box_id: str
    candidates: tuple[tuple[str, float], ...]  # (label, conf), conf > 0

    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.candidates)


@dataclass(frozen=True, slots=True)
class DetectionRecord:
    """One image's boxes; a confidence that is not finite and > 0, a box id
    given twice in the image, a label given twice in one box, or an id or
    label that does not encode as UTF-8 raises ValueError."""

    image_id: str
    boxes: tuple[BoundingBox, ...]

    def __post_init__(self):
        # a JSON escape can spell a lone surrogate ("\ud800"), which no UTF-8
        # output can hold; the UnicodeEncodeError raised is a ValueError
        self.image_id.encode("utf-8")
        box_ids = set()
        for box in self.boxes:
            box.box_id.encode("utf-8")
            # candidates are keyed by box id: a repeat would drop a box
            if box.box_id in box_ids:
                raise ValueError(
                    f"image {self.image_id!r}: duplicate box id {box.box_id!r}"
                )
            box_ids.add(box.box_id)
            seen = set()
            for label, conf in box.candidates:
                label.encode("utf-8")
                if not (conf > 0) or not math.isfinite(conf):
                    raise ValueError(
                        f"image {self.image_id!r} box {box.box_id!r}: "
                        f"non-positive confidence {conf!r} for {label!r}"
                    )
                if label in seen:
                    raise ValueError(
                        f"image {self.image_id!r} box {box.box_id!r}: "
                        f"duplicate candidate label {label!r}"
                    )
                seen.add(label)


_NO_NEIGHBORS: dict[str, float] = {}

# a pair's key is lo << _ID_BITS | hi for its lower and higher label ids
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


class MiningAccumulator:
    """Streaming sums behind the similarity ratio.

    Each label gets an int id when first seen. Its total is `_totals[id]`;
    a pair's sum is `_pairs[lo << 32 | hi]` for its two ids, lo < hi.
    Every sum is an int counting units of 2^-`scale`: the largest
    denominator exponent of any confidence seen so far, rounded up to a
    multiple of 64, so each sum is the exact sum of the float confidences,
    whatever their size (module docstring). `scale` depends only on the
    confidences seen, so the sums, and the finalized table, are the same
    under any record order. Dividing two sums gives the same correctly
    rounded double as dividing the exact rationals.
    """

    def __init__(self):
        self._ids: dict[str, int] = {}
        self._labels: list[str] = []
        self._totals: list[int] = []
        self._pairs: dict[int, int] = {}
        self.scale = 64
        self.records_seen = 0

    def _rescale(self, k: int) -> int:
        """Raise `scale` to hold a confidence of denominator 2^k exactly;
        returns how far the sums held so far were shifted left."""
        scale = -(-k // 64) * 64
        shift = scale - self.scale
        self._totals[:] = [total << shift for total in self._totals]
        pairs = self._pairs
        for key in pairs:
            pairs[key] <<= shift
        self.scale = scale
        return shift

    def add(self, record: DetectionRecord) -> None:
        """Fold one record in."""
        ids, labels, totals, pairs = self._ids, self._labels, self._totals, self._pairs
        scale = self.scale
        for box in record.boxes:
            cands = []
            for label, conf in box.candidates:
                # conf is n / d with d = 2^k, which has k + 1 bits, so this
                # is conf * 2^scale exactly once k <= scale
                n, d = conf.as_integer_ratio()
                shift = scale + 1 - d.bit_length()
                if shift < 0:
                    # the box's earlier candidates move to the new scale too
                    moved = self._rescale(d.bit_length() - 1)
                    cands = [(i, c << moved) for i, c in cands]
                    scale = self.scale
                    shift += moved
                scaled = n << shift
                i = ids.get(label)
                if i is None:
                    i = ids[label] = len(labels)
                    labels.append(label)
                    totals.append(scaled)
                else:
                    totals[i] += scaled
                cands.append((i, scaled))
            for x in range(len(cands)):
                ia, ca = cands[x]
                for y in range(x + 1, len(cands)):
                    ib, cb = cands[y]
                    key = ia << _ID_BITS | ib if ia < ib else ib << _ID_BITS | ia
                    pairs[key] = pairs.get(key, 0) + ca + cb
        self.records_seen += 1

    @property
    def total_conf(self) -> dict[str, int]:
        """label -> its total, in units of 2^-`scale`, in first-seen order."""
        return dict(zip(self._labels, self._totals))

    @property
    def pair_conf(self) -> dict[tuple[str, str], int]:
        """(a, b), a < b -> the pair's sum, in units of 2^-`scale`."""
        labels = self._labels
        return {_pair(labels[key >> _ID_BITS], labels[key & _ID_MASK]): num
                for key, num in self._pairs.items()}


def accumulate(corpus: Iterable[DetectionRecord]) -> MiningAccumulator:
    """Accumulate a record stream."""
    acc = MiningAccumulator()
    for record in corpus:
        acc.add(record)
    return acc


class VsimTable:
    """Symmetric sparse label-pair similarity in [0, 1], kept as
    label -> {neighbour: score}; missing pairs are 0."""

    def __init__(self, scores: dict[tuple[str, str], float] | None = None):
        self._neighbors: dict[str, dict[str, float]] = {}
        for (a, b), s in (scores or {}).items():
            self._put(a, b, s)

    def _put(self, a: str, b: str, score: float) -> None:
        if a == b:
            raise ValueError(f"self-pair {a!r}")
        if not (0.0 <= score <= 1.0):
            raise ValueError(f"similarity {score!r} outside [0, 1] for ({a!r}, {b!r})")
        self._neighbors.setdefault(a, {})[b] = score
        self._neighbors.setdefault(b, {})[a] = score

    def get(self, a: str, b: str) -> float:
        return self._neighbors.get(a, _NO_NEIGHBORS).get(b, 0.0)

    def neighbors(self, label: str) -> dict[str, float]:
        return self._neighbors.get(label, {})

    def labels(self) -> KeysView[str]:
        """Every label that has at least one stored pair."""
        return self._neighbors.keys()

    def pairs(self) -> Iterator[tuple[str, str, float]]:
        """All stored pairs, (a, b, score) with a < b, sorted."""
        neighbors = self._neighbors
        for a in sorted(neighbors):
            row = neighbors[a]
            for b in sorted(b for b in row if b > a):
                yield a, b, row[b]

    def __len__(self) -> int:
        return sum(map(len, self._neighbors.values())) // 2

    def __eq__(self, other) -> bool:
        return isinstance(other, VsimTable) and self._neighbors == other._neighbors


def finalize(acc: MiningAccumulator) -> VsimTable:
    """Close out an accumulator into the ratio table.

    Every stored pair has a positive sum, since every confidence is > 0, and
    its denominator is positive because both labels were observed. A label
    pair that never shared a box is not stored (implicit score 0).
    """
    labels, totals = acc._labels, acc._totals
    table = VsimTable()
    for key, num in acc._pairs.items():
        lo, hi = key >> _ID_BITS, key & _ID_MASK
        table._put(labels[lo], labels[hi], num / (totals[lo] + totals[hi]))
    return table


def similar_set(table: VsimTable, label: str, tau_s: float) -> set[str]:
    """Labels visually similar to `label` at threshold tau_s in (0, 1]."""
    if not (0.0 < tau_s <= 1.0):
        raise ValueError(f"tau_s must be in (0, 1], got {tau_s!r}")
    return {
        other
        for other, score in table.neighbors(label).items()
        if score >= tau_s and other != label
    }


# --- corpus and table serialization -----------------------------------------

def parse_record(obj: dict, canon: CanonLabels) -> DetectionRecord:
    """Build a DetectionRecord from one decoded corpus JSON object; labels
    are canonicalised through `canon`."""
    try:
        image_id = json_str(obj["image"])
        boxes = []
        for box_obj in obj.get("boxes", []):
            cands = []
            for c in box_obj.get("candidates", []):
                conf = c["conf"]
                # a JSON number only: float() would also take true and "0.5"
                if type(conf) not in (float, int):
                    raise ValueError(f"confidence {conf!r} is not a number")
                cands.append((canon[json_str(c["label"])], float(conf)))
            boxes.append(BoundingBox(box_id=json_str(box_obj["id"]), candidates=tuple(cands)))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"malformed detection record: {exc}") from exc
    return DetectionRecord(image_id=image_id, boxes=tuple(boxes))


def read_detections_jsonl(path) -> tuple[list[DetectionRecord], int]:
    """Read a detections/corpus JSONL file leniently.

    Malformed or invariant-breaking lines are skipped with a warning;
    returns (records, skipped_count). Duplicate image ids keep the first
    occurrence. Every occurrence of a label is the same string object.
    """
    canon = CanonLabels()
    records: list[DetectionRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for lineno, line in data_lines(path):
        try:
            record = parse_record(json.loads(line), canon)
            if record.image_id in seen_ids:
                raise ValueError(f"duplicate image id {record.image_id!r}")
        except ValueError as exc:
            log.warning("%s:%d skipped: %s", path, lineno, exc)
            skipped += 1
            continue
        seen_ids.add(record.image_id)
        records.append(record)
    return records, skipped


def write_vsim_tsv(table: VsimTable, path) -> None:
    """Write `label1<TAB>label2<TAB>score` rows, label1 < label2, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, score in table.pairs():
            fh.write(f"{a}\t{b}\t{score:.6f}\n")


def read_vsim_tsv(path) -> VsimTable:
    """Read `label1<TAB>label2<TAB>score` rows; any bad or duplicate row is a LoadError."""
    table = VsimTable()
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        a_s, b_s, score_s = tsv_fields(path, lineno, line, 3)
        try:
            a, b = canon[a_s], canon[b_s]
            if b in table.neighbors(a):
                raise ValueError(f"duplicate pair {_pair(a, b)!r}")
            table._put(a, b, float(score_s))  # rejects a self-pair or a score outside [0, 1]
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
    return table
