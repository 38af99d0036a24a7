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

The ints are Python ints held in NumPy arrays of dtype object, and records
are folded in chunks of a few thousand candidates with `np.add.at`, which
adds them with Python's exact int addition; E rises at most once per chunk
(MiningAccumulator). A confidence of 2^-7 (about 0.008) or more has
k <= 59, so a corpus of such confidences stays at E = 64, and each of its
values is an int of at most 117 bits rather than the 1,000 or more that one
fixed unit of 2^-1074 needs.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator

import numpy as np

from .errors import LoadError
from .labels import CanonLabels, PairTable
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
                if not 0 < conf < math.inf:  # False for nan too
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


# a pair's key is lo << _ID_BITS | hi for its lower and higher label ids
_ID_BITS = 32
_ID_MASK = (1 << _ID_BITS) - 1

# candidates, and pairs, folded in at once, so a chunk's arrays stay small
CHUNK_BOUND = 1 << 13


_label, _conf = itemgetter(0), itemgetter(1)


def _pair(a: str, b: str) -> tuple[str, str]:
    return (a, b) if a < b else (b, a)


class _LabelIds(dict):
    """label -> its id, the number of labels seen before it."""

    def __missing__(self, label: str) -> int:
        i = self[label] = len(self)
        return i


def _binary(conf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, k) with conf = n * 2^-k, n odd, for positive finite doubles."""
    mant, exp = np.frexp(conf)
    n = (mant * 2.0 ** 53).astype(np.int64)  # mant has at most 53 bits
    zeros = np.frexp((n & -n).astype(np.float64))[1] - 1  # trailing zero bits
    return n >> zeros, 53 - exp.astype(np.int64) - zeros


class MiningAccumulator:
    """Streaming sums behind the similarity ratio.

    Each label gets an int id when first seen, and each pair of ids lo < hi
    the key lo << 32 | hi. Every sum is a Python int counting units of
    2^-`scale`: the largest denominator exponent of any confidence seen so
    far, rounded up to a multiple of 64, so each sum is the exact sum of
    the float confidences, whatever their size (module docstring). The sums
    are held in NumPy arrays of dtype object: `_totals[i]` is label i's
    total, and `_sums[p]` the sum of the pair with key `_keys[p]`, the keys
    kept sorted.

    `add` buffers a record's candidates, and a chunk is folded in once its
    next box would take it past `CHUNK_BOUND` candidates or pairs; a box
    with more pairs than that is folded in slices of that many. A
    confidence n * 2^-k is the int n << (scale - k) in units of 2^-scale.
    `np.add.at` adds it to its label's total, and the two values of each
    pair of a box to the pair's sum, which `np.unique` groups by key. Those
    are Python int additions, so exact at any size.

    A chunk that raises `scale` shifts the sums held so far left to the new
    unit. So the sums are always the ints that the records folded so far
    give at the current `scale`, which depends only on the confidences
    seen: the sums, and the finalized table, are the same under any record
    order and wherever the chunks break. Dividing two sums gives the same
    correctly rounded double as dividing the exact rationals.
    """

    def __init__(self):
        self._ids = _LabelIds()
        self._totals = np.zeros(0, object)
        self._keys = np.zeros(0, np.int64)
        self._sums = np.zeros(0, object)
        # the chunk buffered: its candidates, its boxes' sizes and its pairs
        self._cands: list[tuple[str, float]] = []
        self._sizes: list[int] = []
        self._pairs = 0
        self.scale = 64
        self.records_seen = 0

    def add(self, record: DetectionRecord) -> None:
        """Buffer one record, folding the chunk in first wherever the
        record's next box would take it past `CHUNK_BOUND`."""
        cands, sizes = self._cands, self._sizes
        for box in record.boxes:
            m = len(box.candidates)
            pairs = m * (m - 1) >> 1
            if cands and (len(cands) + m > CHUNK_BOUND or self._pairs + pairs > CHUNK_BOUND):
                self.flush()
            cands += box.candidates
            sizes.append(m)
            self._pairs += pairs
        self.records_seen += 1

    def flush(self) -> None:
        """Fold the buffered chunk in."""
        cands, count = self._cands, len(self._cands)
        if not count:
            self._sizes.clear()
            return
        ids = np.fromiter(map(self._ids.__getitem__, map(_label, cands)), np.int64, count)
        n, k = _binary(np.fromiter(map(_conf, cands), np.float64, count))
        sizes = np.array(self._sizes, np.int64)
        cands.clear()
        self._sizes.clear()
        self._pairs = 0
        scale = max(self.scale, -(-int(k.max()) // 64) * 64)
        if scale > self.scale:
            self._totals <<= scale - self.scale
            self._sums <<= scale - self.scale
            self.scale = scale
        values = n.astype(object) << (scale - k).astype(object)
        new = len(self._ids) - len(self._totals)
        if new:
            self._totals = np.append(self._totals, np.zeros(new, object))
        np.add.at(self._totals, ids, values)
        # each candidate comes first in the pairs with the rest of its box
        first = np.repeat(np.cumsum(sizes), sizes) - 1 - np.arange(count)
        start = np.cumsum(first) - first
        pairs = int(start[-1] + first[-1])
        for at in range(0, pairs, CHUNK_BOUND):
            g = np.arange(at, min(at + CHUNK_BOUND, pairs))
            a = np.searchsorted(start, g, "right") - 1
            b = a + 1 + g - start[a]
            ia, ib = ids[a], ids[b]
            keys, inv = np.unique(np.minimum(ia, ib) << _ID_BITS | np.maximum(ia, ib),
                                  return_inverse=True)
            slots = self._slots_of(keys)[inv]  # may grow `_sums`
            np.add.at(self._sums, slots, values[a] + values[b])

    def _slots_of(self, keys: np.ndarray) -> np.ndarray:
        """The places in `_sums` of the pairs `keys` (sorted and unique); a
        pair not seen before is inserted with a zero sum."""
        held = self._keys
        pos = np.searchsorted(held, keys)
        hit = pos < len(held)
        hit[hit] = held[pos[hit]] == keys[hit]
        new = ~hit
        if not new.any():
            return pos
        self._keys = np.insert(held, pos[new], keys[new])
        self._sums = np.insert(self._sums, pos[new], 0)
        # a key moves up by the new keys inserted before it
        return pos + np.cumsum(new) - new

    def _pair_sums(self) -> Iterator[tuple[int, int, int]]:
        """(lo, hi, sum) of every pair, lo and hi its label ids, in key order."""
        keys = self._keys
        return zip((keys >> _ID_BITS).tolist(), (keys & _ID_MASK).tolist(), self._sums.tolist())

    @property
    def total_conf(self) -> dict[str, int]:
        """label -> its total, in units of 2^-`scale`, in first-seen order."""
        self.flush()
        return dict(zip(self._ids, self._totals.tolist()))

    @property
    def pair_conf(self) -> dict[tuple[str, str], int]:
        """(a, b), a < b -> the pair's sum, in units of 2^-`scale`."""
        self.flush()
        labels = list(self._ids)
        return {_pair(labels[lo], labels[hi]): num for lo, hi, num in self._pair_sums()}


def accumulate(corpus: Iterable[DetectionRecord]) -> MiningAccumulator:
    """Accumulate a record stream; nothing is left buffered."""
    acc = MiningAccumulator()
    for record in corpus:
        acc.add(record)
    acc.flush()
    return acc


def finalize(acc: MiningAccumulator) -> PairTable:
    """Close out an accumulator into the ratio table.

    Every stored pair has a positive sum, since every confidence is > 0, and
    its denominator is positive because both labels were observed. A label
    pair that never shared a box is not stored (implicit score 0).
    """
    acc.flush()
    labels = list(acc._ids)
    totals = acc._totals.tolist()
    table = PairTable()
    add = table.add
    for lo, hi, num in acc._pair_sums():
        add(labels[lo], labels[hi], num / (totals[lo] + totals[hi]))
    return table


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
                if type(conf) is not float:
                    # a JSON number only: float() would also take true and
                    # "0.5"; an int past the doubles raises OverflowError
                    if type(conf) is not int:
                        raise ValueError(f"confidence {conf!r} is not a number")
                    conf = float(conf)
                label = c["label"]
                try:
                    label = canon[label]  # a text canon has not seen is checked
                except TypeError:  # unhashable, so not a string
                    json_str(label)
                    raise
                cands.append((label, conf))
            boxes.append(BoundingBox(box_id=json_str(box_obj["id"]), candidates=tuple(cands)))
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
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


def write_vsim_tsv(table: PairTable, path) -> None:
    """Write `label1<TAB>label2<TAB>score` rows, label1 < label2, sorted."""
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, score in table.pairs():
            fh.write(f"{a}\t{b}\t{score:.6f}\n")


def read_vsim_tsv(path) -> PairTable:
    """Read `label1<TAB>label2<TAB>score` rows; a self-pair, a score outside
    [0, 1] or any other bad or duplicate row is a LoadError."""
    table = PairTable()
    canon = CanonLabels()
    for lineno, line in data_lines(path):
        a_s, b_s, score_s = tsv_fields(path, lineno, line, 3)
        try:
            a, b = canon[a_s], canon[b_s]
            if b in table.neighbors(a):
                raise ValueError(f"duplicate pair {_pair(a, b)!r}")
            score = float(score_s)
            if a == b:
                raise ValueError(f"self-pair {a!r}")
            if not (0.0 <= score <= 1.0):
                raise ValueError(f"similarity {score!r} outside [0, 1] for ({a!r}, {b!r})")
        except ValueError as exc:
            raise LoadError(path, str(exc), lineno) from exc
        table.add(a, b, score)
    return table
