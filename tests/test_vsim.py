import json
import math
import random
import struct
from fractions import Fraction
from itertools import repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from candidates_reference import similar_set as similar_set_reference
from corpus_reading import assert_same_sums, read_both
from tagrefine import vsim
from tagrefine.candidates import visual_candidates
from tagrefine.errors import LoadError
from tagrefine.labels import Origin, PairTable
from tagrefine.vsim import (
    BoundingBox,
    DetectionRecord,
    accumulate,
    finalize,
    read_detections_jsonl,
    read_vsim_tsv,
    write_vsim_tsv,
)


def box(bid, **cands):
    return BoundingBox(box_id=bid, candidates=tuple(
        (label.replace("_", " "), conf) for label, conf in cands.items()
    ))


def record(image_id, *boxes):
    return DetectionRecord(image_id=image_id, boxes=tuple(boxes))


def exact(acc, value):
    """The rational number a mining sum of `acc` stands for."""
    return Fraction(value, 1 << acc.scale)


def fraction_sums(corpus):
    """Reference: the mining sums as exact Fractions of the float confidences."""
    pair, total = {}, {}
    for rec in corpus:
        for bx in rec.boxes:
            cands = [(label, Fraction(conf)) for label, conf in bx.candidates]
            for label, conf in cands:
                total[label] = total.get(label, 0) + conf
            for i, (la, ca) in enumerate(cands):
                for lb, cb in cands[i + 1:]:
                    key = (la, lb) if la < lb else (lb, la)
                    pair[key] = pair.get(key, 0) + ca + cb
    return pair, total


class TestAccumulate:
    def test_empty_corpus(self):
        acc = accumulate([])
        assert acc.pair_conf == {} and acc.total_conf == {}

    def test_single_box(self):
        acc = accumulate([record("i1", box("b1", a=0.6, b=0.4))])
        assert list(acc.pair_conf) == [("a", "b")]
        assert exact(acc, acc.pair_conf[("a", "b")]) == Fraction(0.6) + Fraction(0.4)
        assert float(exact(acc, acc.pair_conf[("a", "b")])) == pytest.approx(1.0)
        assert list(acc.total_conf) == ["a", "b"]
        assert exact(acc, acc.total_conf["a"]) == Fraction(0.6)
        assert exact(acc, acc.total_conf["b"]) == Fraction(0.4)

    def test_two_boxes_hand_sums(self):
        acc = accumulate([
            record("i1", box("b1", a=0.6, b=0.4)),
            record("i2", box("b1", a=0.5)),
        ])
        assert exact(acc, acc.total_conf["a"]) == Fraction(0.6) + Fraction(0.5)
        assert float(exact(acc, acc.total_conf["a"])) == pytest.approx(1.1)
        assert exact(acc, acc.total_conf["b"]) == Fraction(0.4)
        assert exact(acc, acc.pair_conf[("a", "b")]) == Fraction(0.6) + Fraction(0.4)
        assert float(exact(acc, acc.pair_conf[("a", "b")])) == pytest.approx(1.0)

    def test_nonpositive_conf_rejects_record(self):
        with pytest.raises(ValueError, match="non-positive confidence 0.0 for 'a'"):
            record("i1", box("b1", a=0.0))

    def test_duplicate_label_rejects_record(self):
        bad = BoundingBox(box_id="b1", candidates=(("a", 0.5), ("a", 0.4)))
        with pytest.raises(ValueError, match="duplicate candidate label 'a'"):
            DetectionRecord(image_id="i1", boxes=(bad,))


class TestFinalize:
    def test_always_together_is_one(self):
        corpus = [record(f"i{n}", box("b", a=0.5, b=0.3)) for n in range(4)]
        table = finalize(accumulate(corpus))
        assert table.get("a", "b") == pytest.approx(1.0)

    def test_never_together_is_zero(self):
        corpus = [record("i1", box("b", a=0.5)), record("i2", box("b", b=0.3))]
        table = finalize(accumulate(corpus))
        assert table.get("a", "b") == 0.0
        assert len(table) == 0

    def test_hand_corpus_two_thirds(self):
        corpus = [record("i1", box("b", a=0.6, b=0.4)), record("i2", box("b", a=0.5))]
        table = finalize(accumulate(corpus))
        assert table.get("a", "b") == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert table.get("b", "a") == table.get("a", "b")


def add_built_table(acc):
    """The table of `acc` built pair by pair with `PairTable.add`, in key order."""
    labels, totals = list(acc._ids), acc._totals.tolist()
    table = PairTable()
    for key, num in zip(acc._keys.tolist(), acc._sums.tolist()):
        lo, hi = key >> 32, key & (1 << 32) - 1
        table.add(labels[lo], labels[hi], num / (totals[lo] + totals[hi]))
    return table


class TestFinalizeRows:
    """`finalize` builds each row in one pass; its table is the one `add`
    builds, down to the order of labels and neighbours and `max_value`."""

    @pytest.mark.parametrize("n_records", [0, 1, 300])
    def test_same_table_as_add_builds(self, n_records):
        acc = accumulate(scale_corpus(seed=n_records, n_records=n_records, n_labels=40))
        got, want = finalize(acc), add_built_table(acc)
        assert got == want
        assert got.max_value == want.max_value and type(got.max_value) is type(want.max_value)
        assert list(got.labels()) == list(want.labels())
        assert [list(got.neighbors(a).items()) for a in got.labels()] == \
            [list(want.neighbors(a).items()) for a in want.labels()]
        assert (len(got) > 100) == (n_records == 300)


def assert_matches_fraction_reference(corpus, acc):
    """`acc`'s exact sums, and the score bits of its table, against
    `fraction_sums` of `corpus`."""
    pair, total = fraction_sums(corpus)
    assert {key: exact(acc, value) for key, value in acc.pair_conf.items()} == pair
    assert {label: exact(acc, value) for label, value in acc.total_conf.items()} == total
    expected = {(a, b): float(value / (total[a] + total[b])).hex()
                for (a, b), value in pair.items()}
    assert {(a, b): score.hex() for a, b, score in finalize(acc).pairs()} == expected


class TestScale:
    """The sums count units of 2^-scale: the largest denominator exponent
    seen, rounded up to a multiple of 64."""

    @pytest.mark.parametrize("conf, scale", [
        (1.0, 64), (0.5, 64), (2.0 ** -64, 64), (2.0 ** -65, 128), (0.1, 64),
        (2.0 ** -960, 960), (2.0 ** -1000, 1024), (1e-300, 1088), (5e-324, 1088),
        (1e308, 64),
    ])
    def test_scale_of_one_confidence(self, conf, scale):
        assert accumulate([]).scale == 64
        acc = accumulate([record("i1", box("b", a=conf))])
        assert acc.scale == scale
        assert exact(acc, acc.total_conf["a"]) == Fraction(conf)

    @pytest.mark.parametrize("first, then", [(0.5, 5e-324), (5e-324, 0.5)])
    def test_rescale_in_either_order(self, first, then):
        # within a box (the box's earlier candidates move too) and across records
        corpus = [
            record("i1", box("b", a=first, b=then, c=0.25)),
            record("i2", box("b", b=first), box("c", a=then, c=first)),
            record("i3", box("b", a=first, b=first)),
        ]
        acc = accumulate(corpus)
        assert acc.scale == 1088
        assert_matches_fraction_reference(corpus, acc)
        assert acc.pair_conf == accumulate(corpus[::-1]).pair_conf

    def test_huge_confidences(self):
        # 1e308 + 1e308 overflows a double, not the exact sums
        corpus = [
            record("i1", box("b", a=1e308, b=1e308)),
            record("i2", box("b", a=1e308, c=5e-324)),
            record("i3", box("b", c=1.7976931348623157e308, d=0.5)),
        ]
        acc = accumulate(corpus)
        assert acc.scale == 1088
        assert_matches_fraction_reference(corpus, acc)
        assert finalize(acc).get("a", "b") == 2.0 / 3.0


SPECIAL_CONFS = [5e-324, 1e-323, 2.2250738585072014e-308, 0.5, 1.0, 1e308]


def wide_conf(rng):
    """A confidence from the mix of `WIDE_CONFS`: an edge value, a small
    subnormal-range one, or any double from 5e-324 to 1e308 by its bits."""
    pick = rng.random()
    if pick < 0.15:
        return rng.choice(SPECIAL_CONFS)
    if pick < 0.3:
        return rng.uniform(5e-324, 1e-300)
    if pick < 0.6:
        return rng.uniform(0.05, 1.0)
    while True:
        conf = struct.unpack("<d", struct.pack("<Q", rng.getrandbits(63)))[0]
        if 5e-324 <= conf <= 1e308:
            return conf


def scale_corpus(seed=0, n_records=2000, n_labels=300):
    rng = random.Random(seed)
    labels = [f"label {n}" for n in range(n_labels)]
    corpus = []
    for n in range(n_records):
        boxes = []
        for b in range(rng.randint(1, 3)):
            cands = rng.sample(labels, rng.randint(1, 5))
            boxes.append(BoundingBox(f"b{b}", tuple((label, wide_conf(rng)) for label in cands)))
        corpus.append(DetectionRecord(f"i{n}", tuple(boxes)))
    return corpus


class TestAtScale:
    def test_sums_and_scores_match_fraction_reference(self):
        corpus = scale_corpus()
        acc = accumulate(corpus)
        assert acc.scale == 1088
        assert len(acc.total_conf) == 300 and len(acc.pair_conf) > 10_000
        assert_matches_fraction_reference(corpus, acc)


class MiningReference:
    """`MiningAccumulator` as it was before the NumPy fold, kept as its
    reference: a Python loop over every candidate and every pair of a box,
    adding ints at the same scale."""

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

    def add(self, record):
        ids, labels, totals, pairs = self._ids, self._labels, self._totals, self._pairs
        scale = self.scale
        for bx in record.boxes:
            cands = []
            for label, conf in bx.candidates:
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
                    key = ia << 32 | ib if ia < ib else ib << 32 | ia
                    pairs[key] = pairs.get(key, 0) + ca + cb
        self.records_seen += 1

    @property
    def total_conf(self):
        return dict(zip(self._labels, self._totals))

    @property
    def pair_conf(self):
        labels = self._labels
        return {tuple(sorted((labels[key >> 32], labels[key & (1 << 32) - 1]))): num
                for key, num in self._pairs.items()}

    def finalize(self):
        labels, totals = self._labels, self._totals
        table = PairTable()
        for key, num in self._pairs.items():
            lo, hi = key >> 32, key & (1 << 32) - 1
            table.add(labels[lo], labels[hi], num / (totals[lo] + totals[hi]))
        return table


def reference_sums(corpus):
    ref = MiningReference()
    for rec in corpus:
        ref.add(rec)
    return ref


# label classes of confidences, as in tools/outputs_unchanged.py: plain,
# subnormal, tiny and huge, up to the largest double
CONF_CLASSES = [
    [0.05, 0.25, 0.5, 0.87, 1.0],
    [5e-324, 1e-323, 2.5e-323, 2.2250738585072014e-308],
    [2.0 ** -70, 1e-300, 3e-300],
    [3.0, 1e308, 1.7976931348623157e308],
]


def reference_corpus(rng, n_records=40, n_labels=20):
    """Records of 1-3 boxes of 0 to 12 candidates. The first third's
    confidences are plain, so the sums start at scale 64 and rise part way;
    the rest draw from every class or from any double."""
    labels = [f"label {n}" for n in range(n_labels)]
    corpus = []
    for n in range(n_records):
        boxes = []
        for b in range(rng.randint(1, 3)):
            cands = []
            for label in rng.sample(labels, rng.choice([0, 1, 1, 2, 3, 4, 12])):
                if n < n_records // 3:
                    conf = rng.choice([rng.uniform(0.05, 1.0), *CONF_CLASSES[0]])
                elif rng.random() < 0.5:
                    conf = rng.choice(rng.choice(CONF_CLASSES))
                else:
                    conf = wide_conf(rng)
                cands.append((label, conf))
            boxes.append(BoundingBox(f"b{b}", tuple(cands)))
        corpus.append(DetectionRecord(f"i{n}", tuple(boxes)))
    return corpus


def assert_same_as_reference(acc, ref, tmp_path):
    """`acc`'s scale, exact sums, finalized table and written table against
    those of the reference `ref`."""
    assert acc.scale == ref.scale
    for got, want in ((acc.pair_conf, ref.pair_conf), (acc.total_conf, ref.total_conf)):
        assert {key: Fraction(num, 1 << acc.scale) for key, num in got.items()} == \
            {key: Fraction(num, 1 << ref.scale) for key, num in want.items()}
    table, want = finalize(acc), ref.finalize()
    assert table == want
    assert [(a, b, s.hex()) for a, b, s in table.pairs()] == \
        [(a, b, s.hex()) for a, b, s in want.pairs()]
    write_vsim_tsv(table, tmp_path / "got.tsv")
    write_vsim_tsv(want, tmp_path / "want.tsv")
    assert (tmp_path / "got.tsv").read_bytes() == (tmp_path / "want.tsv").read_bytes()


class TestFoldOracle:
    """The chunked NumPy fold against `MiningReference` on seeded corpora,
    with a chunk bound so small that the scale rises between chunks and a
    box of 12 candidates (66 pairs) spans ten pair slices."""

    def test_matches_reference(self, monkeypatch, tmp_path):
        monkeypatch.setattr(vsim, "CHUNK_BOUND", 7)
        rng = random.Random("mining-fold")
        for _ in range(10):
            corpus = reference_corpus(rng)
            ref = reference_sums(corpus)
            acc = vsim.MiningAccumulator()
            scales = []
            for rec in corpus:
                acc.add(rec)
                scales.append(acc.scale)
            acc.flush()
            assert scales[0] == 64 < scales[-1] == ref.scale
            assert any(len(bx.candidates) == 12 for rec in corpus for bx in rec.boxes)
            assert acc.records_seen == ref.records_seen == len(corpus)
            assert_same_as_reference(acc, ref, tmp_path)
            shuffled = corpus[:]
            rng.shuffle(shuffled)
            assert_same_as_reference(accumulate(shuffled), ref, tmp_path)

    def test_empty_and_single_candidate_boxes(self, tmp_path):
        corpus = [record("i1", BoundingBox("b1", ()), box("b2", a=5e-324)),
                  record("i2", box("b1", a=1.7976931348623157e308, b=0.5))]
        for part in (corpus[:1], corpus):
            assert_same_as_reference(accumulate(part), reference_sums(part), tmp_path)


class TestCarries:
    def test_sums_past_the_float64_range_stay_exact(self, monkeypatch, tmp_path):
        """Over 2^21 copies of the largest double go into x's and z's sums:
        a sum of their 32-bit limbs passes 2^53, which no float64 sum holds
        exactly."""
        monkeypatch.setattr(vsim, "CHUNK_BOUND", 1 << 16)
        top = 1.7976931348623157e308  # (2^53 - 1) * 2^971: limbs of 2^32 - 2^11 and 2^32 - 1
        rec = DetectionRecord("i", tuple(
            BoundingBox(f"b{b}", (("x", top), ("y", 1.0), ("z", top))) for b in range(64)))
        times = (1 << 15) + 1
        assert 64 * times * ((1 << 32) - (1 << 11)) > 1 << 53
        acc = accumulate(repeat(rec, times))
        assert not acc._cands and not acc._sizes  # nothing left to fold
        ref = reference_sums([rec])
        assert acc.scale == ref.scale == 64
        assert acc.total_conf == {label: num * times for label, num in ref.total_conf.items()}
        assert acc.pair_conf == {pair: num * times for pair, num in ref.pair_conf.items()}

        def no_folding(conf):
            raise AssertionError("finalize folded a chunk")

        monkeypatch.setattr(vsim, "_binary", no_folding)
        assert finalize(acc) == ref.finalize()

    @pytest.mark.parametrize("chunk_bound", [100, 1 << 30])
    def test_sums_that_outgrow_their_values_limbs(self, monkeypatch, chunk_bound):
        """(2^53 - 1) / 2 is n << 63 in units of 2^-64: its top 32-bit limb
        holds n >> 33, nearly 2^20. 5,000 of them carry into the limb above,
        which no one value reaches, folded in chunks of at most 100 candidates
        or all in one chunk."""
        monkeypatch.setattr(vsim, "CHUNK_BOUND", chunk_bound)
        conf = (2.0 ** 53 - 1) / 2
        corpus = [record(f"i{n}", box("b", x=conf, y=conf), box("c", x=conf, z=0.25))
                  for n in range(2500)]
        acc, ref = accumulate(corpus), reference_sums(corpus)
        assert ref.total_conf["x"] >> 128  # past the values' four limbs
        assert acc.total_conf == ref.total_conf and acc.pair_conf == ref.pair_conf
        assert finalize(acc) == ref.finalize()


def similar_set(table, label, tau_s):
    """The similar labels of a box that detected only `label`, checked
    against the reference."""
    cands = visual_candidates(box("b", **{label: 0.5}), table, tau_s)
    got = {c.label for c in cands if c.origin is Origin.SIMILAR}
    assert got == similar_set_reference(table, label, tau_s)
    return got


class TestSimilarSet:
    table = PairTable({("a", "b"): 0.67, ("a", "c"): 0.1})

    def test_threshold_filters(self):
        assert similar_set(self.table, "a", 0.5) == {"b"}

    def test_low_threshold_keeps_both(self):
        assert similar_set(self.table, "a", 0.05) == {"b", "c"}

    def test_unknown_label_empty(self):
        assert similar_set(self.table, "z", 0.5) == set()


# confidences from the smallest subnormal to near the largest double
WIDE_CONFS = st.one_of(
    st.sampled_from([5e-324, 1e-323, 2.2250738585072014e-308, 1.0, 1e308]),
    st.floats(min_value=5e-324, max_value=1e-300),
    st.floats(min_value=5e-324, max_value=1e308),
)


@st.composite
def corpora(draw, confs=st.floats(0.05, 1.0, allow_nan=False)):
    labels = ["a", "b", "c", "d", "e"]
    n_records = draw(st.integers(0, 6))
    out = []
    for n in range(n_records):
        n_boxes = draw(st.integers(1, 3))
        boxes = []
        for b in range(n_boxes):
            cands = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4,
                                  unique=True))
            drawn = [draw(confs) for _ in cands]
            boxes.append(BoundingBox(
                box_id=f"b{b}", candidates=tuple(zip(cands, drawn))
            ))
        out.append(DetectionRecord(image_id=f"i{n}", boxes=tuple(boxes)))
    return out


class TestProperties:
    @given(corpora())
    @settings(max_examples=60, deadline=None)
    def test_scores_in_unit_interval_and_symmetric(self, corpus):
        table = finalize(accumulate(corpus))
        for a, b, score in table.pairs():
            assert 0.0 <= score <= 1.0
            assert table.get(a, b) == table.get(b, a)

    @given(corpora(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_record_order_irrelevant(self, corpus, rng):
        shuffled = corpus[:]
        rng.shuffle(shuffled)
        ordered, permuted = accumulate(corpus), accumulate(shuffled)
        assert ordered.pair_conf == permuted.pair_conf
        assert ordered.total_conf == permuted.total_conf
        assert finalize(ordered) == finalize(permuted)

    @given(corpora(WIDE_CONFS))
    @settings(max_examples=100, deadline=None)
    def test_sums_and_scores_match_fraction_reference(self, corpus):
        pair, total = fraction_sums(corpus)
        acc = accumulate(corpus)
        unit = 1 << acc.scale  # the accumulator's own unit, 2^-scale
        assert acc.pair_conf == {key: value * unit for key, value in pair.items()}
        assert acc.total_conf == {label: value * unit for label, value in total.items()}
        expected = {(a, b): float(value / (total[a] + total[b]))
                    for (a, b), value in pair.items()}
        got = {(a, b): score for a, b, score in finalize(acc).pairs()}
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}


class TestSerialization:
    def test_tsv_round_trip(self, tmp_path):
        table = PairTable({("mail train", "commuter train"): 0.91, ("cattle", "horse"): 0.76})
        path = tmp_path / "vsim.tsv"
        write_vsim_tsv(table, path)
        lines = path.read_text().splitlines()
        assert lines == [
            "cattle\thorse\t0.760000",
            "commuter train\tmail train\t0.910000",
        ]
        back = read_vsim_tsv(path)
        assert back.get("commuter train", "mail train") == pytest.approx(0.91)

    def test_read_rejects_bad_score(self, tmp_path):
        path = tmp_path / "vsim.tsv"
        path.write_text("a\tb\t1.5\n")
        with pytest.raises(LoadError):
            read_vsim_tsv(path)

    @pytest.mark.parametrize("row, message", [
        ("b\ta\t0.5", "duplicate pair ('a', 'b')"),  # the first row's pair, either order
        ("a\tb\t0.5", "duplicate pair ('a', 'b')"),
        ("c\tc\t0.5", "self-pair 'c'"),
        ("a\tc\t-0.1", "outside [0, 1]"),
        ("a\tc\tnan", "outside [0, 1]"),
        ("a\tc\thigh", "could not convert"),
    ])
    def test_read_rejects_bad_row_naming_its_line(self, tmp_path, row, message):
        path = tmp_path / "vsim.tsv"
        path.write_text(f"a\tb\t0.25\n{row}\n")
        with pytest.raises(LoadError) as err:
            read_vsim_tsv(path)
        assert err.value.line == 2
        assert message in str(err.value)

    def test_corpus_reader_skips_bad_lines(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        good = {"image": "i1", "boxes": [{"id": "b", "candidates": [{"label": "a", "conf": 0.5}]}]}
        path.write_text(json.dumps(good) + "\nnot json\n" + json.dumps(good) + "\n")
        records, skipped, warnings = read_both(path)
        assert len(records) == 1  # second good line is a duplicate image id
        assert skipped == 2
        assert warnings == [f"{path}:2 skipped: Expecting value: line 1 column 1 (char 0)",
                            f"{path}:3 skipped: duplicate image id 'i1'"]

    @pytest.mark.parametrize("label", [7, None, True, ["a"]])
    def test_corpus_reader_skips_a_label_that_is_not_a_string(self, tmp_path, label):
        path = tmp_path / "corpus.jsonl"
        lines = [{"image": image, "boxes": [{"id": "b", "candidates": [
            {"label": "a", "conf": 0.5}, {"label": text, "conf": 0.5}]}]}
            for image, text in (("i1", label), ("i2", "b"))]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        records, skipped, warnings = read_both(path)
        assert [r.image_id for r in records] == ["i2"] and skipped == 1
        assert warnings == [
            f"{path}:1 skipped: malformed detection record: expected a string, got {label!r}"]

    def test_corpus_reader_skips_a_confidence_past_the_doubles(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [{"image": image, "boxes": [{"id": "b", "candidates": [
            {"label": "a", "conf": 0.5}, {"label": "b", "conf": conf}]}]}
            for image, conf in (("i1", int("1" + "0" * 400)), ("i2", 2))]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        records, skipped, warnings = read_both(path)
        assert [r.image_id for r in records] == ["i2"] and skipped == 1
        assert records[0].boxes[0].candidates == (("a", 0.5), ("b", 2.0))
        assert warnings == [
            f"{path}:1 skipped: malformed detection record: int too large to convert to float"]

    @pytest.mark.parametrize("field", ["boxes", "candidates"])
    @pytest.mark.parametrize("value", [{}, "", "xy", None, 0, {"b": []}])
    def test_corpus_reader_skips_boxes_or_candidates_that_are_not_a_list(
            self, tmp_path, field, value):
        path = tmp_path / "corpus.jsonl"
        bad = ({"image": "i1", "boxes": value} if field == "boxes" else
               {"image": "i1", "boxes": [{"id": "b", "candidates": value}]})
        good = {"image": "i2", "boxes": [{"id": "b", "candidates": [{"label": "a", "conf": 0.5}]}]}
        path.write_text(json.dumps(bad) + "\n" + json.dumps(good) + "\n")
        records, skipped, warnings = read_both(path)
        assert [r.image_id for r in records] == ["i2"] and skipped == 1
        assert warnings == [f"{path}:1 skipped: malformed detection record: "
                            f"expected a list of {field}, got {value!r}"]

    def test_corpus_reader_reads_missing_boxes_and_candidates_as_empty(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        lines = [{"image": "i1"}, {"image": "i2", "boxes": [{"id": "b"}]},
                 {"image": "i3", "boxes": [{"id": "b", "candidates": []}]}]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        records, skipped, _ = read_both(path)
        assert skipped == 0
        assert records == [record("i1"), record("i2", box("b")), record("i3", box("b"))]

    def test_corpus_reader_shares_one_string_per_label(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        spellings = ["Dog", "dog", " dog ", "cat", "CAT", "dog"]
        path.write_text("".join(
            json.dumps({"image": f"i{n}", "boxes": [{"id": "b", "candidates": [
                {"label": text, "conf": 0.5}, {"label": "Bird", "conf": 0.25}]}]}) + "\n"
            for n, text in enumerate(spellings)))
        records, skipped, _ = read_both(path)
        assert skipped == 0
        labels = [label for r in records for bx in r.boxes for label in bx.labels()]
        assert sorted(set(labels)) == ["bird", "cat", "dog"]
        assert len({id(label) for label in labels}) == 3
        for obj in (records[0], records[0].boxes[0]):
            assert not hasattr(obj, "__dict__")

    def test_corpus_reader_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            read_both(tmp_path / "nope.jsonl")


# canonical labels, one of which no UTF-8 output can hold, and spellings of them
WALK_LABELS = ["a", "b", "dog", "tennis ball", "\u00fcber", "x\ud800"]
WALK_CONFS = [0.5, 0.25, 1.0, 1e308, 5e-324, 2.0 ** -70, 3]
BAD_CONFS = [0, 0.0, -1.0, math.nan, math.inf, -math.inf]


def spelling(rng, label):
    return rng.choice([label, label.upper(), f" {label} ", label.replace(" ", "  ")])


def walk_record(rng, n):
    """(a corpus line, the DetectionRecord it stands for, or the message of
    the ValueError that building that record raises). About half the
    records break one or more invariants."""
    image_id = f"i{n}\ud800" if rng.random() < 0.08 else f"i{n}"
    boxes, json_boxes = [], []
    for b in range(rng.randint(0, 3)):
        box_id = rng.choice([f"b{b}"] * 12 + ["b0", f"b{b}\udc00"])
        cands, json_cands = [], []
        for _ in range(rng.choice([0, 1, 2, 3, 4, 6])):
            label = rng.choice(WALK_LABELS[:-1] * 8 + WALK_LABELS[-1:])
            conf = rng.choice(WALK_CONFS * 12 + BAD_CONFS)
            cands.append((label, float(conf)))
            json_cands.append({"label": spelling(rng, label), "conf": conf})
        boxes.append(BoundingBox(box_id, tuple(cands)))
        json_boxes.append({"id": box_id, "candidates": json_cands})
    line = json.dumps({"image": image_id, "boxes": json_boxes})
    try:
        return line, DetectionRecord(image_id, tuple(boxes))
    except ValueError as exc:
        return line, str(exc)


class TestCorpusWalk:
    """`read_detections_jsonl` reads each line in one walk that also tests
    the record invariants; a line that breaks one is built as a
    `DetectionRecord`, whose `__post_init__` raises the message."""

    def test_walk_accepts_and_rejects_what_post_init_does(self, tmp_path):
        rng = random.Random("corpus-walk")
        path = tmp_path / "corpus.jsonl"
        for _ in range(10):
            drawn = [walk_record(rng, n) for n in range(60)]
            path.write_text("".join(line + "\n" for line, _ in drawn))
            canon = vsim._CorpusLabels()
            for line, want in drawn:
                # sound exactly when the record keeps every invariant
                assert vsim._walk(json.loads(line), canon)[3] == isinstance(want, DetectionRecord)
            records, skipped, warnings = read_both(path)
            assert records == [want for _, want in drawn if isinstance(want, DetectionRecord)]
            assert warnings == [f"{path}:{n} skipped: {want}"
                                for n, (_, want) in enumerate(drawn, 1) if isinstance(want, str)]
            assert 10 < skipped < 50
        # every kind of fault was drawn, and in two orders within a box
        kinds = {"surrogates not allowed", "duplicate box id", "non-positive confidence",
                 "duplicate candidate label"}
        assert all(any(kind in w for w in warnings) for kind in kinds)

    # lines the reader skips for their types or their JSON
    PARSE_FAULTS = [
        "{broken", "[1]", "null", '{"boxes": []}', '{"image": 7}',
        '{"image": "p", "boxes": [{"id": "b", "candidates": [{"label": "a", "conf": "1"}]}]}',
        '{"image": "p", "boxes": [{"candidates": [{"label": "a", "conf": 0.5}]}]}',
        '{"image": "p\\ud800", "boxes": [{"id": "b", "candidates": '
        '[{"label": "a", "conf": 0.0}, {"label": 7, "conf": 0.5}]}]}',
        '{"image": "p", "boxes": {}}', '  {"image": "p", "boxes": [] } x',
        '{"image": "p", "boxes": []} {}',
    ]

    def valid_line(self, rng, image, n_boxes, n_cands, bad=None):
        """A line of `n_boxes` boxes of `n_cands` candidates (draws of the
        two callables); `bad` is the confidence of the last one, if given."""
        labels = [f"label {n}" for n in range(24)] + WALK_LABELS[:5]
        boxes = [{"id": f"b{b}", "candidates": [
            {"label": label, "conf": rng.choice(rng.choice(CONF_CLASSES))}
            for label in rng.sample(labels, n_cands())]} for b in range(n_boxes())]
        if bad is not None:
            boxes[-1]["candidates"][-1]["conf"] = bad
        return json.dumps({"image": image, "boxes": boxes})

    def valid_lines(self, rng, n_records):
        return [self.valid_line(rng, f"i{n}", lambda: rng.randint(1, 3),
                                lambda: rng.randint(0, 5)) for n in range(n_records)]

    def fault_lines(self, rng, n_lines):
        """Faulty lines, among them records of 15 candidates over 3 boxes
        and of one box of 20 candidates, whose one fault is their last
        candidate; and comment and blank lines."""
        lines = [self.valid_line(rng, "straddle", lambda: 3, lambda: 5, rng.choice(BAD_CONFS)),
                 self.valid_line(rng, "big", lambda: 1, lambda: 20, -1.0)]
        while len(lines) < n_lines:
            pick = rng.random()
            if pick < 0.3:
                lines.append(rng.choice(self.PARSE_FAULTS))
            elif pick < 0.4:
                lines.append(rng.choice(["", "# comment", "  # indented"]))
            elif pick < 0.5:
                lines.append(json.dumps({"image": "i0"}))  # a repeat, after the first line
            else:
                line, want = walk_record(rng, 10_000 + len(lines))
                if isinstance(want, str):
                    lines.append(line)
        return lines

    def faulty_corpus(self, rng, n_records=80):
        """Valid records, one of a box of 20 candidates, with the lines of
        `fault_lines` spread among them."""
        lines = self.valid_lines(rng, n_records)
        lines.append(self.valid_line(rng, "big", lambda: 1, lambda: 20))
        for fault in self.fault_lines(rng, 20):
            lines.insert(rng.randrange(1, len(lines) + 1), fault)
        return lines

    def test_fold_matches_list_path_on_faulty_corpora(self, monkeypatch, tmp_path):
        monkeypatch.setattr(vsim, "CHUNK_BOUND", 16)
        rng = random.Random("faulty-corpora")
        path = tmp_path / "corpus.jsonl"
        for _ in range(8):
            path.write_text("".join(line + "\n" for line in self.faulty_corpus(rng)))
            records, skipped, warnings = read_both(path)  # sums, scale and warnings
            assert skipped == len(warnings) > 5
            assert records[0].image_id == "i0"
            assert any(len(bx.candidates) == 20 for r in records for bx in r.boxes)
            assert any("'straddle' box 'b2': non-positive" in w for w in warnings)
            assert any("'big' box 'b0': non-positive confidence -1.0" in w for w in warnings)

    def test_a_skipped_line_folds_nothing(self, monkeypatch, tmp_path):
        monkeypatch.setattr(vsim, "CHUNK_BOUND", 16)
        rng = random.Random("skipped-lines")
        lines = self.valid_lines(rng, 60)
        faults = [line for line in self.fault_lines(rng, 40) if line.strip()[:1] not in ("", "#")]
        path = tmp_path / "corpus.jsonl"

        def fold(corpus):
            path.write_text("".join(line + "\n" for line in corpus))
            acc = vsim.MiningAccumulator()
            _, skipped = read_detections_jsonl(path, into=acc)
            return acc, skipped

        want, _ = fold(lines)
        for fault in faults:
            at = rng.randrange(1, len(lines) + 1)
            acc, skipped = fold([*lines[:at], fault, *lines[at:]])
            assert skipped == 1, fault
            # the same chunk buffered, and the same sums folded in before it
            assert (acc._cands, acc._sizes, acc._pairs) == (want._cands, want._sizes, want._pairs)
            assert acc.records_seen == want.records_seen
            assert list(acc._ids) == list(want._ids)
            assert (acc._keys == want._keys).all()
            assert acc._sums.tolist() == want._sums.tolist()
            assert acc._totals.tolist() == want._totals.tolist()
            assert acc.scale == want.scale
