import json
import math
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.errors import LoadError
from tagrefine.labels import PairTable
from tagrefine.vsim import (
    BoundingBox,
    DetectionRecord,
    accumulate,
    finalize,
    read_detections_jsonl,
    read_vsim_tsv,
    similar_set,
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


class TestSimilarSet:
    table = PairTable({("a", "b"): 0.67, ("a", "c"): 0.1})

    def test_threshold_filters(self):
        assert similar_set(self.table, "a", 0.5) == {"b"}

    def test_low_threshold_keeps_both(self):
        assert similar_set(self.table, "a", 0.05) == {"b", "c"}

    def test_unknown_label_empty(self):
        assert similar_set(self.table, "z", 0.5) == set()

    def test_tau_must_be_in_range(self):
        with pytest.raises(ValueError):
            similar_set(self.table, "a", 0.0)
        with pytest.raises(ValueError):
            similar_set(self.table, "a", 1.5)


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
        records, skipped = read_detections_jsonl(path)
        assert len(records) == 1  # second good line is a duplicate image id
        assert skipped == 2

    @pytest.mark.parametrize("label", [7, None, True, ["a"]])
    def test_corpus_reader_skips_a_label_that_is_not_a_string(self, tmp_path, caplog, label):
        path = tmp_path / "corpus.jsonl"
        lines = [{"image": image, "boxes": [{"id": "b", "candidates": [
            {"label": "a", "conf": 0.5}, {"label": text, "conf": 0.5}]}]}
            for image, text in (("i1", label), ("i2", "b"))]
        path.write_text("".join(json.dumps(line) + "\n" for line in lines))
        records, skipped = read_detections_jsonl(path)
        assert [r.image_id for r in records] == ["i2"] and skipped == 1
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}:1 skipped: malformed detection record: expected a string, got {label!r}"]

    def test_corpus_reader_shares_one_string_per_label(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        spellings = ["Dog", "dog", " dog ", "cat", "CAT", "dog"]
        path.write_text("".join(
            json.dumps({"image": f"i{n}", "boxes": [{"id": "b", "candidates": [
                {"label": text, "conf": 0.5}, {"label": "Bird", "conf": 0.25}]}]}) + "\n"
            for n, text in enumerate(spellings)))
        records, skipped = read_detections_jsonl(path)
        assert skipped == 0
        labels = [label for r in records for bx in r.boxes for label in bx.labels()]
        assert sorted(set(labels)) == ["bird", "cat", "dog"]
        assert len({id(label) for label in labels}) == 3
        for obj in (records[0], records[0].boxes[0]):
            assert not hasattr(obj, "__dict__")

    def test_corpus_reader_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            read_detections_jsonl(tmp_path / "nope.jsonl")
