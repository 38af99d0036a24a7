import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.errors import LoadError
from tagrefine.vsim import (
    BoundingBox,
    DetectionRecord,
    VsimTable,
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


UNIT = 1 << 1074  # a mining sum counts units of 2^-1074


def exact(value):
    """The rational number a mining sum stands for."""
    return Fraction(value, UNIT)


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
        assert exact(acc.pair_conf[("a", "b")]) == Fraction(0.6) + Fraction(0.4)
        assert float(exact(acc.pair_conf[("a", "b")])) == pytest.approx(1.0)
        assert list(acc.total_conf) == ["a", "b"]
        assert exact(acc.total_conf["a"]) == Fraction(0.6)
        assert exact(acc.total_conf["b"]) == Fraction(0.4)

    def test_two_boxes_hand_sums(self):
        acc = accumulate([
            record("i1", box("b1", a=0.6, b=0.4)),
            record("i2", box("b1", a=0.5)),
        ])
        assert exact(acc.total_conf["a"]) == Fraction(0.6) + Fraction(0.5)
        assert float(exact(acc.total_conf["a"])) == pytest.approx(1.1)
        assert exact(acc.total_conf["b"]) == Fraction(0.4)
        assert exact(acc.pair_conf[("a", "b")]) == Fraction(0.6) + Fraction(0.4)
        assert float(exact(acc.pair_conf[("a", "b")])) == pytest.approx(1.0)

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


class TestSimilarSet:
    table = VsimTable({("a", "b"): 0.67, ("a", "c"): 0.1})

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
        assert acc.pair_conf == {key: value * UNIT for key, value in pair.items()}
        assert acc.total_conf == {label: value * UNIT for label, value in total.items()}
        expected = {(a, b): float(value / (total[a] + total[b]))
                    for (a, b), value in pair.items()}
        got = {(a, b): score for a, b, score in finalize(acc).pairs()}
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}


class TestSerialization:
    def test_tsv_round_trip(self, tmp_path):
        table = VsimTable({("mail train", "commuter train"): 0.91, ("cattle", "horse"): 0.76})
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

    def test_corpus_reader_missing_file(self, tmp_path):
        with pytest.raises(LoadError):
            read_detections_jsonl(tmp_path / "nope.jsonl")
