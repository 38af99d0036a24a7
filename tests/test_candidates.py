import random

import pytest

from tagrefine.candidates import (
    AbstractCandidate,
    VisualCandidate,
    asserted_objects,
    expand_hypernyms,
    expand_similar,
    generate,
    phrase_supports,
    rank_abstract,
)
from tagrefine.errors import ConfigError
from tagrefine.knowledge import KnowledgeStore, load_assertions
from tagrefine.labels import Origin, PairTable
from tagrefine.scoring import Hyperparameters
from tagrefine.vsim import BoundingBox, DetectionRecord


def box(bid="b1", **cands):
    return BoundingBox(box_id=bid, candidates=tuple(
        (label.replace("_", " "), conf) for label, conf in cands.items()
    ))


FLAT_SREL = lambda a, b: 0.5


def generate_abstract(visual, by_subject, cap, srel_fn):
    """Abstract candidates for a set of visual labels, as `generate` ranks them."""
    supports = phrase_supports(asserted_objects(visual, by_subject))
    return rank_abstract(supports, supports.srel(srel_fn), cap)


def by_subject(tmp_path, assertions):
    """The store's subject map for (subject, relation, object, score) rows,
    read through `load_assertions`."""
    path = tmp_path / "assertions.tsv"
    path.write_text("".join("\t".join(map(str, row)) + "\n" for row in assertions),
                    encoding="utf-8")
    return load_assertions(path)


class TestExpandSimilar:
    def test_neighbors_of_original(self):
        table = PairTable({("a", "b"): 0.6})
        assert expand_similar(box(a=0.5), table, 0.5) == {"b"}

    def test_originals_subtracted(self):
        table = PairTable({("a", "b"): 0.6})
        assert expand_similar(box(a=0.5, b=0.4), table, 0.5) == set()

    def test_empty_table(self):
        assert expand_similar(box(a=0.5), PairTable(), 0.5) == set()


class TestExpandHypernyms:
    parents = {"ant": ("insect",), "bee": ("insect",), "dog": ("canine",)}

    def test_ant_generalizes_to_insect(self):
        assert expand_hypernyms({"ant"}, self.parents) == ["insect"]

    def test_empty_input(self):
        assert expand_hypernyms(set(), self.parents) == []

    def test_shared_parent_listed_once(self):
        assert expand_hypernyms({"ant", "bee"}, self.parents) == ["insect"]

    def test_parents_sorted(self):
        assert expand_hypernyms(["dog", "ant"], self.parents) == ["canine", "insect"]

    def test_parent_among_the_labels_left_out(self):
        # already an original or similar candidate of the box
        assert expand_hypernyms(["ant", "insect", "dog"], self.parents) == ["canine"]


class TestGenerateAbstract:
    def test_used_for_creates_candidate(self, tmp_path):
        assertions = [("accordion", "usedFor", "make music", 2.0)]
        out = generate_abstract({"accordion"}, by_subject(tmp_path, assertions), 10, FLAT_SREL)
        assert [c.label for c in out] == ["make music"]
        assert out[0].aconf == 1.0

    def test_has_property_creates_candidate(self, tmp_path):
        assertions = [("snake", "hasProperty", "poisonous", 9.0)]
        out = generate_abstract({"snake"}, by_subject(tmp_path, assertions), 10, FLAT_SREL)
        assert [c.label for c in out] == ["poisonous"]

    def test_no_matching_subject_is_empty(self, tmp_path):
        assertions = [("snake", "hasProperty", "poisonous", 9.0)]
        assert generate_abstract({"piano"}, by_subject(tmp_path, assertions), 10, FLAT_SREL) == []

    def test_cap_truncates_by_score_then_label(self, tmp_path):
        assertions = [
            ("x", "usedFor", "aa", 1.0),
            ("x", "usedFor", "bb", 3.0),
            ("x", "usedFor", "cc", 1.0),
        ]
        out = generate_abstract({"x"}, by_subject(tmp_path, assertions), 2, FLAT_SREL)
        assert [c.label for c in out] == ["bb", "aa"]  # tie aa/cc -> lexicographic

    def test_cap_below_one_rejected(self):
        with pytest.raises(ConfigError):
            generate_abstract({"x"}, {}, 0, FLAT_SREL)

    def test_duplicate_assertions_take_max_score(self, tmp_path):
        assertions = [
            ("x", "usedFor", "aa", 1.0),
            ("x", "hasProperty", "aa", 4.0),
        ]
        out = generate_abstract({"x"}, by_subject(tmp_path, assertions), 5, FLAT_SREL)
        assert out[0].cnet == 4.0
        assert out[0].aconf == 2.0

    def test_collision_with_visual_label_skipped(self, tmp_path):
        assertions = [("x", "usedFor", "y", 1.0)]
        assert generate_abstract({"x", "y"}, by_subject(tmp_path, assertions), 5, FLAT_SREL) == []

    def test_multiple_supports_ranked_by_best(self, tmp_path):
        assertions = [
            ("a", "usedFor", "zz", 2.0),
            ("b", "usedFor", "zz", 6.0),
            ("a", "usedFor", "yy", 5.0),
        ]
        out = generate_abstract({"a", "b"}, by_subject(tmp_path, assertions), 5, FLAT_SREL)
        # zz: cnet 6 -> max aconf 3.0; yy: cnet 5 -> 2.5
        assert [c.label for c in out] == ["zz", "yy"]
        assert out[0].aconf == 3.0

    def test_aconf_is_the_best_support(self, tmp_path):
        assertions = [("a", "usedFor", "zz", 2.0), ("b", "usedFor", "zz", 6.0)]
        srel = lambda subject, obj: {"a": 0.25, "b": 0.5}[subject]
        [cand] = generate_abstract({"a", "b"}, by_subject(tmp_path, assertions), 5, srel)
        assert cand.cnet == 6.0
        assert cand.aconf == 3.0  # b: 6 * 0.5 beats a: 6 * 0.25

    def test_zero_relatedness_gives_zero_support(self, tmp_path):
        assertions = [("snake", "hasProperty", "poisonous", 9.0)]
        out = generate_abstract({"snake"}, by_subject(tmp_path, assertions), 10, lambda a, b: 0.0)
        assert out[0].aconf == 0.0


def rank_abstract_reference(supporting, cap, srel_fn):
    """The ranking one (subject, phrase) call at a time: each phrase's
    largest cnet * srel, sorted by (-aconf, label)."""
    out = []
    for obj, scores in supporting.items():
        cnet = max(scores.values())
        out.append((obj, cnet, max(cnet * srel_fn(subject, obj) for subject in scores)))
    out.sort(key=lambda c: (-c[2], c[0]))
    return out[:cap]


def test_rank_abstract_matches_reference():
    rng = random.Random(7)
    for _ in range(300):
        subjects = [f"s{i}" for i in range(rng.randint(1, 6))]
        by_subject = {s: {f"p{rng.randrange(12)}": rng.choice([0.5, 1.0, rng.uniform(0.1, 9)])
                          for _ in range(rng.randint(0, 5))} for s in subjects}
        # a few srel levels, so that aconf ties are common
        levels = [0.0, 0.25, 0.5, 1.0, rng.random(), rng.random()]
        values = {}
        srel = lambda a, b: values.setdefault((a, b), rng.choice(levels))
        supporting = asserted_objects(subjects, by_subject)
        cap = rng.randint(1, 8)
        supports = phrase_supports(supporting)
        got = [(c.label, c.cnet, c.aconf)
               for c in rank_abstract(supports, supports.srel(srel), cap)]
        assert got == rank_abstract_reference(supporting, cap, srel)


class TestGenerate:
    def test_origin_precedence_and_scores(self):
        store = KnowledgeStore.assemble(
            parents={},
            vsim=PairTable({("dog", "wolf"): 0.6}),
        )
        record = DetectionRecord("i", (box("b1", dog=0.5),))
        sets = generate(record, store, Hyperparameters(), FLAT_SREL)
        by_label = {c.label: c for c in sets.per_box["b1"]}
        assert by_label["dog"].origin is Origin.ORIGINAL
        assert by_label["dog"].vconf == 0.5
        assert by_label["wolf"].origin is Origin.SIMILAR
        assert by_label["wolf"].vconf == pytest.approx(0.3)

    def test_hypernym_candidates_carry_gconf_only(self):
        store = KnowledgeStore.assemble(parents={"dog": ("canine",)})
        record = DetectionRecord("i", (box("b1", dog=0.5),))
        sets = generate(record, store, Hyperparameters(), FLAT_SREL)
        by_label = {c.label: c for c in sets.per_box["b1"]}
        assert by_label["canine"].origin is Origin.HYPERNYM
        assert by_label["canine"].vconf == 0.0
        assert by_label["canine"].gconf == pytest.approx(0.5)

    def test_original_beats_hypernym_origin(self):
        # "canine" detected directly in a box where it is also dog's parent
        store = KnowledgeStore.assemble(parents={"dog": ("canine",)})
        record = DetectionRecord("i", (box("b1", dog=0.5, canine=0.2),))
        sets = generate(record, store, Hyperparameters(), FLAT_SREL)
        by_label = {c.label: c for c in sets.per_box["b1"]}
        assert by_label["canine"].origin is Origin.ORIGINAL
        assert by_label["canine"].gconf == 0.0

    def test_deterministic(self, fixture_store, fixture_records):
        hp = Hyperparameters()
        a = generate(fixture_records[0], fixture_store, hp, FLAT_SREL)
        b = generate(fixture_records[0], fixture_store, hp, FLAT_SREL)
        assert a.per_box == b.per_box
        assert a.abstract == b.abstract

    def test_originals_round_trip(self, fixture_store, fixture_records):
        record = fixture_records[0]
        sets = generate(record, fixture_store, Hyperparameters(), FLAT_SREL)
        for b in record.boxes:
            originals = {c.label for c in sets.per_box[b.box_id] if c.origin is Origin.ORIGINAL}
            assert originals == set(b.labels())


class TestCandidateRecords:
    def test_build_with_keywords_and_defaults(self):
        hyper = VisualCandidate(label="rug", origin=Origin.HYPERNYM, gconf=0.4)
        assert (hyper.label, hyper.origin, hyper.vconf, hyper.gconf) == \
            ("rug", Origin.HYPERNYM, 0.0, 0.4)
        assert VisualCandidate("cat", Origin.ORIGINAL).vconf == 0.0
        assert VisualCandidate("cat", Origin.ORIGINAL, vconf=0.5) == \
            VisualCandidate(label="cat", origin=Origin.ORIGINAL, vconf=0.5, gconf=0.0)
        cozy = AbstractCandidate(label="cozy", cnet=2.0, aconf=1.5)
        assert (cozy.label, cozy.cnet, cozy.aconf) == ("cozy", 2.0, 1.5)
        with pytest.raises(TypeError):
            AbstractCandidate(label="cozy", cnet=2.0)  # aconf has no default
        with pytest.raises(AttributeError):
            cozy.aconf = 0.0  # records are immutable
