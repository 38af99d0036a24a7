import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tagrefine.candidates import visual_candidates
from tagrefine.errors import ConfigError, LoadError
from tagrefine.evaluation import (
    CONSERVATIVE,
    RELAXED,
    JudgedPool,
    evaluate_images,
    expand_gold,
    f1,
    good_labels,
    pool_spaces,
    precision,
    read_judgments_jsonl,
    recall,
    sample_params,
    tune,
)
from tagrefine.labels import Space
from tagrefine.scoring import Hyperparameters


def pool(**entries):
    return JudgedPool(image_id="i1", entries={
        label.replace("_", " "): tuple(grades) for label, grades in entries.items()
    }, pool_tag="CL")


class TestGoodLabels:
    def test_relaxed_majority(self):
        p = pool(snake=[2, 2, 1, 0, 0])
        assert good_labels(p, RELAXED) == {"snake"}  # 3 of 5 clear the bar

    def test_conservative_majority_fails(self):
        p = pool(snake=[2, 2, 1, 0, 0])
        assert good_labels(p, CONSERVATIVE) == set()  # only 2 of 5 graded 2

    def test_conservative_unanimous(self):
        p = pool(snake=[2, 2, 2])
        assert good_labels(p, CONSERVATIVE) == {"snake"}

    def test_exact_tie_is_not_good(self):
        p = pool(snake=[2, 2, 0, 0])
        assert good_labels(p, RELAXED) == set()  # 2 of 4 is not a strict majority

    @given(st.dictionaries(
        st.sampled_from(["a", "b", "c", "d"]),
        st.lists(st.sampled_from([0, 1, 2]), min_size=1, max_size=7),
        max_size=4,
    ))
    @settings(max_examples=60, deadline=None)
    def test_conservative_subset_of_relaxed(self, entries):
        p = JudgedPool("i", {k: tuple(v) for k, v in entries.items()}, "CL")
        assert good_labels(p, CONSERVATIVE) <= good_labels(p, RELAXED)

    def test_grades_validated(self):
        with pytest.raises(ConfigError):
            pool(snake=[3])
        with pytest.raises(ConfigError):
            pool(snake=[])


class TestMetrics:
    def test_precision_three_of_five(self):
        good = {"a", "b", "c"}
        assert precision(["a", "b", "c", "x", "y"], good) == pytest.approx(0.6)

    def test_precision_empty_output_convention(self):
        assert precision([], {"a"}) == 1.0

    def test_precision_all_good(self):
        assert precision(["a", "b"], {"a", "b", "c"}) == 1.0

    def test_recall_five_of_eight(self):
        good = {f"g{i}" for i in range(8)}
        system = [f"g{i}" for i in range(5)]
        assert recall(system, good) == 0.625  # capped by the label budget

    def test_recall_miss_all(self):
        assert recall(["x"], {"a", "b"}) == 0.0

    def test_recall_empty_good_set(self):
        assert recall(["x"], set()) == 1.0

    def test_f1_balanced(self):
        assert f1(0.5, 0.5) == pytest.approx(0.5)

    def test_f1_zero_precision(self):
        assert f1(0.0, 1.0) == 0.0

    def test_f1_table_value(self):
        assert f1(0.51, 0.86) == pytest.approx(0.64, abs=0.005)

    @given(st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=80, deadline=None)
    def test_f1_bounded_by_components(self, p, r):
        value = f1(p, r)
        assert 0.0 <= value <= 1.0
        assert value <= max(p, r) + 1e-12


class TestEvaluateImages:
    def make_pools(self):
        return {
            "i1": JudgedPool("i1", {"a": (2, 2, 2), "b": (0, 0, 2)}, "CL"),
            "i2": JudgedPool("i2", {"c": (2, 2, 2)}, "CL"),
        }

    def test_macro_average(self):
        system = {"i1": [("a", Space.CL)], "i2": [("x", Space.CL)]}
        p, r, f, n = evaluate_images(system, self.make_pools(), CONSERVATIVE)
        assert n == 2
        assert p == pytest.approx((1.0 + 0.0) / 2)
        assert r == pytest.approx((1.0 + 0.0) / 2)
        assert f == pytest.approx((1.0 + 0.0) / 2)

    def test_pool_space_filtering(self):
        pools = {"i1": JudgedPool("i1", {"a": (2, 2)}, "CL")}
        system = {"i1": [("a", Space.CL), ("abstractish", Space.AL)]}
        p, _, _, _ = evaluate_images(system, pools, CONSERVATIVE)
        assert p == 1.0  # the AL label is outside the CL pool and ignored

    def test_image_order_irrelevant(self):
        system = {"i1": [("a", Space.CL)], "i2": [("c", Space.CL)]}
        pools = self.make_pools()
        reversed_pools = dict(reversed(list(pools.items())))
        assert evaluate_images(system, pools, RELAXED) == evaluate_images(
            system, reversed_pools, RELAXED
        )

    def test_pool_tag_restriction_mapping(self):
        assert pool_spaces("CL") == frozenset({Space.CL})
        assert pool_spaces("CL+XL") == frozenset({Space.CL, Space.XL})
        assert pool_spaces("CL+XL+AL") == frozenset({Space.CL, Space.XL, Space.AL})
        assert pool_spaces("AGGREGATE") == frozenset({Space.CL, Space.XL, Space.AL})
        with pytest.raises(ConfigError):
            pool_spaces("XYZ")


class TestJudgmentsReader:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps({
            "image": "i1", "pool": "CL+XL",
            "labels": {"snake": [2, 2, 1, 0, 2]},
        }) + "\n")
        pools = read_judgments_jsonl(path)
        assert pools[("i1", "CL+XL")].entries["snake"] == (2, 2, 1, 0, 2)

    def test_unknown_pool_tag_rejected(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"image": "i1", "pool": "NOPE", "labels": {"a": [2]}}\n')
        with pytest.raises(LoadError):
            read_judgments_jsonl(path)


class TestExpandGold:
    def test_adds_hypernyms(self):
        parents = {"ant": ("insect",), "bee": ("insect", "worker")}
        assert expand_gold({"ant"}, parents) == {"ant", "insect"}
        assert expand_gold({"ant", "bee"}, parents) == {"ant", "bee", "insect", "worker"}


def per_trial_tune(train_set, space, trials, seed, store, base_hp):
    """The search with trials as the outer loop, each refining every image
    with a `Relatedness` of its own: the reference `tune` must match."""
    from tagrefine.pipeline import make_relatedness, refine_record

    expanded = [(record, expand_gold(gold, store.parents)) for record, gold in train_set]
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        params = sample_params(rng, space)
        hp = replace(base_hp, **params)
        rel = make_relatedness(store, hp)
        f_sum = 0.0
        for record, gold in expanded:
            refined, _ = refine_record(record, store, hp, rel=rel)
            labels = {r.label for r in refined if r.space in (Space.CL, Space.XL)}
            f_sum += f1(precision(labels, gold), recall(labels, gold))
        out.append((params, f_sum / len(expanded)))
    return out


class TestTune:
    @pytest.mark.parametrize("pinned", [False, True])
    def test_matches_per_trial_reference(self, fixture_store, fixture_records, pinned):
        golds = [{"snake", "green mamba"}, {"person", "racket", "tennis ball"},
                 {"monkey", "banana"}]
        train = list(zip(fixture_records, golds, strict=True))
        space = {name: (0.0, 2.0) for name in ("alpha", "beta", "gamma", "kappa")}
        space.update({"delta": (0.5, 0.5), "tau_s": (0.1, 0.1)} if pinned
                     else {"delta": (0.0, 1.0), "tau_s": (0.5, 0.9)})
        hp = Hyperparameters()
        _, log = tune(train, space, 8, 3, fixture_store, hp)
        want = per_trial_tune(train, space, 8, 3, fixture_store, hp)
        assert [(r.params, r.score) for r in log] == want
        if not pinned:
            # the draws must reach vsim scores on both sides of tau_s, or every
            # trial would have the same candidates
            similar = {tuple(tuple(c.label for c in visual_candidates(
                                 box, fixture_store.vsim, r.params["tau_s"]))
                             for record in fixture_records for box in record.boxes)
                       for r in log}
            assert len(similar) > 1

    def test_same_seed_same_results(self, fixture_store, fixture_records):
        train = [(fixture_records[0], {"snake", "green mamba"})]
        space = {"alpha": (0.5, 1.5)}
        hp = Hyperparameters()
        best1, log1 = tune(train, space, 3, 42, fixture_store, hp)
        best2, log2 = tune(train, space, 3, 42, fixture_store, hp)
        assert best1 == best2
        assert [(r.params, r.score) for r in log1] == [(r.params, r.score) for r in log2]

    def test_single_trial_returns_sampled_vector(self, fixture_store, fixture_records):
        train = [(fixture_records[0], {"snake"})]
        best, log = tune(train, {}, 1, 0, fixture_store, Hyperparameters())
        assert len(log) == 1
        assert best.alpha == log[0].params["alpha"]

    def test_degenerate_ranges_return_the_point(self, fixture_store, fixture_records):
        train = [(fixture_records[0], {"snake"})]
        space = {name: (1.0, 1.0) for name in ("alpha", "beta", "gamma", "kappa")}
        space.update({"delta": (0.5, 0.5), "tau_s": (0.1, 0.1)})
        best, _ = tune(train, space, 2, 9, fixture_store, Hyperparameters())
        assert (best.alpha, best.beta, best.gamma, best.kappa) == (1.0, 1.0, 1.0, 1.0)
        assert (best.delta, best.tau_s) == (0.5, 0.1)

    def test_empty_train_set_rejected(self, fixture_store):
        with pytest.raises(ConfigError):
            tune([], {}, 1, 0, fixture_store, Hyperparameters())

    def test_zero_trials_rejected(self, fixture_store, fixture_records):
        with pytest.raises(ConfigError):
            tune([(fixture_records[0], set())], {}, 0, 0, fixture_store, Hyperparameters())

    def test_tie_resolves_to_first_trial(self, fixture_store, fixture_records):
        train = [(fixture_records[0], {"snake", "green mamba"})]
        space = {name: (0.0, 0.0) for name in ("alpha", "beta", "gamma", "kappa")}
        space.update({"delta": (0.5, 0.5), "tau_s": (0.1, 0.1)})
        best, log = tune(train, space, 3, 5, fixture_store, Hyperparameters())
        assert all(r.score == log[0].score for r in log)
        assert best.alpha == log[0].params["alpha"]

    def test_sampling_uses_given_ranges(self):
        import random

        rng = random.Random(0)
        params = sample_params(rng, {"alpha": (2.0, 3.0)})
        assert 2.0 <= params["alpha"] <= 3.0
        with pytest.raises(ConfigError):
            sample_params(rng, {"alpha": (3.0, 2.0)})
