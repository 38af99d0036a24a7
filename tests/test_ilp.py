import gc
import io
import math
import random
import weakref
from dataclasses import replace

import numpy as np
import pytest

from instgen import dense_instance, instance, random_instance
from tagrefine import ilp
from tagrefine.candidates import AbstractCandidate, CandidateSets, VisualCandidate, generate
from tagrefine.errors import ConfigError, ContractViolation, InstanceTooLarge
from tagrefine.ilp import (
    Assignment,
    brute_force,
    build_instance,
    extract_labels,
    solve_exact,
    truncate_to_cap,
    write_lp,
)
from tagrefine.labels import Origin, Space
from tagrefine.scoring import Hyperparameters


def make_candidates():
    """2 boxes x 2 candidates, 1 abstract."""
    per_box = {
        "b1": [
            VisualCandidate("cat", Origin.ORIGINAL, vconf=0.5),
            VisualCandidate("dog", Origin.SIMILAR, vconf=0.4),
        ],
        "b2": [
            VisualCandidate("sofa", Origin.ORIGINAL, vconf=0.5),
            VisualCandidate("rug", Origin.HYPERNYM, gconf=0.4),
        ],
    }
    abstract = [AbstractCandidate("cozy", cnet=2.0, aconf=2.0)]
    return CandidateSets(box_ids=("b1", "b2"), per_box=per_box, abstract=abstract)


def simple_instance(**overrides):
    base = dict(
        box_labels=(("cat",),),
        unary=((0.7,),),
        abstract_labels=(),
        z={},
        w={},
        budget=5,
        visual_cap=None,
    )
    base.update(overrides)
    return instance(**base)


def n_labels(a):
    """Visual plus abstract labels an assignment selects."""
    return sum(j is not None for j in a.choice) + len(a.abstract)


class TestBuildInstance:
    def test_variable_counts(self):
        srel = lambda a, b: 0.3
        inst = build_instance(make_candidates(), Hyperparameters(), srel)
        n_primary_vars = sum(len(labels) for labels in inst.box_labels) + inst.n_abstract
        assert n_primary_vars == 5  # 4 X + 1 Y
        assert len(inst.z) <= 4
        assert len(inst.w) <= 4
        assert all(c > 0 for c in inst.z.values())
        assert all(c > 0 for c in inst.w.values())

    def test_unary_includes_kappa_weighted_gconf(self):
        srel = lambda a, b: 0.0
        hp = Hyperparameters(alpha=2.0, kappa=3.0)
        inst = build_instance(make_candidates(), hp, srel)
        assert inst.unary[1][1] == pytest.approx(2.0 * 3.0 * 0.4)  # rug: alpha*kappa*gconf
        assert inst.unary[0][0] == pytest.approx(2.0 * 0.5)        # cat: alpha*vconf

    def test_empty_candidates(self):
        empty = CandidateSets(box_ids=(), per_box={}, abstract=[])
        inst = build_instance(empty, Hyperparameters(), lambda a, b: 1.0)
        assert sum(len(labels) for labels in inst.box_labels) + inst.n_abstract == 0

    def test_zero_weights_omit_pair_vars(self):
        hp = Hyperparameters(beta=0.0, gamma=0.0)
        inst = build_instance(make_candidates(), hp, lambda a, b: 0.9)
        assert inst.z == {} and inst.w == {}

    def test_table_and_plain_function_give_the_same_arrays(self, fixture_store,
                                                            fixture_records):
        from tagrefine.pipeline import make_relatedness

        hp = Hyperparameters()
        rel = make_relatedness(fixture_store, hp)
        for record in fixture_records:
            cands = generate(record, fixture_store, hp, rel)
            table = build_instance(cands, hp, cands.srel)
            plain = build_instance(cands, hp, rel.srel)
            for name in ("unary", "zcoef", "wcoef"):
                assert np.array_equal(getattr(table, name), getattr(plain, name)), record.image_id

    def test_z_and_w_list_the_nonzero_terms_in_key_order(self, fixture_store,
                                                         fixture_records):
        from tagrefine.pipeline import make_relatedness

        hp = Hyperparameters(beta=0.7, gamma=1.3)
        rel = make_relatedness(fixture_store, hp)
        for record in fixture_records:
            cands = generate(record, fixture_store, hp, rel)
            inst = build_instance(cands, hp, cands.srel)
            labels = inst.box_labels
            z, w = {}, {}
            for i in range(len(labels)):
                for m in range(i + 1, len(labels)):
                    for j, lj in enumerate(labels[i]):
                        for k, lk in enumerate(labels[m]):
                            coeff = hp.beta * cands.srel(lj, lk)
                            if coeff > 0.0:
                                z[(i, j, m, k)] = coeff
            for k, cand in enumerate(cands.abstract):
                for i in range(len(labels)):
                    for j, lj in enumerate(labels[i]):
                        coeff = hp.gamma * cand.cnet * cands.srel(lj, cand.label)
                        if coeff > 0.0:
                            w[(i, j, k)] = coeff
            assert z and w
            assert list(inst.z.items()) == sorted(z.items())
            assert list(inst.w.items()) == sorted(w.items())

    def test_visir_cap_five_boxes(self):
        per_box = {f"b{i}": [VisualCandidate("x", Origin.ORIGINAL, vconf=0.5)] for i in range(5)}
        cands = CandidateSets(box_ids=tuple(per_box), per_box=per_box, abstract=[])
        inst = build_instance(cands, Hyperparameters(visir_star=True), lambda a, b: 0.0)
        assert inst.visual_cap == 4

    def test_budget_below_one_rejected(self):
        with pytest.raises(ConfigError):
            simple_instance(budget=0)

    @pytest.mark.parametrize("bad", [-0.1, float("nan"), float("inf")])
    @pytest.mark.parametrize("term", ["unary", "z", "w"])
    def test_negative_coefficient_rejected(self, term, bad):
        two_boxes = dict(box_labels=(("cat",), ("dog",)), unary=((0.5,), (0.4,)),
                         abstract_labels=("cozy",))
        overrides = {
            "unary": dict(unary=((bad,),)),
            "z": dict(two_boxes, z={(0, 0, 1, 0): bad}),
            "w": dict(two_boxes, w={(1, 0, 0): bad}),
        }[term]
        with pytest.raises(ContractViolation, match=repr(bad)):
            simple_instance(**overrides)

    def test_first_bad_coefficient_is_named(self):
        unary = ((0.5, -0.0, float("inf"), float("nan"), -2.0),)
        with pytest.raises(ContractViolation, match=r"coefficient inf not finite"):
            simple_instance(box_labels=(("a", "b", "c", "d", "e"),), unary=unary)

    def test_empty_and_signed_zero_coefficients_pass(self):
        inst = simple_instance(box_labels=(("a",), ()), unary=((-0.0,), ()))
        assert inst.wcoef.size == 0 and inst.n_abstract == 0
        simple_instance(box_labels=(), unary=())


class TestLayoutCache:
    def test_layout_arrays_are_read_only_and_the_cache_bounded(self):
        width, *arrays = ilp._layout((2, 0, 3))
        box_of, slot_of, p, q = arrays
        assert width == 4
        assert list(zip(box_of.tolist(), slot_of.tolist())) == [(0, 0), (0, 1), (2, 0), (2, 1),
                                                                (2, 2)]
        assert all(box_of[p] < box_of[q]) and len(p) == 2 * 3
        assert not any(at.flags.writeable for at in arrays)
        assert ilp._layout.cache_info().maxsize == ilp.LAYOUT_CACHE
        try:
            for n in range(ilp.LAYOUT_CACHE + 5):
                ilp._layout((1,) * (n % 3) + (n,))
            assert ilp._layout.cache_info().currsize == ilp.LAYOUT_CACHE
        finally:
            ilp._layout.cache_clear()

    def test_instances_of_one_shape_share_a_layout_and_stay_apart(self):
        hp = Hyperparameters()
        first = build_instance(make_candidates(), hp, lambda a, b: 0.3)
        kept = first.zcoef.copy()
        hits = ilp._layout.cache_info().hits
        second = build_instance(make_candidates(), hp, lambda a, b: 0.6)
        assert ilp._layout.cache_info().hits == hits + 1
        assert first.zcoef.tobytes() == kept.tobytes()
        assert first.z.keys() == second.z.keys()
        assert 2 * first.zcoef.sum() == pytest.approx(second.zcoef.sum())


class TestSolveExact:
    @pytest.mark.parametrize("branching", [False, True])
    def test_instance_freed_without_the_cyclic_gc(self, branching, request):
        if branching:
            request.getfixturevalue("every_node_branches")
        inst = dense_instance(random.Random(3), 4, 3, 4)
        alive = weakref.ref(inst)
        enabled = gc.isenabled()
        gc.disable()
        try:
            solve_exact(inst)
            del inst
            assert alive() is None
        finally:
            if enabled:
                gc.enable()

    def test_empty_instance(self):
        inst = instance(box_labels=(), unary=(), abstract_labels=(),
                        z={}, w={}, budget=5, visual_cap=None)
        out = solve_exact(inst)
        assert out == Assignment((), (), 0.0)

    def test_single_improving_candidate(self):
        out = solve_exact(simple_instance())
        assert out.choice == (0,)
        assert out.objective_value == pytest.approx(0.7)

    def test_two_box_coherence_beats_unaries(self):
        inst = instance(
            box_labels=(("a", "b"), ("c", "d")),
            unary=((0.5, 0.4), (0.5, 0.4)),
            abstract_labels=(),
            z={(0, 1, 1, 1): 0.9},
            w={},
            budget=5,
            visual_cap=None,
        )
        out = solve_exact(inst)
        # brute force over all 9 combinations: b+d scores 0.4+0.4+0.9=1.7 > a+c's 1.0
        assert out.choice == (1, 1)
        assert out.objective_value == pytest.approx(1.7)
        assert out == brute_force(inst)

    def test_budget_forces_tradeoff(self):
        # one visual slot vs an abstract label worth more through coherence
        inst = instance(
            box_labels=(("a",), ("b",)),
            unary=((0.6,), (0.5,)),
            abstract_labels=("glow",),
            z={},
            w={(0, 0, 0): 2.0},
            budget=2,
            visual_cap=None,
        )
        out = solve_exact(inst)
        assert out.choice == (0, None)
        assert out.abstract == (0,)
        assert out == brute_force(inst)

    def test_visual_cap_enforced(self):
        inst = instance(
            box_labels=(("a",), ("b",)),
            unary=((0.6,), (0.5,)),
            abstract_labels=(),
            z={},
            w={},
            budget=None,
            visual_cap=1,
        )
        out = solve_exact(inst)
        assert sum(j is not None for j in out.choice) == 1
        assert out == brute_force(inst)

    def test_abstract_cap_is_five(self):
        inst = instance(
            box_labels=(("v",),),
            unary=((1.0,),),
            abstract_labels=tuple(f"a{i}" for i in range(7)),
            z={},
            w={(0, 0, k): 1.0 for k in range(7)},
            budget=None,
            visual_cap=None,
        )
        out = solve_exact(inst)
        assert len(out.abstract) == 5
        assert out == brute_force(inst)

    @staticmethod
    def check_random_instances():
        rng = random.Random(20240817)
        for _ in range(150):
            inst = random_instance(rng)
            assert solve_exact(inst) == brute_force(inst)

    @staticmethod
    def check_capped_instances():
        # up to 8 abstract candidates against the cap of 5
        rng = random.Random(5150)
        capped = 0
        for _ in range(400):
            inst = random_instance(rng, max_cands=3, max_abstract=8)
            out = solve_exact(inst)
            assert out == brute_force(inst)
            capped += len(out.abstract) == inst.max_abstract < inst.n_abstract
        assert capped >= 20

    def test_matches_oracle_on_random_instances(self):
        self.check_random_instances()

    def test_matches_oracle_on_random_instances_when_every_node_branches(
            self, every_node_branches):
        self.check_random_instances()

    def test_matches_oracle_when_the_abstract_cap_binds(self):
        self.check_capped_instances()

    def test_matches_oracle_when_the_abstract_cap_binds_and_every_node_branches(
            self, every_node_branches):
        self.check_capped_instances()

    def test_matches_oracle_when_only_the_root_branches(self, monkeypatch):
        # (L, 2L] joint choices: too many for the root to solve whole, and at
        # most L for each of its children, which have at least one box fewer
        most = ilp.WHOLE_MAX_CHOICES
        branched = 0
        real = ilp._child_bounds

        def counted(*args):
            nonlocal branched
            branched += 1
            return real(*args)

        monkeypatch.setattr(ilp, "_child_bounds", counted)
        rng = random.Random(31337)
        solved = no_abstract = 0
        while solved < 40:
            inst = random_instance(rng, max_boxes=4, max_cands=7, max_abstract=3)
            if not most < math.prod(len(labels) + 1 for labels in inst.box_labels) <= 2 * most:
                continue
            assert solve_exact(inst) == brute_force(inst)
            solved += 1
            no_abstract += inst.n_abstract == 0
        assert branched == solved
        assert no_abstract > 0

    def test_boxless_instance_takes_no_abstract_label(self):
        inst = instance(box_labels=(), unary=(), abstract_labels=("a0", "a1"),
                        z={}, w={}, budget=None, visual_cap=None)
        assert solve_exact(inst) == brute_force(inst) == Assignment((), (), 0.0)

    def test_identical_runs_bit_identical(self):
        rng = random.Random(7)
        inst = random_instance(rng)
        a, b = solve_exact(inst), solve_exact(inst)
        assert a == b
        assert a.objective_value == b.objective_value


class TestInstanceArrays:
    NAMES = ("unary", "zcoef", "wcoef")

    def test_read_only_and_left_as_they_were_by_the_solvers(self):
        rng = random.Random(17)
        for _ in range(30):
            inst = random_instance(rng, min_abstract=1)
            for name in self.NAMES:
                with pytest.raises(ValueError, match="read-only"):
                    getattr(inst, name)[0] = 1.0
            before = [getattr(inst, name).copy() for name in self.NAMES]
            truncate_to_cap(inst, solve_exact(inst), 1)
            for name, array in zip(self.NAMES, before):
                assert np.array_equal(getattr(inst, name), array), name


class TestSearchEffort:
    """Counts canonical objective evaluations, not wall time, so it repeats exactly."""

    @pytest.mark.parametrize("n_cands", [5, 10])
    def test_dense_instance_needs_few_evaluations(self, monkeypatch, n_cands):
        # 6^5 = 7776 and 11^5 = 161051 leaves; every leaf is feasible under budget 5
        inst = dense_instance(random.Random(0), 5, n_cands, 25)
        calls = 0
        real = ilp.objective_value

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(ilp, "objective_value", counted)
        out = solve_exact(inst)
        assert calls <= 100
        assert out.objective_value == real(inst, out.choice, out.abstract)

    def test_no_budget_dense_instance_effort_is_pinned(self, monkeypatch):
        # 11^6 leaves, none cut by a budget: only the bounds keep this small
        inst = replace(dense_instance(random.Random(0), 6, 10, 25), budget=None)
        calls = 0
        real = ilp.objective_value

        def counted(*args):
            nonlocal calls
            calls += 1
            return real(*args)

        monkeypatch.setattr(ilp, "objective_value", counted)
        out = solve_exact(inst)
        assert calls == 7
        assert out.objective_value.hex() == "0x1.2be0986151742p+5"
        assert out.objective_value == real(inst, out.choice, out.abstract)


class TestScalingAndMonotonicity:
    def scaled_instance(self, inst, c):
        return replace(inst, unary=c * inst.unary, zcoef=c * inst.zcoef, wcoef=c * inst.wcoef)

    def test_joint_scaling_keeps_assignment(self):
        rng = random.Random(99)
        for _ in range(30):
            inst = random_instance(rng, quantize_prob=0.0)  # continuous: no knife-edge ties
            base = solve_exact(inst)
            for c in (0.1, 3.0, 17.0):
                scaled = solve_exact(self.scaled_instance(inst, c))
                assert scaled.choice == base.choice
                assert scaled.abstract == base.abstract

    def test_monotone_retention(self):
        rng = random.Random(4242)
        kept = 0
        for _ in range(30):
            inst = random_instance(rng, quantize_prob=0.0)
            base = solve_exact(inst)
            boosted = [(i, j) for i, j in enumerate(base.choice) if j is not None]
            for i, j in boosted:
                unary = inst.unary.copy()
                unary[i, j] += 0.05
                bumped = replace(inst, unary=unary)
                out = solve_exact(bumped)
                assert out.choice[i] == j
                kept += 1
        assert kept > 0


class TestBruteForce:
    def test_size_guard(self):
        big = instance(
            box_labels=tuple(("x", "y", "z", "w", "v", "u", "t") for _ in range(12)),
            unary=tuple((0.1,) * 7 for _ in range(12)),
            abstract_labels=(),
            z={},
            w={},
            budget=None,
            visual_cap=None,
        )
        with pytest.raises(InstanceTooLarge):
            brute_force(big)


class TestExtractLabels:
    def test_empty_assignment(self):
        out = extract_labels(Assignment((None, None), (), 0.0), make_candidates())
        assert out == []

    def test_visual_then_abstract_order(self):
        a = Assignment((0, None), (0,), 1.0)
        out = extract_labels(a, make_candidates())
        assert [(r.label, r.space, r.box) for r in out] == [
            ("cat", Space.CL, "b1"),
            ("cozy", Space.AL, "GLOBAL"),
        ]

    def test_space_follows_origin(self):
        a = Assignment((1, 1), (), 1.0)
        out = extract_labels(a, make_candidates())
        assert [(r.label, r.space) for r in out] == [
            ("dog", Space.CL),   # SIMILAR -> CL
            ("rug", Space.XL),   # HYPERNYM -> XL
        ]

    def test_duplicate_label_in_two_boxes(self):
        per_box = {
            "b1": [VisualCandidate("cup", Origin.ORIGINAL, vconf=0.5)],
            "b2": [VisualCandidate("cup", Origin.ORIGINAL, vconf=0.4)],
        }
        cands = CandidateSets(box_ids=("b1", "b2"), per_box=per_box, abstract=[])
        a = Assignment((0, 0), (), 0.9)
        out = extract_labels(a, cands)
        assert [(r.label, r.box) for r in out] == [("cup", "b1"), ("cup", "b2")]

    @pytest.mark.parametrize("choice", [(0,), (0, None, None)])
    def test_choice_of_other_length_is_error(self, choice):
        with pytest.raises(ValueError):
            extract_labels(Assignment(choice, (), 0.0), make_candidates())

    def test_abstract_over_cap_is_violation(self):
        abstract = [AbstractCandidate(f"a{k}", cnet=1.0, aconf=0.0) for k in range(6)]
        cands = CandidateSets(box_ids=(), per_box={}, abstract=abstract)
        with pytest.raises(ContractViolation):
            extract_labels(Assignment((), tuple(range(6)), 0.0), cands)


class TestTruncate:
    def test_respects_cap_and_keeps_strong_labels(self):
        inst = instance(
            box_labels=(("a",), ("b",), ("c",)),
            unary=((3.0,), (2.0,), (0.1,)),
            abstract_labels=("glow",),
            z={},
            w={(0, 0, 0): 1.0},
            budget=None,
            visual_cap=None,
        )
        full = solve_exact(inst)
        assert n_labels(full) == 4
        cut = truncate_to_cap(inst, full, 2)
        assert n_labels(cut) == 2
        assert cut.choice == (0, 0, None)
        assert cut.objective_value == pytest.approx(5.0)

    def test_marginal_accounts_for_coherence(self):
        # c's unary is lower, but its pairwise tie to a outweighs b's unary
        inst = instance(
            box_labels=(("a",), ("b",), ("c",)),
            unary=((2.0,), (1.0,), (0.5,)),
            abstract_labels=(),
            z={(0, 0, 2, 0): 1.0},
            w={},
            budget=None,
            visual_cap=None,
        )
        full = solve_exact(inst)
        cut = truncate_to_cap(inst, full, 2)
        assert cut.choice == (0, None, 0)


class TestWriteLp:
    def test_format_mentions_all_variables_and_triples(self):
        inst = instance(
            box_labels=(("a",), ("b",)),
            unary=((0.6,), (0.5,)),
            abstract_labels=("glow",),
            z={(0, 0, 1, 0): 0.9},
            w={(0, 0, 0): 2.0},
            budget=3,
            visual_cap=1,
        )
        buf = io.StringIO()
        write_lp(inst, buf)
        text = buf.getvalue()
        assert "Maximize" in text and "Subject To" in text and "Binaries" in text
        assert "X_0_0" in text and "Y_0" in text
        assert "Z_0_0_1_0" in text and "W_0_0_0" in text
        # every product variable carries its three linearization rows
        assert text.count("lin_Z_0_0_1_0") == 3
        assert text.count("lin_W_0_0_0") == 3
        assert "total_budget" in text and "<= 3" in text
        assert "visual_cap" in text
        assert "abstract_cap" in text


class TestPipelineConstraintsOnFixture:
    def test_full_image_solution_feasible(self, fixture_store, fixture_records):
        from tagrefine.pipeline import make_relatedness

        hp = Hyperparameters()
        rel = make_relatedness(fixture_store, hp)
        for record in fixture_records:
            cands = generate(record, fixture_store, hp, rel.srel)
            inst = build_instance(cands, hp, rel.srel)
            out = solve_exact(inst)
            assert n_labels(out) <= hp.budget
            assert len(out.abstract) <= 5
            assert out == brute_force(inst)
