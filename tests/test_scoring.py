from dataclasses import replace

import pytest

from candidates_reference import gconf as gconf_reference
from candidates_reference import vconf as vconf_reference
from tagrefine.candidates import (
    hypernym_children,
    phrase_supports,
    rank_abstract,
    visual_candidates,
)
from tagrefine.errors import ConfigError, ContractViolation
from tagrefine.labels import PairTable
from tagrefine.scoring import Hyperparameters, gconf
from tagrefine.vsim import BoundingBox


def box(**cands):
    return BoundingBox(box_id="b1", candidates=tuple(cands.items()))


def vconf(box, label, table, tau_s=0.1):
    """The vconf `visual_candidates` gives `label`, which must be one of the
    box's candidates; checked against the reference."""
    [got] = [c.vconf for c in visual_candidates(box, table, tau_s) if c.label == label]
    assert got == vconf_reference(box, label, table)
    return got


class TestHyperparameters:
    def test_defaults_valid(self):
        hp = Hyperparameters()
        assert hp.budget == 5 and hp.tau_s == 0.1

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigError):
            Hyperparameters(alpha=-0.1)

    def test_budget_below_one_rejected(self):
        with pytest.raises(ConfigError):
            Hyperparameters(budget=0)

    @pytest.mark.parametrize("tau_s", [0, 0.0, 1.5, -0.1])
    def test_tau_s_out_of_range_rejected(self, tau_s):
        with pytest.raises(ConfigError, match="tau_s"):
            Hyperparameters(tau_s=tau_s)
        assert Hyperparameters(tau_s=1.0).tau_s == 1.0

    def test_budget_none_allowed(self):
        assert Hyperparameters(budget=None).budget is None

    def test_scaled(self):
        hp = Hyperparameters(alpha=1.0, beta=2.0, gamma=3.0, kappa=4.0)
        hp = replace(hp, alpha=hp.alpha * 2.0, beta=hp.beta * 2.0, gamma=hp.gamma * 2.0)
        assert (hp.alpha, hp.beta, hp.gamma) == (2.0, 4.0, 6.0)
        assert hp.kappa == 4.0  # kappa is inside the alpha term, not scaled
        with pytest.raises(ConfigError):  # `replace` validates the new weights
            replace(hp, alpha=-hp.alpha)


class TestVconf:
    def test_original_label_keeps_detector_confidence(self):
        assert vconf(box(dog=0.7), "dog", PairTable()) == 0.7

    def test_similar_single_term(self):
        table = PairTable({("dog", "wolf"): 0.4})
        assert vconf(box(dog=0.5), "wolf", table) == pytest.approx(0.2)

    def test_similar_two_terms(self):
        table = PairTable({("dog", "wolf"): 0.4, ("coyote", "wolf"): 0.5})
        result = vconf(box(dog=0.5, coyote=0.3), "wolf", table)
        assert result == pytest.approx(0.35)  # 0.5*0.4 + 0.3*0.5, by hand

    def test_unrelated_label_is_contract_violation(self):
        # for the reference; the walk offers no such candidate to score
        with pytest.raises(ContractViolation):
            vconf_reference(box(dog=0.5), "piano", PairTable())
        assert [c.label for c in visual_candidates(box(dog=0.5), PairTable(), 0.1)] == ["dog"]

    def test_terms_below_tau_s_count(self):
        # wolf is similar through coyote alone, but dog's term counts too
        table = PairTable({("dog", "wolf"): 0.4, ("coyote", "wolf"): 0.5})
        assert vconf(box(dog=0.5, coyote=0.3), "wolf", table, 0.45) == pytest.approx(0.35)

    def test_monotone_in_vsim_and_conf(self):
        lo = PairTable({("dog", "wolf"): 0.3})
        hi = PairTable({("dog", "wolf"): 0.6})
        assert vconf(box(dog=0.5), "wolf", hi) > vconf(box(dog=0.5), "wolf", lo)
        assert vconf(box(dog=0.9), "wolf", lo) > vconf(box(dog=0.5), "wolf", lo)


class TestGconf:
    parents = {"ant": ("insect",), "bee": ("insect",), "dog": ("canine",)}

    def gconf(self, labels, hypernym, srel):
        """gconf over the children `hypernym_children` lists for `hypernym`,
        0 when it lists none; checked against the reference."""
        children = dict(hypernym_children(labels, self.parents)).get(hypernym, [])
        got = gconf(hypernym, children, srel)
        assert got == gconf_reference(labels, hypernym, self.parents, srel)
        return got

    def test_single_child(self):
        srel = lambda a, b: 0.6
        assert self.gconf(["ant"], "insect", srel) == pytest.approx(0.6)

    def test_two_children_sum(self):
        srel = lambda a, b: {"ant": 0.6, "bee": 0.3}[b]
        got = self.gconf(["ant", "bee"], "insect", srel)
        assert got == pytest.approx(0.9)  # 0.6 + 0.3, by hand
        assert gconf("insect", ["ant", "bee"], srel) == 0.6 + 0.3

    def test_zero_for_non_hypernym_candidates(self):
        srel = lambda a, b: 0.9
        # a label that is itself an original/similar candidate is no hypernym
        # of the box, so it scores 0
        assert self.gconf(["ant", "insect"], "insect", srel) == 0.0
        assert self.gconf(["ant"], "ant", srel) == 0.0
        assert hypernym_children(["ant", "insect"], self.parents) == []

    def test_zero_when_no_children_present(self):
        srel = lambda a, b: 0.9
        assert self.gconf(["dog"], "insect", srel) == 0.0
        assert gconf("insect", [], srel) == 0.0


def aconf(label, assertion, srel):
    """The support `rank_abstract` gives `label` for a one-assertion store.

    `assertion` is a (subject, relation, object, score) row.
    """
    subject, _, obj, score = assertion
    supports = phrase_supports({label}, {subject: {obj: score}})
    [candidate] = rank_abstract(supports, supports.srel(srel), 10)
    assert candidate.label == obj
    return candidate.aconf


class TestAconf:
    """Abstraction confidence: assertion weight times semantic relatedness."""

    def test_product(self):
        a = ("baby", "hasProperty", "newborn", 10.17)
        assert aconf("baby", a, lambda x, y: 0.5) == pytest.approx(5.085)

    def test_identity(self):
        a = ("x", "usedFor", "y", 1.0)
        assert aconf("x", a, lambda x, y: 1.0) == 1.0

    def test_nonnegative_for_valid_inputs(self):
        a = ("x", "usedFor", "y", 3.7)
        for s in (0.0, 0.25, 1.0):
            assert aconf("x", a, lambda x, y, s=s: s) >= 0.0
