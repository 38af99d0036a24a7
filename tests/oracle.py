"""Brute-force oracle for `ilp.solve_exact`.

`brute_force` enumerates every feasible X/Y assignment and keeps the best
under the solver's own tie-break key, so the exact solver can be checked
against it on small instances.
"""

import itertools

from tagrefine.ilp import (
    Assignment,
    IlpInstance,
    _abstract_allowance,
    _assignment_key,
    objective_value,
)

BRUTE_FORCE_MAX_STATES = 10_000_000


class InstanceTooLarge(Exception):
    """The brute-force oracle refuses instances above its enumeration bound."""


def search_states(inst: IlpInstance) -> float:
    """Visual choices times abstract subsets, before any constraint."""
    states = 1.0
    for labels in inst.box_labels:
        states *= 1 + len(labels)
    return states * (2.0 ** inst.n_abstract)


def brute_force(inst: IlpInstance) -> Assignment:
    """Exhaustive oracle: every feasible X/Y assignment, products for Z/W."""
    if search_states(inst) > BRUTE_FORCE_MAX_STATES:
        raise InstanceTooLarge(
            f"{search_states(inst):.3g} states exceed the "
            f"{BRUTE_FORCE_MAX_STATES} brute-force bound"
        )
    best_key = None
    best = None

    options = [[None, *range(len(labels))] for labels in inst.box_labels]
    for choice in itertools.product(*options):
        n_vis = sum(1 for j in choice if j is not None)
        if inst.budget is not None and n_vis > inst.budget:
            continue
        if inst.visual_cap is not None and n_vis > inst.visual_cap:
            continue
        allowance = _abstract_allowance(inst, n_vis)
        for r in range(allowance + 1):
            for abstract in itertools.combinations(range(inst.n_abstract), r):
                obj = objective_value(inst, choice, abstract)
                key = _assignment_key(inst, choice, abstract, obj)
                if best_key is None or key < best_key:
                    best_key = key
                    best = Assignment(choice, abstract, obj)
    assert best is not None  # the empty assignment is always feasible
    return best
