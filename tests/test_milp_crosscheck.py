"""Cross-check the exact solver against an unrelated MILP solver (HiGHS).

Builds the fully linearized 0-1 program -- X/Y/Z/W variables with the three
product-encoding inequalities per Z and W -- and compares optimal objective
values. Assignments may differ at ties (HiGHS breaks them its own way), so
only the value is compared.
"""

import random

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

from instgen import random_instance
from tagrefine.ilp import IlpInstance, solve_exact


def solve_with_milp(inst: IlpInstance) -> float:
    x_index = {}
    for i, labels in enumerate(inst.box_labels):
        for j in range(len(labels)):
            x_index[(i, j)] = len(x_index)
    y_index = {k: len(x_index) + k for k in range(inst.n_abstract)}
    z_index = {key: len(x_index) + len(y_index) + n for n, key in enumerate(sorted(inst.z))}
    w_index = {
        key: len(x_index) + len(y_index) + len(z_index) + n
        for n, key in enumerate(sorted(inst.w))
    }
    n_vars = len(x_index) + len(y_index) + len(z_index) + len(w_index)
    if n_vars == 0:
        return 0.0

    c = np.zeros(n_vars)
    for (i, j), col in x_index.items():
        c[col] = -inst.unary[i][j]  # milp minimizes
    for key, col in z_index.items():
        c[col] = -inst.z[key]
    for key, col in w_index.items():
        c[col] = -inst.w[key]

    # one (row, col, value) triple per nonzero: memory grows with the
    # nonzeros, not with rows x variables
    row_ids, col_ids, vals, upper = [], [], [], []

    def add(coeffs, hi):
        for col, val in coeffs:
            row_ids.append(len(upper))
            col_ids.append(col)
            vals.append(val)
        upper.append(hi)

    for i, labels in enumerate(inst.box_labels):
        if labels:
            add([(x_index[(i, j)], 1.0) for j in range(len(labels))], 1.0)
    if y_index:
        add([(col, 1.0) for col in y_index.values()], inst.max_abstract)
    if inst.budget is not None:
        add([(col, 1.0) for col in x_index.values()]
            + [(col, 1.0) for col in y_index.values()], inst.budget)
    if inst.visual_cap is not None and x_index:
        add([(col, 1.0) for col in x_index.values()], inst.visual_cap)
    for (i, j, m, k), col in z_index.items():
        add([(col, 1.0), (x_index[(i, j)], -1.0)], 0.0)
        add([(col, 1.0), (x_index[(m, k)], -1.0)], 0.0)
        add([(x_index[(i, j)], 1.0), (x_index[(m, k)], 1.0), (col, -1.0)], 1.0)
    for (i, j, k), col in w_index.items():
        add([(col, 1.0), (x_index[(i, j)], -1.0)], 0.0)
        add([(col, 1.0), (y_index[k], -1.0)], 0.0)
        add([(x_index[(i, j)], 1.0), (y_index[k], 1.0), (col, -1.0)], 1.0)

    a = coo_matrix((vals, (row_ids, col_ids)), shape=(len(upper), n_vars)).tocsr()
    result = milp(
        c=c,
        constraints=LinearConstraint(a, -np.inf, np.array(upper)),
        integrality=np.ones(n_vars),
        bounds=Bounds(0, 1),
    )
    assert result.success, result.message
    return -result.fun


@pytest.mark.parametrize("seed", [11, 222, 3333])
def test_objective_matches_independent_milp(seed):
    rng = random.Random(seed)
    for _ in range(15):
        inst = random_instance(rng)
        ours = solve_exact(inst).objective_value
        theirs = solve_with_milp(inst)
        assert ours == pytest.approx(theirs, abs=1e-7)


@pytest.mark.parametrize("seed", [44, 555])
def test_objective_matches_milp_with_many_abstract_candidates(seed):
    # 6-10 abstract candidates against the cap of 5
    rng = random.Random(seed)
    for _ in range(6):
        inst = random_instance(rng, max_boxes=6, max_cands=5, min_abstract=6, max_abstract=10)
        ours = solve_exact(inst).objective_value
        theirs = solve_with_milp(inst)
        assert ours == pytest.approx(theirs, abs=1e-7)
