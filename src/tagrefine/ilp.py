"""Exact joint label selection as a 0-1 integer linear program.

Variables:

* ``X_i_j`` -- box ``i`` takes its visual candidate ``j`` (at most one per box);
* ``Y_k``   -- the image takes abstract candidate ``k`` (at most five);
* ``Z_i_j_m_k = X_i_j * X_m_k`` for boxes ``i < m`` -- cross-box coherence;
* ``W_i_j_k = X_i_j * Y_k``                         -- visual/abstract coherence.

The objective is a nonnegative-weighted sum of unary evidence on X plus
coherence rewards on Z and W. Because every coefficient is nonnegative, Z
and W equal their defining products at any optimum, so the exact search
runs over X and Y only: depth-first branch and bound over per-box choices
(including "no label"), with an exact closed-form completion of the
abstract subset at each leaf.

The instance holds its coefficients as dense per-box arrays, zero-padded to
the widest box: the unaries, and per box its Z rows against every later box
and its W rows against every abstract candidate. `build_instance` reads them
as blocks of the image's srel table, and the instance's `z` and `w` list the
nonzero terms by variable, for the LP dump. `solve_exact` searches the
arrays as they are and carries its state down the search: the unary + Z
value of the boxes decided so far, what each candidate of every later box
would add to it, and the running gain of every abstract candidate. A node is
cut when its budget-aware bound -- the best split of the labels still
allowed between the remaining boxes and the capped abstract subset -- falls
below the incumbent. When v more boxes are labelled, a box can add at most
its carried value plus half its v - 1 best partners among the remaining
boxes (each pair is shared by its two ends), and an abstract candidate at
most its current gain plus its best W on v of the remaining boxes. At a leaf
the bound is the carried objective itself, so only leaves that could still
be best pay for the canonical `objective_value` and the tie-break key. (This
is MAP inference with a cardinality constraint, solved by depth-first branch
and bound; see Marinescu & Dechter, AIJ 2009.)

Ties are broken by preferring the lexicographically smallest chosen-label
multiset, then fewer labels, then labeling earlier boxes. `brute_force`
enumerates every feasible assignment under the same tie-break and is the
testing oracle for `solve_exact`.

Both answer in the indices they search: per box the index of its chosen
candidate, and the chosen abstract indices. `extract_labels` attaches the
labels and their spaces once, at the end.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .candidates import CandidateSets
from .errors import ConfigError, ContractViolation, InstanceTooLarge
from .labels import GLOBAL_BOX, SPACE_OF_ORIGIN, Space
from .relatedness import SrelTable
from .scoring import MAX_ABSTRACT_LABELS, Hyperparameters, SrelFn

BRUTE_FORCE_MAX_STATES = 10_000_000
_PRUNE_EPS = 1e-9


@dataclass(eq=False)
class IlpInstance:
    box_labels: tuple[tuple[str, ...], ...]   # candidate labels per box
    unary: np.ndarray                          # (n, width): alpha * (vconf + kappa * gconf)
    abstract_labels: tuple[str, ...]
    zrows: list[np.ndarray]  # zrows[i][j, m - i - 1, k]: Z of (i, j) with (m, k), m > i
    wrows: list[np.ndarray]  # wrows[i][j, k]: W of (i, j) with abstract k
    budget: int | None
    visual_cap: int | None                     # selected-visual bound (80% variant)
    max_abstract: ClassVar[int] = MAX_ABSTRACT_LABELS

    def __post_init__(self):
        coeffs = np.concatenate([a.ravel() for a in (self.unary, *self.zrows, *self.wrows)])
        ok = (coeffs >= 0) & np.isfinite(coeffs)  # NaN fails both
        if not ok.all():
            c = float(coeffs[ok.argmin()])
            raise ContractViolation(f"objective coefficient {c!r} not finite nonnegative")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1 or none, got {self.budget!r}")

    @cached_property
    def z(self) -> dict[tuple[int, int, int, int], float]:
        """The nonzero Z coefficients by (i, j, m, k), in sorted key order."""
        return {(i, j, i + 1 + p, k): float(rows[j, p, k])
                for i, rows in enumerate(self.zrows)
                for j, p, k in np.argwhere(rows).tolist()}

    @cached_property
    def w(self) -> dict[tuple[int, int, int], float]:
        """The nonzero W coefficients by (i, j, k), in sorted key order."""
        return {(i, j, k): float(rows[j, k])
                for i, rows in enumerate(self.wrows)
                for j, k in np.argwhere(rows).tolist()}

    @property
    def n_boxes(self) -> int:
        return len(self.box_labels)

    @property
    def n_abstract(self) -> int:
        return len(self.abstract_labels)

    def search_states(self) -> float:
        states = 1.0
        for labels in self.box_labels:
            states *= 1 + len(labels)
        return states * (2.0 ** self.n_abstract)


@dataclass
class Assignment:
    choice: tuple[int | None, ...]  # per box, its chosen candidate (None = unlabeled)
    abstract: tuple[int, ...]       # chosen abstract candidates, sorted
    objective_value: float


def build_instance(
    cands: CandidateSets, hp: Hyperparameters, srel_fn: SrelFn
) -> IlpInstance:
    """Assemble coefficients and bounds from a candidate space.

    Each Z block is `beta` times the srel block of two boxes' labels, and
    each W block the srel block of a box's labels against the abstract
    labels, times `gamma * cnet` per abstract candidate.
    """
    boxes = [cands.per_box[box_id] for box_id in cands.box_ids]
    box_labels = tuple(tuple(c.label for c in box) for box in boxes)
    abstract_labels = tuple(a.label for a in cands.abstract)
    n = len(boxes)
    sizes = [len(box) for box in boxes]
    width = max(sizes, default=0)

    unary = np.zeros((n, width))
    for i, box in enumerate(boxes):
        unary[i, : sizes[i]] = [hp.alpha * (c.vconf + hp.kappa * c.gconf) for c in box]
    zrows = [np.zeros((sizes[i], n - i - 1, width)) for i in range(n)]
    for i in range(n):
        for m in range(i + 1, n):
            zrows[i][:, m - i - 1, : sizes[m]] = \
                hp.beta * _srel_block(srel_fn, box_labels[i], box_labels[m])
    weights = hp.gamma * np.array([a.cnet for a in cands.abstract])
    wrows = [_srel_block(srel_fn, labels, abstract_labels) * weights for labels in box_labels]

    return IlpInstance(
        box_labels=box_labels,
        unary=unary,
        abstract_labels=abstract_labels,
        zrows=zrows,
        wrows=wrows,
        budget=hp.budget,
        visual_cap=math.floor(0.8 * n) if hp.visir_star else None,
    )


def _srel_block(srel_fn: SrelFn, rows: Sequence[str], cols: Sequence[str]) -> np.ndarray:
    """srel of every pair of `rows` x `cols`; a plain function is called once per pair."""
    if isinstance(srel_fn, SrelTable):
        return srel_fn.block(rows, cols)
    return np.array([[srel_fn(a, b) for b in cols] for a in rows]).reshape(len(rows), len(cols))


# --- objective and ordering ----------------------------------------------------

def objective_value(
    inst: IlpInstance, choice: Sequence[int | None], abstract: Iterable[int]
) -> float:
    """Canonical objective of a complete assignment.

    Terms are summed in one fixed order (unaries, cross-box pairs, then
    per-abstract gains) so equivalent assignments get bit-identical values
    regardless of which solver produced them.
    """
    chosen = [(i, j) for i, j in enumerate(choice) if j is not None]
    val = 0.0
    for i, j in chosen:
        val += inst.unary[i, j]
    for p, (i, j) in enumerate(chosen):
        for m, k in chosen[p + 1:]:
            val += inst.zrows[i][j, m - i - 1, k]
    gains = _abstract_gains(inst, choice)
    for k in sorted(abstract):
        val += gains[k]
    return float(val)


def _abstract_gains(inst: IlpInstance, choice: Sequence[int | None]) -> np.ndarray:
    """Per abstract candidate, its W summed over the chosen boxes in box order."""
    gains = np.zeros(inst.n_abstract)
    for i, j in enumerate(choice):
        if j is not None:
            gains += inst.wrows[i][j]
    return gains


def _assignment_key(inst, choice, abstract, obj):
    """Total order on assignments: higher objective, then the tie-break chain."""
    chosen_labels = [
        inst.box_labels[i][j] for i, j in enumerate(choice) if j is not None
    ]
    chosen_labels += [inst.abstract_labels[k] for k in abstract]
    per_box = tuple(
        (j is None, "" if j is None else inst.box_labels[i][j])
        for i, j in enumerate(choice)
    )
    return (
        -obj,
        tuple(sorted(chosen_labels)),
        len(chosen_labels),
        per_box,
        tuple(sorted(abstract)),
    )


def _abstract_allowance(inst: IlpInstance, n_vis: int) -> int:
    allowance = min(inst.max_abstract, inst.n_abstract)
    if inst.budget is not None:
        allowance = min(allowance, inst.budget - n_vis)
    return max(allowance, 0)


def _best_abstract(inst: IlpInstance, choice: Sequence[int | None], allowance: int) -> tuple[int, ...]:
    """Exact abstract completion for a fixed visual choice, tie-break aware.

    All gains are nonnegative, so the value-optimal subsets are: every
    candidate above the allowance cutoff, a lexicographic choice among
    cutoff ties, and optionally zero-gain candidates in leftover slots.
    A zero-gain label improves the tie-break multiset exactly when it sorts
    below the largest label already chosen.
    """
    if allowance <= 0 or inst.n_abstract == 0:
        return ()
    gains = [(g, k) for k, g in enumerate(_abstract_gains(inst, choice).tolist())]
    positives = sorted(
        ((g, inst.abstract_labels[k], k) for g, k in gains if g > 0.0),
        key=lambda t: (-t[0], t[1]),
    )
    chosen = [k for _, _, k in positives[:allowance]]
    slots = allowance - len(chosen)
    if slots > 0:
        merged = [inst.box_labels[i][j] for i, j in enumerate(choice) if j is not None]
        merged += [inst.abstract_labels[k] for k in chosen]
        if merged:
            top = max(merged)
            zeros = sorted(
                (inst.abstract_labels[k], k) for g, k in gains if g == 0.0
            )
            for label, k in zeros:
                if slots == 0 or label >= top:
                    break
                chosen.append(k)
                slots -= 1
    return tuple(sorted(chosen))


# --- solvers --------------------------------------------------------------------

def solve_exact(inst: IlpInstance) -> Assignment:
    """Branch and bound over per-box choices with exact abstract completion.

    Carried state, bound and leaf filter are described in the module
    docstring. The prune test is strict (`< best - eps`), so every tied
    optimum is still evaluated and the tie-break chain decides among them.
    """
    n, n_abs = inst.n_boxes, inst.n_abstract
    sizes = [len(labels) for labels in inst.box_labels]
    unary, zrows, wrows = inst.unary, inst.zrows, inst.wrows
    width = unary.shape[1]

    max_abs = min(inst.max_abstract, n_abs)
    no_limit = n + max_abs
    budget = no_limit if inst.budget is None else inst.budget
    visual_cap = no_limit if inst.visual_cap is None else inst.visual_cap

    # partner[m, j, p]: the most candidate j of box m can gain with box p
    partner = np.zeros((n, width, n))
    for i in range(n):
        for m in range(i + 1, n):
            pair = zrows[i][:, m - i - 1, : sizes[m]]
            partner[i, : sizes[i], m] = pair.max(axis=1, initial=0.0)
            partner[m, : sizes[m], i] = pair.max(axis=0, initial=0.0)
    # zshare[i][v - 1, m - i, j]: half the v - 1 best partners of candidate j
    # of box m among the other boxes i..n-1. When v of those boxes are
    # labelled, each pair between them is shared by its two ends.
    zshare = []
    for i in range(n + 1):
        most = max(min(n - i, budget, visual_cap) - 1, 0)
        among = -np.sort(-partner[i:, :, i:], axis=2)[:, :, :most]
        zshare.append(0.5 * np.concatenate(
            [np.zeros((1, n - i, width)), np.cumsum(among, axis=2).transpose(2, 0, 1)]))
    # wtop[i][v, k]: the most v of the boxes i..n-1 can add to abstract gain k
    wmax = np.array([w.max(axis=0, initial=0.0) for w in wrows]).reshape(n, n_abs)
    wtop = []
    for i in range(n + 1):
        best_first = -np.sort(-wmax[i:], axis=0)
        wtop.append(np.vstack([np.zeros(n_abs), np.cumsum(best_first, axis=0)]))

    # candidate order per box: strongest static potential first (search speed
    # only; the final answer is the key-minimal assignment regardless)
    zpot = partner.sum(axis=2)
    order = [
        sorted(range(sizes[i]), key=lambda j: (-(unary[i, j] + zpot[i, j]), j))
        for i in range(n)
    ]

    best_key: tuple | None = None
    best_obj = -math.inf
    best_choice: tuple[int | None, ...] = ()
    best_abstract: tuple[int, ...] = ()
    choice: list[int | None] = [None] * n

    def bound(i: int, value: float, n_vis: int, gains, deltas) -> float:
        """Admissible: the best split of the slots left between at most
        `n_box` remaining boxes and at most `max_abs` abstract candidates."""
        slots = budget - n_vis
        n_box = max(min(n - i, slots, visual_cap - n_vis), 0)
        split = np.zeros(n_box + 1)
        if n_box:
            pots = np.sort((deltas + zshare[i][:n_box]).max(axis=2), axis=1)[:, ::-1]
            split[1:] = np.cumsum(pots[:, :n_box], axis=1).diagonal()
        if max_abs:
            pots = np.sort(gains + wtop[i][: n_box + 1], axis=1)[:, ::-1]
            abs_top = np.cumsum(pots[:, :max_abs], axis=1)
            take = np.minimum(max_abs, slots - np.arange(n_box + 1))
            split += np.where(take > 0, abs_top[np.arange(n_box + 1), take - 1], 0.0)
        return value + float(split.max())

    def leaf(n_vis: int) -> None:
        nonlocal best_key, best_obj, best_choice, best_abstract
        abstract = _best_abstract(inst, choice, _abstract_allowance(inst, n_vis))
        obj = objective_value(inst, choice, abstract)
        key = _assignment_key(inst, choice, abstract, obj)
        if best_key is None or key < best_key:
            best_key = key
            best_obj = obj
            best_choice = tuple(choice)
            best_abstract = abstract

    def dfs(i: int, value: float, n_vis: int, gains, deltas) -> None:
        """`deltas[m - i, j]`: what candidate j of box m adds with the
        boxes decided so far (its unary plus its Z to their choices)."""
        # at a leaf the bound is the carried objective itself, up to rounding
        if bound(i, value, n_vis, gains, deltas) < best_obj - _PRUNE_EPS:
            return
        if i == n:
            leaf(n_vis)
            return
        here, later = deltas[0].tolist(), deltas[1:]
        if n_vis < budget and n_vis < visual_cap:
            for j in order[i]:
                choice[i] = j
                dfs(i + 1, value + here[j], n_vis + 1, gains + wrows[i][j],
                    later + zrows[i][j])
            choice[i] = None
        dfs(i + 1, value, n_vis, gains, later)

    dfs(0, 0.0, 0, np.zeros(n_abs), unary)
    return Assignment(best_choice, best_abstract, best_obj)


def brute_force(inst: IlpInstance) -> Assignment:
    """Exhaustive oracle: every feasible X/Y assignment, products for Z/W."""
    if inst.search_states() > BRUTE_FORCE_MAX_STATES:
        raise InstanceTooLarge(
            f"{inst.search_states():.3g} states exceed the "
            f"{BRUTE_FORCE_MAX_STATES} brute-force bound"
        )
    n = inst.n_boxes
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


def truncate_to_cap(inst: IlpInstance, a: Assignment, cap: int) -> Assignment:
    """Drop lowest-marginal labels until at most `cap` remain.

    Used when the joint budget constraint is disabled: the solver output is
    trimmed after the fact by each label's marginal objective contribution,
    recomputed after every drop. Marginal ties drop the lexicographically
    larger label.
    """
    choice, abstract = list(a.choice), list(a.abstract)
    while (sum(1 for j in choice if j is not None) + len(abstract)) > cap:
        marginals: list[tuple[float, str, str, int]] = []
        full = objective_value(inst, choice, abstract)
        for i, j in enumerate(choice):
            if j is None:
                continue
            reduced = list(choice)
            reduced[i] = None
            contribution = full - objective_value(inst, reduced, abstract)
            marginals.append((contribution, inst.box_labels[i][j], "visual", i))
        for k in abstract:
            reduced_abstract = [x for x in abstract if x != k]
            contribution = full - objective_value(inst, choice, reduced_abstract)
            marginals.append((contribution, inst.abstract_labels[k], "abstract", k))
        lowest = min(m[0] for m in marginals)
        tied = sorted((m for m in marginals if m[0] == lowest), key=lambda t: t[1])
        _, _, kind, idx = tied[-1]
        if kind == "visual":
            choice[idx] = None
        else:
            abstract.remove(idx)
    obj = objective_value(inst, choice, abstract)
    return Assignment(tuple(choice), tuple(abstract), obj)


# --- output extraction ------------------------------------------------------------

@dataclass(frozen=True)
class RefinedLabel:
    label: str
    space: Space
    box: str  # box id, or GLOBAL for abstract labels


def extract_labels(a: Assignment, cands: CandidateSets) -> list[RefinedLabel]:
    """Attach labels and spaces to a solver answer over `cands`.

    Visual labels come first in box input order, then abstract labels
    lexicographically. A `choice` whose length is not the number of boxes
    raises ValueError; more abstract labels than the cap raise
    ContractViolation.
    """
    if len(a.abstract) > MAX_ABSTRACT_LABELS:
        raise ContractViolation(
            f"{len(a.abstract)} abstract labels exceed the cap of {MAX_ABSTRACT_LABELS}"
        )
    out: list[RefinedLabel] = []
    for box_id, j in zip(cands.box_ids, a.choice, strict=True):
        if j is not None:
            cand = cands.per_box[box_id][j]
            out.append(RefinedLabel(label=cand.label, space=SPACE_OF_ORIGIN[cand.origin],
                                    box=box_id))
    for label in sorted(cands.abstract[k].label for k in a.abstract):
        out.append(RefinedLabel(label=label, space=Space.AL, box=GLOBAL_BOX))
    return out


# --- external solver dump -----------------------------------------------------------

def write_lp(inst: IlpInstance, fh) -> None:
    """Write an LP-format view of the instance, linearization triples included."""

    def fmt(c: float) -> str:
        return f"{c:.9g}"

    terms = []
    for i, labels in enumerate(inst.box_labels):
        for j, c in enumerate(inst.unary[i, : len(labels)].tolist()):
            terms.append(f"{fmt(c)} X_{i}_{j}")
    for k in range(inst.n_abstract):
        terms.append(f"0 Y_{k}")
    for (i, j, m, k), c in inst.z.items():
        terms.append(f"{fmt(c)} Z_{i}_{j}_{m}_{k}")
    for (i, j, k), c in inst.w.items():
        terms.append(f"{fmt(c)} W_{i}_{j}_{k}")

    fh.write("\\ joint label selection instance\n")
    fh.write("Maximize\n obj: " + (" + ".join(terms) if terms else "0") + "\n")
    fh.write("Subject To\n")
    for i, labels in enumerate(inst.box_labels):
        if labels:
            row = " + ".join(f"X_{i}_{j}" for j in range(len(labels)))
            fh.write(f" box_{i}: {row} <= 1\n")
    if inst.n_abstract:
        row = " + ".join(f"Y_{k}" for k in range(inst.n_abstract))
        fh.write(f" abstract_cap: {row} <= {inst.max_abstract}\n")
    x_all = [f"X_{i}_{j}" for i, labels in enumerate(inst.box_labels) for j in range(len(labels))]
    if inst.budget is not None and (x_all or inst.n_abstract):
        row = " + ".join(x_all + [f"Y_{k}" for k in range(inst.n_abstract)])
        fh.write(f" total_budget: {row} <= {inst.budget}\n")
    if inst.visual_cap is not None and x_all:
        fh.write(f" visual_cap: {' + '.join(x_all)} <= {inst.visual_cap}\n")
    for (i, j, m, k) in inst.z:
        name = f"Z_{i}_{j}_{m}_{k}"
        fh.write(f" lin_{name}_a: {name} - X_{i}_{j} <= 0\n")
        fh.write(f" lin_{name}_b: {name} - X_{m}_{k} <= 0\n")
        fh.write(f" lin_{name}_c: X_{i}_{j} + X_{m}_{k} - {name} <= 1\n")
    for (i, j, k) in inst.w:
        name = f"W_{i}_{j}_{k}"
        fh.write(f" lin_{name}_a: {name} - X_{i}_{j} <= 0\n")
        fh.write(f" lin_{name}_b: {name} - Y_{k} <= 0\n")
        fh.write(f" lin_{name}_c: X_{i}_{j} + Y_{k} - {name} <= 1\n")
    fh.write("Binaries\n")
    names = x_all + [f"Y_{k}" for k in range(inst.n_abstract)]
    names += [f"Z_{i}_{j}_{m}_{k}" for (i, j, m, k) in inst.z]
    names += [f"W_{i}_{j}_{k}" for (i, j, k) in inst.w]
    for name in names:
        fh.write(f" {name}\n")
    fh.write("End\n")
