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

The instance holds its coefficients as dense arrays indexed like the
variables, `unary[i, j]`, `zcoef[i, j, m, k]` (zero unless i < m) and
`wcoef[i, j, k]`, every box zero-padded to the widest box + 1: slot
`len(box_labels[i])` is box i's zero "no label" child. `build_instance`
fills them from one block of the image's srel table, and the instance's `z`
and `w` list the nonzero terms by variable, for the LP dump. `solve_exact`
reads the arrays in place and carries its state down the search: the unary +
Z value of the boxes decided so far, what each candidate of every later box
would add to it, and the running gain of every abstract candidate. A search
node is of one of two kinds.

* Once the boxes still to decide have at most `WHOLE_MAX_CHOICES` joint
  choices (or one box is left), the node solves them whole. In one pass of
  array operations it scores every joint choice: the carried value plus the
  choices' own values and the Z among them, and the best sum of abstract
  gains that the slots left allow. The gains are the carried ones plus each
  chosen W row, added box by box, so they are bit for bit those of a
  branching search. The feasible choices are then evaluated best score
  first, until a score falls below the incumbent. A small image's root is
  such a node, and its search builds no bound tables at all.
* Above that depth a node branches: it bounds all its children -- each
  candidate of its box, then "no label" -- in one vectorized call, and cuts
  a child when its budget-aware bound -- the best split of the labels still
  allowed between the remaining boxes and the capped abstract subset --
  falls below the incumbent. Each child is compared just before it is
  entered, since the incumbent improves between siblings. When v more boxes
  are labelled, a box can add at most its carried value plus half its v - 1
  best partners among the remaining boxes (each pair is shared by its two
  ends), and an abstract candidate at most its current gain plus its best W
  on v of the remaining boxes.

A choice's score is its objective up to rounding, so only choices that
could still be best pay for the canonical `objective_value` and the
tie-break key; both reuse the carried abstract gains, which are the same
sums in the same order. (This is MAP inference with a cardinality
constraint, solved by depth-first branch and bound; see Marinescu &
Dechter, AIJ 2009.)

Ties are broken by preferring the lexicographically smallest chosen-label
multiset, then fewer labels, then labeling earlier boxes.

Both answer in the indices they search: per box the index of its chosen
candidate, and the chosen abstract indices. `extract_labels` attaches the
labels and their spaces once, at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import ClassVar, Iterable, Sequence

import numpy as np

from .candidates import CandidateSets
from .errors import ConfigError, ContractViolation
from .labels import GLOBAL_BOX, SPACE_OF_ORIGIN, Space
from .relatedness import SrelTable
from .scoring import MAX_ABSTRACT_LABELS, Hyperparameters, SrelFn

# A search node with at most this many joint choices left solves them whole,
# in arrays of at most this many (or the widest box + 1) x (abstract + 1)
# floats. Measured on the benchmark's refine workloads (README, Execution
# model): 256 leaves the 3-7 box images' solves as fast as branching and
# speeds up the 1-3 box images' about 2x; 1024 slows the former.
WHOLE_MAX_CHOICES = 256
# Box-size tuples whose instance layout `build_instance` keeps. An entry
# holds 16 bytes per label pair across boxes: about 25 KiB for 7 boxes of 8
# candidates. The benchmark's images have at most 5 distinct tuples a run.
LAYOUT_CACHE = 128
_PRUNE_EPS = 1e-9


@dataclass(eq=False)
class IlpInstance:
    # The coefficient arrays are read-only, zero outside the variables, and
    # width is the widest box + 1: slot len(box_labels[i]) is "no label".
    box_labels: tuple[tuple[str, ...], ...]   # candidate labels per box
    unary: np.ndarray                          # (n, width) [i, j]: alpha * (vconf + kappa * gconf)
    abstract_labels: tuple[str, ...]
    zcoef: np.ndarray  # (n, width, n, width) [i, j, m, k]: Z of (i, j) with (m, k); 0 unless i < m
    wcoef: np.ndarray  # (n, width, n_abstract) [i, j, k]: W of (i, j) with abstract k
    budget: int | None
    visual_cap: int | None                     # selected-visual bound (80% variant)
    max_abstract: ClassVar[int] = MAX_ABSTRACT_LABELS

    def __post_init__(self):
        for coeffs in (self.unary, self.zcoef, self.wcoef):
            coeffs.setflags(write=False)  # the solver searches them in place
            # NaN fails both comparisons; only a bad array is scanned for its first bad entry
            if coeffs.size and not (coeffs.min() >= 0 and coeffs.max() < math.inf):
                c = float(coeffs[~((coeffs >= 0) & np.isfinite(coeffs))][0])
                raise ContractViolation(f"objective coefficient {c!r} not finite nonnegative")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1 or none, got {self.budget!r}")

    @cached_property
    def z(self) -> dict[tuple[int, int, int, int], float]:
        """The nonzero Z coefficients by (i, j, m, k), in sorted key order."""
        return _nonzero(self.zcoef)

    @cached_property
    def w(self) -> dict[tuple[int, int, int], float]:
        """The nonzero W coefficients by (i, j, k), in sorted key order."""
        return _nonzero(self.wcoef)

    @property
    def n_boxes(self) -> int:
        return len(self.box_labels)

    @property
    def n_abstract(self) -> int:
        return len(self.abstract_labels)


def _nonzero(coef: np.ndarray) -> dict:
    """The nonzero entries of `coef` by index, in C (sorted key) order."""
    at = np.nonzero(coef)
    return dict(zip(zip(*(a.tolist() for a in at)), coef[at].tolist()))


@dataclass
class Assignment:
    choice: tuple[int | None, ...]  # per box, its chosen candidate (None = unlabeled)
    abstract: tuple[int, ...]       # chosen abstract candidates, sorted
    objective_value: float


def build_instance(
    cands: CandidateSets, hp: Hyperparameters, srel_fn: SrelFn
) -> IlpInstance:
    """Assemble coefficients and bounds from a candidate space.

    Each Z coefficient is `beta` times the srel of two labels in boxes
    i < m, and each W coefficient the srel of a box label and an abstract
    label, times `gamma * cnet` of the abstract candidate. All of them come
    from one srel block, every visual label x (every visual label + every
    abstract label).
    """
    boxes = [cands.per_box[box_id] for box_id in cands.box_ids]
    box_labels = tuple(tuple(c.label for c in box) for box in boxes)
    abstract_labels = tuple(a.label for a in cands.abstract)
    n = len(boxes)
    width, box_of, slot_of, p, q = _layout(tuple(map(len, boxes)))
    labels = [label for row in box_labels for label in row]
    cols = labels + list(abstract_labels)
    # a plain srel function is called once per pair
    srel = srel_fn.block(labels, abstract_labels) if isinstance(srel_fn, SrelTable) else \
        np.array([[srel_fn(a, b) for b in cols] for a in labels]).reshape(len(labels), len(cols))

    unary = np.zeros((n, width))
    unary[box_of, slot_of] = [hp.alpha * (c.vconf + hp.kappa * c.gconf)
                              for box in boxes for c in box]
    zcoef = np.zeros((n, width, n, width))
    zcoef[box_of[p], slot_of[p], box_of[q], slot_of[q]] = hp.beta * srel[p, q]
    wcoef = np.zeros((n, width, len(abstract_labels)))
    weights = hp.gamma * np.array([a.cnet for a in cands.abstract])
    wcoef[box_of, slot_of] = srel[:, len(labels):] * weights

    return IlpInstance(
        box_labels=box_labels,
        unary=unary,
        abstract_labels=abstract_labels,
        zcoef=zcoef,
        wcoef=wcoef,
        budget=hp.budget,
        visual_cap=math.floor(0.8 * n) if hp.visir_star else None,
    )


@lru_cache(maxsize=LAYOUT_CACHE)
def _layout(sizes: tuple[int, ...]) -> tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Where `build_instance` puts the labels of boxes of these sizes: the
    arrays' width, every visual label's (box, slot) in key order, and the
    label pairs (p, q) in boxes i < m. The arrays are read-only."""
    box_of, slot_of = np.array([(i, j) for i, size in enumerate(sizes) for j in range(size)],
                               dtype=np.intp).reshape(-1, 2).T
    p, q = np.nonzero(box_of[:, None] < box_of)
    layout = box_of, slot_of, p, q
    for at in layout:
        at.setflags(write=False)
    return max(sizes, default=0) + 1, *layout


# --- objective and ordering ----------------------------------------------------

def objective_value(
    inst: IlpInstance, choice: Sequence[int | None], abstract: Iterable[int],
    gains: np.ndarray | None = None,
) -> float:
    """Canonical objective of a complete assignment.

    Terms are summed in one fixed order (unaries, cross-box pairs, then
    per-abstract gains) so equivalent assignments get bit-identical values
    regardless of which solver produced them. `gains`, when given, must be
    `_abstract_gains(inst, choice)`.
    """
    chosen = [(i, j) for i, j in enumerate(choice) if j is not None]
    val = 0.0
    for i, j in chosen:
        val += inst.unary[i, j]
    for p, (i, j) in enumerate(chosen):
        for m, k in chosen[p + 1:]:
            val += inst.zcoef[i, j, m, k]
    if gains is None:
        gains = _abstract_gains(inst, choice)
    for k in sorted(abstract):
        val += gains[k]
    return float(val)


def _abstract_gains(inst: IlpInstance, choice: Sequence[int | None]) -> np.ndarray:
    """Per abstract candidate, its W summed over the chosen boxes in box order."""
    gains = np.zeros(inst.n_abstract)
    for i, j in enumerate(choice):
        if j is not None:
            gains += inst.wcoef[i, j]
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


def _best_abstract(inst: IlpInstance, choice: Sequence[int | None], allowance: int,
                   gains: np.ndarray | None = None) -> tuple[int, ...]:
    """Exact abstract completion for a fixed visual choice, tie-break aware.

    All gains are nonnegative, so the value-optimal subsets are: every
    candidate above the allowance cutoff, a lexicographic choice among
    cutoff ties, and optionally zero-gain candidates in leftover slots.
    A zero-gain label improves the tie-break multiset exactly when it sorts
    below the largest label already chosen. `gains`, when given, must be
    `_abstract_gains(inst, choice)`.
    """
    if allowance <= 0 or inst.n_abstract == 0:
        return ()
    if gains is None:
        gains = _abstract_gains(inst, choice)
    gains = [(g, k) for k, g in enumerate(gains.tolist())]
    # the order of a stable sort on (-gain, label) over the candidates in
    # index order, with tuples compared in C instead of through a key function
    positives = sorted([(-g, inst.abstract_labels[k], k) for g, k in gains if g > 0.0])
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

def _child_bounds(inst: IlpInstance, budget: int, visual_cap: int, max_abs: int):
    """The bound tables of `solve_exact`'s branching nodes, built once per
    solve: returns `bounds(i, values, n_vis, gains, deltas)`, admissible per
    child of box i - 1, and per box its children in search order."""
    n, n_abs = inst.n_boxes, inst.n_abstract
    sizes = [len(labels) for labels in inst.box_labels]
    unary, zcoef, wcoef = inst.unary, inst.zcoef, inst.wcoef

    # partner[m, j, p]: the most candidate j of box m can gain with box p;
    # Z is zero unless i < m, so the two halves do not overlap
    partner = zcoef.max(axis=3)
    np.maximum(partner, zcoef.max(axis=1).transpose(1, 2, 0), out=partner)
    # Tables per depth i, over the boxes i..n-1. A box before i counts as 0
    # in every sort: the sums below take at most the n - i largest values,
    # and every value is >= 0, so they come out the same.
    after = np.arange(n) >= np.arange(n)[:, None]  # after[i, p]: box p is not before i
    # zshare[i, v - 1, m, j]: half the v - 1 best partners of candidate j of
    # box m among the other boxes i..n-1. When v of those boxes are
    # labelled, each pair between them is shared by its two ends.
    most = max(min(n, budget, visual_cap) - 1, 0)
    among = -np.sort(-np.where(after[:, None, None], partner, 0.0), axis=3)[..., :most]
    zshare = np.zeros((n, most + 1, *unary.shape))
    zshare[:, 1:] = 0.5 * np.cumsum(among, axis=3).transpose(0, 3, 1, 2)
    # wtop[i, v, k]: the most v of the boxes i..n-1 can add to abstract gain k
    wmax = wcoef.max(axis=1)
    wtop = np.zeros((n, n + 1, n_abs))
    wtop[:, 1:] = np.cumsum(-np.sort(-np.where(after[:, :, None], wmax, 0.0), axis=1), axis=1)
    # take[s, v]: how many abstract candidates fit in s slots beside v boxes
    take = np.clip(np.arange(budget + 1)[:, None] - np.arange(n + 1), 0, max_abs)

    # children per box: candidates by strongest static potential first
    # (search speed only; the final answer is the key-minimal assignment
    # regardless), then "no label"
    zpot = partner.sum(axis=2)
    order = [
        sorted(range(sizes[i]), key=lambda j: (-(unary[i, j] + zpot[i, j]), j)) + [sizes[i]]
        for i in range(n)
    ]

    def bounds(i: int, values, n_vis: int, gains, deltas) -> np.ndarray:
        """Admissible, per child of box i - 1 (row c of each argument is
        child c): the best split of the slots left between at most `n_box`
        remaining boxes and at most `max_abs` abstract candidates.

        The last row is the "no label" child, with `n_vis` labels; any
        rows before it took a label, so they have one slot less."""
        slots = budget - n_vis
        n_box = max(min(n - i, slots, visual_cap - n_vis), 0)
        split = np.zeros((len(values), n_box + 1))
        if n_box:
            pots = np.sort((deltas[:, None] + zshare[i, :n_box, i:]).max(axis=3),
                           axis=2)[:, :, ::-1]
            split[:, 1:] = np.cumsum(pots[:, :, :n_box], axis=2).diagonal(axis1=1, axis2=2)
        if max_abs:
            # abs_top[c, v, t]: the t best abstract gains of child c beside v boxes
            pots = np.sort(gains[:, None] + wtop[i, : n_box + 1], axis=2)[:, :, ::-1]
            abs_top = np.zeros((len(values), n_box + 1, max_abs + 1))
            np.cumsum(pots[:, :, :max_abs], axis=2, out=abs_top[:, :, 1:])
            v = np.arange(n_box + 1)
            split[-1] += abs_top[-1, v, take[slots, : n_box + 1]]
            if len(values) > 1:
                split[:-1] += abs_top[:-1, v, take[slots - 1, : n_box + 1]]
        if len(values) > 1 and max(min(n - i, slots - 1, visual_cap - n_vis - 1), 0) < n_box:
            # the slots or the cap leave the labelled children one box fewer
            split[:-1, n_box] = -np.inf
        return values + split.max(axis=1)

    return bounds, order


def solve_exact(inst: IlpInstance) -> Assignment:
    """Branch and bound over per-box choices with exact abstract completion.

    Carried state, bounds, the two kinds of node and the leaf filter are
    described in the module docstring. The prune test is strict
    (`< best - eps`), so every tied optimum is still evaluated and the
    tie-break chain decides among them.
    """
    n, n_abs = inst.n_boxes, inst.n_abstract
    sizes = [len(labels) for labels in inst.box_labels]
    zcoef, wcoef = inst.zcoef, inst.wcoef

    max_abs = min(inst.max_abstract, n_abs)
    no_limit = n + max_abs
    budget = no_limit if inst.budget is None else inst.budget
    visual_cap = no_limit if inst.visual_cap is None else inst.visual_cap
    # the nodes at depth `whole_at` solve the boxes left whole: the first
    # depth with at most WHOLE_MAX_CHOICES joint choices left, or one box
    whole_at = 0
    while whole_at < n - 1 and math.prod(s + 1 for s in sizes[whole_at:]) > WHOLE_MAX_CHOICES:
        whole_at += 1
    # the most boxes that can be labelled, and allowance[v]: how many
    # abstract candidates fit beside v labelled boxes
    n_most = min(budget, visual_cap)
    allowance = np.array([_abstract_allowance(inst, v) for v in range(n + 1)])

    best_key: tuple | None = None
    best_obj = -math.inf
    best_choice: tuple[int | None, ...] = ()
    best_abstract: tuple[int, ...] = ()
    choice: list[int | None] = [None] * n

    def leaf(n_vis: int, gains) -> None:
        nonlocal best_key, best_obj, best_choice, best_abstract
        # the carried gains are `_abstract_gains` summed in the same order
        abstract = _best_abstract(inst, choice, _abstract_allowance(inst, n_vis), gains)
        obj = objective_value(inst, choice, abstract, gains)
        key = _assignment_key(inst, choice, abstract, obj)
        if best_key is None or key < best_key:
            best_key = key
            best_obj = obj
            best_choice = tuple(choice)
            best_abstract = abstract

    def whole(i: int, value: float, n_vis: int, gains, deltas) -> None:
        """Scores every joint choice of the boxes i..n-1 at once: the carried
        value, their deltas and the Z among them, plus the best abstract
        subset their slots allow. Then evaluates the feasible choices, best
        score first, until a score falls below the incumbent."""
        dims = [s + 1 for s in sizes[i:]]
        # shapes[a]: box i + a's children along axis a of the grid of choices
        shapes = [(1,) * a + (d,) + (1,) * (len(dims) - a - 1) for a, d in enumerate(dims)]
        scores = np.asarray(value)
        n_labelled = np.asarray(n_vis)
        kid_gains = gains
        for a, d in enumerate(dims):
            scores = scores + deltas[a, :d].reshape(shapes[a])
            for b in range(a):
                pair = zcoef[i + b, : dims[b], i + a, :d]
                scores = scores + pair.reshape(shapes[b][:a] + shapes[a][a:])
            n_labelled = n_labelled + (np.arange(d) < d - 1).reshape(shapes[a])
            # box by box, as the branching nodes add them
            kid_gains = kid_gains + wcoef[i + a, :d].reshape(*shapes[a], n_abs)
        scores, n_labelled = scores.ravel(), n_labelled.ravel()
        kid_gains = kid_gains.reshape(len(scores), n_abs)
        if max_abs:
            # top[t, c]: the t best abstract gains of choice c
            top = np.zeros((max_abs + 1, len(scores)))
            np.cumsum(np.sort(kid_gains, axis=1)[:, : -max_abs - 1 : -1].T, axis=0, out=top[1:])
            scores += top[allowance[n_labelled], np.arange(len(scores))]
        # the incumbent only rises, so a choice scored below it now stays out
        live = np.flatnonzero((n_labelled <= n_most) & (scores >= best_obj - _PRUNE_EPS))
        ranked = live[np.argsort(-scores[live], kind="stable")]
        for c, score in zip(ranked.tolist(), scores[ranked].tolist()):
            if score < best_obj - _PRUNE_EPS:
                break
            rest = c
            for m in reversed(range(i, n)):
                rest, j = divmod(rest, sizes[m] + 1)
                choice[m] = None if j == sizes[m] else j
            leaf(int(n_labelled[c]), kid_gains[c])
        choice[i:] = [None] * (n - i)

    def dfs(i: int, value: float, n_vis: int, gains, deltas) -> None:
        """`deltas[m - i, j]`: what candidate j of box m adds with the
        boxes decided so far (its unary plus its Z to their choices).

        At depth `whole_at`, solves the boxes left whole. Above it, bounds
        every child of box i in one call, and compares each with the
        incumbent just before entering it, since the incumbent improves
        between siblings."""
        if i == whole_at:
            whole(i, value, n_vis, gains, deltas)
            return
        none = sizes[i]
        # once the budget or the visual cap is reached, "no label" is the only child
        first = 0 if n_vis < budget and n_vis < visual_cap else none
        rows = slice(first, none + 1)
        values = value + deltas[0, rows]
        kid_gains = gains + wcoef[i, rows]
        kid_deltas = deltas[1:] + zcoef[i, rows, i + 1:]
        kid_bounds = bounds(i + 1, values, n_vis, kid_gains, kid_deltas).tolist()
        for j in order[i] if first == 0 else (none,):
            c = j - first
            if kid_bounds[c] < best_obj - _PRUNE_EPS:
                continue
            choice[i] = None if j == none else j
            dfs(i + 1, values[c], n_vis + (j != none), kid_gains[c], kid_deltas[c])
        choice[i] = None

    if whole_at:
        # only branching nodes read the bound tables
        bounds, order = _child_bounds(inst, budget, visual_cap, max_abs)
    try:
        dfs(0, 0.0, 0, np.zeros(n_abs), inst.unary)
    finally:
        # `dfs` reaches itself, and through `whole` and `leaf` the instance,
        # by its closure cell; clearing the cell frees them all on return
        # instead of leaving them to the cyclic GC
        dfs = None
    return Assignment(best_choice, best_abstract, best_obj)


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
