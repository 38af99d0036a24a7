"""Random 0-1 selection instances for solver fuzzing.

Scores mix continuous draws with quarter-step quantized ones so objective
ties happen often enough to exercise the tie-break chain (quarters are exact
binary fractions, so mathematically tied sums are bitwise tied too).
"""

import math
import random

import numpy as np

from tagrefine.ilp import IlpInstance

LABEL_POOL = [f"l{i}" for i in range(10)]
ABSTRACT_POOL = [f"a{i}" for i in range(10)]


def instance(box_labels, unary, abstract_labels=(), z=None, w=None, budget=5,
             visual_cap=None) -> IlpInstance:
    """An instance from per-box unary rows and `z`/`w` dicts keyed (i, j, m, k)
    with i < m and (i, j, k); absent keys are zero coefficients."""
    n = len(box_labels)
    width = max(map(len, box_labels), default=0) + 1
    dense = np.zeros((n, width))
    for i, row in enumerate(unary):
        dense[i, : len(row)] = row
    zcoef = np.zeros((n, width, n, width))
    for (i, j, m, k), c in (z or {}).items():
        assert i < m, (i, m)
        zcoef[i, j, m, k] = c
    wcoef = np.zeros((n, width, len(abstract_labels)))
    for key, c in (w or {}).items():
        wcoef[key] = c
    return IlpInstance(box_labels=tuple(box_labels), unary=dense,
                       abstract_labels=tuple(abstract_labels), zcoef=zcoef, wcoef=wcoef,
                       budget=budget, visual_cap=visual_cap)


def random_instance(
    rng: random.Random,
    max_boxes: int = 4,
    max_cands: int = 4,
    max_abstract: int = 4,
    min_abstract: int = 0,
    quantize_prob: float = 0.5,
    allow_visir: bool = True,
    budgets=(None, 1, 2, 3, 5, 8),
) -> IlpInstance:
    def score() -> float:
        if rng.random() < quantize_prob:
            return rng.randrange(0, 9) * 0.25
        return rng.random() * 2.0

    n_boxes = rng.randint(1, max_boxes)
    box_labels, unary = [], []
    for _ in range(n_boxes):
        cands = rng.sample(LABEL_POOL, rng.randint(1, max_cands))
        box_labels.append(tuple(cands))
        unary.append(tuple(score() for _ in cands))

    abstract = tuple(rng.sample(ABSTRACT_POOL, rng.randint(min_abstract, max_abstract)))

    z = {}
    for i in range(n_boxes):
        for m in range(i + 1, n_boxes):
            for j in range(len(box_labels[i])):
                for k in range(len(box_labels[m])):
                    if rng.random() < 0.6:
                        val = score()
                        if val > 0.0:
                            z[(i, j, m, k)] = val
    w = {}
    for k in range(len(abstract)):
        for i in range(n_boxes):
            for j in range(len(box_labels[i])):
                if rng.random() < 0.6:
                    val = score()
                    if val > 0.0:
                        w[(i, j, k)] = val

    visual_cap = None
    if allow_visir and rng.random() < 0.3:
        visual_cap = math.floor(0.8 * n_boxes)

    return instance(
        box_labels=tuple(box_labels),
        unary=tuple(unary),
        abstract_labels=abstract,
        z=z,
        w=w,
        budget=rng.choice(budgets),
        visual_cap=visual_cap,
    )


def dense_instance(rng: random.Random, n_boxes: int, n_cands: int, n_abstract: int) -> IlpInstance:
    """Budget 5; every Z and W coefficient present and uniform in [0, 1): little to prune."""
    n, c, K = n_boxes, n_cands, n_abstract
    return instance(
        box_labels=tuple(tuple(f"l{i}_{j}" for j in range(c)) for i in range(n)),
        unary=tuple(tuple(rng.random() for _ in range(c)) for _ in range(n)),
        abstract_labels=tuple(f"a{k}" for k in range(K)),
        z={(i, j, m, k): rng.random()
           for i in range(n) for m in range(i + 1, n) for j in range(c) for k in range(c)},
        w={(i, j, k): rng.random() for i in range(n) for j in range(c) for k in range(K)},
        budget=5,
        visual_cap=None,
    )
