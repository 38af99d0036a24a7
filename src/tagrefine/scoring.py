"""Confidence scores feeding the selection objective, and its weights.

* vconf -- how strongly the detector (directly or through visual similarity)
  backs a concrete label for a box; `candidates.visual_candidates` works it
  out in the walk that finds the box's similar labels;
* gconf -- how strongly a hypernym generalizes the box's visual labels,
  summed semantic relatedness to its children in the box (`gconf`);
* aconf -- an abstract phrase's strongest assertion weight (cnet) times its
  semantic relatedness to the visual label it is most related to
  (`candidates.rank_abstract`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import ConfigError

SrelFn = Callable[[str, str], float]

MAX_ABSTRACT_LABELS = 5  # hard cap on abstract labels per image


@dataclass(frozen=True)
class Hyperparameters:
    """Objective weights and selection bounds.

    `budget` of None disables the joint label budget; the pipeline then
    truncates output to 5 labels by marginal contribution instead.
    `visir_star` adds, next to the joint budget, a cap on visual labels at
    80% of the input boxes.
    """

    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0
    kappa: float = 1.0
    delta: float = 0.5
    budget: int | None = 5
    visir_star: bool = False
    tau_s: float = 0.1
    abstract_cap: int = 25  # candidate cap before solving, not a selection bound

    def __post_init__(self):
        numbers = [(name, (int, float), "a number")
                   for name in ("alpha", "beta", "gamma", "kappa", "delta", "tau_s")]
        for name, types, kind in (*numbers, ("budget", (int, type(None)), "an integer or none"),
                                  ("abstract_cap", int, "an integer"),
                                  ("visir_star", bool, "true or false")):
            value = getattr(self, name)
            # a bool is an int to Python, but only visir_star takes one
            if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
                raise ConfigError(f"{name} must be {kind}, got {value!r}")
        for name in ("alpha", "beta", "gamma", "kappa"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ConfigError(f"{name} must be finite and >= 0, got {value!r}")
        if not 0.0 <= self.delta <= 1.0:
            raise ConfigError(f"delta must be in [0, 1], got {self.delta!r}")
        if self.budget is not None and self.budget < 1:
            raise ConfigError(f"budget must be >= 1 or none, got {self.budget!r}")
        if not 0.0 < self.tau_s <= 1.0:
            raise ConfigError(f"tau_s must be in (0, 1], got {self.tau_s!r}")
        if self.abstract_cap < 1:
            raise ConfigError(f"abstract_cap must be >= 1, got {self.abstract_cap!r}")


def gconf(hypernym: str, children: Iterable[str], srel_fn: SrelFn) -> float:
    """Generalization confidence: summed relatedness to the hypernym's
    children in the box.

    Sums with `+` in the order of `children`, so an ordered sequence gives
    the same bits in every process and under every Python version.
    """
    total = 0.0
    for child in children:
        total += srel_fn(hypernym, child)
    return total
