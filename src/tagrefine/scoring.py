"""Confidence scores feeding the selection objective.

Two families:

* vconf -- how strongly the detector (directly or through visual similarity)
  backs a concrete label for a box;
* gconf -- how strongly a hypernym generalizes the box's visual labels,
  summed semantic relatedness to its children present in the box.

Abstract candidates are scored in `candidates.rank_abstract`: a visual
label supports a phrase with the phrase's strongest assertion weight (cnet)
times their semantic relatedness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from .errors import ConfigError, ContractViolation
from .vsim import BoundingBox, VsimTable

SrelFn = Callable[[str, str], float]

MAX_ABSTRACT_LABELS = 5  # hard cap on abstract labels per image


@dataclass(frozen=True)
class Hyperparameters:
    """Objective weights and selection bounds.

    `budget` of None disables the joint label budget; the pipeline then
    truncates output to 5 labels by marginal contribution instead.
    `visir_star` swaps the joint budget for a cap on visual labels at 80%
    of the input boxes.
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


def vconf(box: BoundingBox, label: str, vsim_table: VsimTable) -> float:
    """Visual confidence of a concrete label for a box.

    Original detections keep their detector confidence; visually-similar
    additions earn the similarity-weighted sum of the box's original
    confidences. Anything else is a caller bug.
    """
    originals = dict(box.candidates)
    if label in originals:
        return originals[label]
    sims = [(conf, vsim_table.get(orig_label, label)) for orig_label, conf in box.candidates]
    if not any(s > 0.0 for _, s in sims):
        raise ContractViolation(
            f"label {label!r} is neither original nor visually similar in box {box.box_id!r}"
        )
    return sum(conf * s for conf, s in sims)


def gconf(
    box_visual_labels: Sequence[str],
    hypernym: str,
    parents: Mapping[str, tuple[str, ...]],
    srel_fn: SrelFn,
) -> float:
    """Generalization confidence: summed relatedness to children in this box.

    Exactly 0 for labels that are themselves original or similar candidates
    of the box. Sums in the order of `box_visual_labels`, so an ordered
    sequence gives the same bits in every process.
    """
    if hypernym in box_visual_labels:
        return 0.0
    total = 0.0
    for child in box_visual_labels:
        if hypernym in parents.get(child, ()):
            total += srel_fn(hypernym, child)
    return total

