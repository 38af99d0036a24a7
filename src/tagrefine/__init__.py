"""Coherence-driven refinement of noisy object-detection labels.

The pipeline mines how often a detector confuses label pairs, blends word
embeddings with spatial co-location into a relatedness score, expands each
image's candidate labels with visually-similar classes, hypernyms, and
commonsense abstractions, and then picks the jointly best label set with an
exact 0-1 integer linear program.
"""

from .errors import (
    ConfigError,
    ContractViolation,
    LoadError,
    TagRefineError,
)
from .scoring import Hyperparameters

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ContractViolation",
    "Hyperparameters",
    "LoadError",
    "TagRefineError",
    "__version__",
]
