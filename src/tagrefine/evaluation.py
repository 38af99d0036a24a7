"""Pooled-judgment evaluation and randomized hyperparameter search.

Human judges grade each pooled label 0 (wrong), 1 (acceptable), or 2
(highly relevant). A label is "good" when strictly more than half of its
grades clear the assessment bar: grade >= 1 under relaxed assessment,
grade == 2 under conservative. Precision, recall, and F1 compare a
system's (distinct) output labels against the good set; aggregates are
unweighted per-image means.
"""

from __future__ import annotations

import logging
import random
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Sequence

from .errors import ConfigError
from .labels import Space, canon_label
from .textio import json_list, json_str, json_table, put_new

log = logging.getLogger(__name__)

RELAXED = "RELAXED"
CONSERVATIVE = "CONSERVATIVE"
MODES = (RELAXED, CONSERVATIVE)

POOL_TAGS = ("CL", "CL+XL", "CL+XL+AL", "AGGREGATE")

_POOL_SPACES = {
    "CL": frozenset({Space.CL}),
    "CL+XL": frozenset({Space.CL, Space.XL}),
    "CL+XL+AL": frozenset({Space.CL, Space.XL, Space.AL}),
    "AGGREGATE": frozenset({Space.CL, Space.XL, Space.AL}),
}


def pool_spaces(pool_tag: str) -> frozenset[Space]:
    """Label spaces a system's output is restricted to under this pool."""
    try:
        return _POOL_SPACES[pool_tag]
    except KeyError:
        raise ConfigError(f"unknown pool tag {pool_tag!r}") from None


@dataclass(frozen=True)
class JudgedPool:
    image_id: str
    entries: Mapping[str, tuple[int, ...]]  # label -> grades, each in {0, 1, 2}
    pool_tag: str

    def __post_init__(self):
        if self.pool_tag not in POOL_TAGS:
            raise ConfigError(f"unknown pool tag {self.pool_tag!r}")
        for label, grades in self.entries.items():
            if not grades:
                raise ConfigError(f"label {label!r} has no grades")
            if any(g not in (0, 1, 2) for g in grades):
                raise ConfigError(f"label {label!r} has grades outside {{0, 1, 2}}")


def good_labels(pool: JudgedPool, mode: str) -> set[str]:
    """Labels a strict majority of judges graded at or above the mode's bar."""
    if mode not in MODES:
        raise ConfigError(f"unknown assessment mode {mode!r}")
    bar = 2 if mode == CONSERVATIVE else 1
    return {
        label
        for label, grades in pool.entries.items()
        if sum(1 for g in grades if g >= bar) * 2 > len(grades)
    }


def precision(system_labels: Iterable[str], good: set[str]) -> float:
    labels = set(system_labels)
    if not labels:
        return 1.0  # empty output: vacuous precision, flagged by the caller
    return len(labels & good) / len(labels)


def recall(system_labels: Iterable[str], good: set[str]) -> float:
    if not good:
        return 1.0
    return len(set(system_labels) & good) / len(good)


def f1(p: float, r: float) -> float:
    if p + r == 0.0:
        return 0.0
    return 2.0 * p * r / (p + r)


@dataclass
class MetricsRow:
    system: str
    pool: str
    mode: str
    precision: float
    recall: float
    f1: float
    images: int


def evaluate_images(
    system_labels: Mapping[str, list[tuple[str, Space]]],
    pools: Mapping[str, JudgedPool],
    mode: str,
) -> tuple[float, float, float, int]:
    """Macro-averaged (precision, recall, f1, images) for one system/pool/mode.

    `system_labels` maps image id to (label, space) pairs; labels outside
    the pool's spaces are ignored, the rest deduplicate into a set.
    """
    p_sum = r_sum = f_sum = 0.0
    n = 0
    empty_outputs = 0
    for image_id in sorted(pools):
        pool = pools[image_id]
        spaces = pool_spaces(pool.pool_tag)
        labels = {lab for lab, space in system_labels.get(image_id, []) if space in spaces}
        if not labels:
            empty_outputs += 1
        good = good_labels(pool, mode)
        p = precision(labels, good)
        r = recall(labels, good)
        p_sum += p
        r_sum += r
        f_sum += f1(p, r)
        n += 1
    if empty_outputs:
        log.warning("%d image(s) had empty output; their precision counted as 1.0", empty_outputs)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    return p_sum / n, r_sum / n, f_sum / n, n


def read_judgments_jsonl(path) -> dict[tuple[str, str], JudgedPool]:
    """Read graded pools: one JSON object per line, keyed (image, pool tag).
    A key given twice, or two labels of one pool with one canonical form,
    is a LoadError."""
    return json_table(path, "judgment", "image and pool", _judged_pool)


def _judged_pool(obj) -> tuple[tuple[str, str], JudgedPool]:
    image_id = json_str(obj["image"])
    entries: dict[str, tuple[int, ...]] = {}
    for label, grades in obj["labels"].items():
        put_new(entries, canon_label(label), tuple(json_list(grades, int)), "label")
    pool = JudgedPool(image_id=image_id, entries=entries, pool_tag=json_str(obj["pool"]))
    return (image_id, pool.pool_tag), pool


def write_metrics_tsv(rows: Sequence[MetricsRow], fh) -> None:
    fh.write("system\tpool\tmode\tprecision\trecall\tf1\timages\n")
    for row in rows:
        fh.write(
            f"{row.system}\t{row.pool}\t{row.mode}\t"
            f"{row.precision:.6f}\t{row.recall:.6f}\t{row.f1:.6f}\t{row.images}\n"
        )


# --- randomized hyperparameter search --------------------------------------------

# parameter sampling order is part of the seeded protocol; do not reorder
TUNABLE_PARAMS = ("alpha", "beta", "gamma", "kappa", "delta", "tau_s")

DEFAULT_RANGES = {
    "alpha": (0.0, 2.0),
    "beta": (0.0, 2.0),
    "gamma": (0.0, 2.0),
    "kappa": (0.0, 2.0),
    "delta": (0.0, 1.0),
    "tau_s": (0.05, 0.5),
}


@dataclass
class TrialResult:
    trial: int
    params: dict[str, float]
    score: float


def sample_params(rng: random.Random, space: Mapping[str, tuple[float, float]]) -> dict[str, float]:
    params = {}
    for name in TUNABLE_PARAMS:
        lo, hi = space.get(name, DEFAULT_RANGES[name])
        if hi < lo:
            raise ConfigError(f"range for {name} is inverted: {lo} > {hi}")
        params[name] = lo if lo == hi else rng.uniform(lo, hi)
    return params


def expand_gold(gold: set[str], parents: Mapping[str, tuple[str, ...]]) -> set[str]:
    """Ground-truth labels plus their hypernyms, all counted correct."""
    out = set(gold)
    for label in gold:
        out.update(parents.get(label, ()))
    return out


def tune(
    train_set: Sequence[tuple[object, set[str]]],
    space: Mapping[str, tuple[float, float]],
    trials: int,
    seed: int,
    store,
    base_hp,
) -> tuple[object, list[TrialResult]]:
    """Randomized search over hyperparameter vectors.

    Samples `trials` vectors uniformly from `space` with the given seed,
    refines every training image with each vector, and scores the vector by
    mean F1 against that image's gold labels (ground truth plus hypernyms,
    all treated as conservatively good; abstract output is ignored since the
    gold annotations cannot contain it). Ties resolve to the earliest trial.
    Trials only read the shared immutable store, so they are independent:
    each image is refined under every trial in turn, and what no weight
    changes (its labels, vconf and srel table) is built once per image and
    `tau_s`; each trial blends that table at its own `delta`. Each trial
    still sums its F1 over the images in input order.
    """
    from .pipeline import make_relatedness, refine_record

    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    if not train_set:
        raise ConfigError("empty train set")

    expanded = [(record, expand_gold(gold, store.parents)) for record, gold in train_set]
    rng = random.Random(seed)
    params = [sample_params(rng, space) for _ in range(trials)]
    # every vector is checked before any image is refined
    hps = [replace(base_hp, **p) for p in params]
    rel = make_relatedness(store, base_hp)  # one label cache; trials blend at their own delta
    f_sums = [0.0] * trials
    for record, gold in expanded:
        memo: dict = {}  # what no trial weight changes, for this image only
        for t, hp in enumerate(hps):
            refined, _ = refine_record(record, store, hp, rel=rel, memo=memo)
            labels = {r.label for r in refined if r.space in (Space.CL, Space.XL)}
            p = precision(labels, gold)
            r = recall(labels, gold)
            f_sums[t] += f1(p, r)
    results = [TrialResult(trial=t, params=p, score=f_sum / len(expanded))
               for t, (p, f_sum) in enumerate(zip(params, f_sums))]
    best = max(results, key=lambda r: (r.score, -r.trial))
    return replace(base_hp, **best.params), results
