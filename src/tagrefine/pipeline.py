"""End-to-end refinement of detection records against a knowledge store."""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Iterable, Sequence
from urllib.parse import quote

from .candidates import generate
from .ilp import (
    RefinedLabel,
    build_instance,
    extract_labels,
    solve_exact,
    truncate_to_cap,
    write_lp,
)
from .knowledge import KnowledgeStore
from .relatedness import Relatedness, image_coherence
from .scoring import Hyperparameters
from .vsim import DetectionRecord

log = logging.getLogger(__name__)

# with the joint budget disabled, output still trims to the standard budget
POST_TRUNCATION_CAP = 5
# `select_incoherent` keeps images of 3..7 boxes whose top labels are less
# related than the cut on average
MIN_BOXES, MAX_BOXES = 3, 7
COHERENCE_CUT = 0.1


def make_relatedness(store: KnowledgeStore, hp: Hyperparameters) -> Relatedness:
    """srel for `hp.delta`; share one across all images refined with that delta."""
    return Relatedness(store.embeddings, store.coloc, delta=hp.delta)


def refine_record(
    record: DetectionRecord,
    store: KnowledgeStore,
    hp: Hyperparameters,
    rel: Relatedness | None = None,
    lp_dir: str | None = None,
) -> tuple[list[RefinedLabel], float]:
    """Refine one image: candidates, exact selection, label extraction."""
    if rel is None:
        rel = make_relatedness(store, hp)
    # handed the `Relatedness` itself, generate computes the image's srel as
    # one table, and the instance reads the same table
    cands = generate(record, store, hp, rel)
    inst = build_instance(cands, hp, cands.srel)
    if lp_dir is not None:
        # percent-encoding is one-to-one, so distinct ids never share a file
        stem = quote(record.image_id, safe="")
        with open(Path(lp_dir) / f"{stem}.lp", "w", encoding="utf-8") as fh:
            write_lp(inst, fh)
    assignment = solve_exact(inst)
    if hp.budget is None:
        assignment = truncate_to_cap(inst, assignment, POST_TRUNCATION_CAP)
    refined = extract_labels(assignment, cands)
    return refined, assignment.objective_value


def refined_to_json(record: DetectionRecord, refined: Sequence[RefinedLabel], objective: float) -> dict:
    return {
        "image": record.image_id,
        "labels": [
            {"label": r.label, "space": r.space.value, "box": r.box} for r in refined
        ],
        "objective": objective,
    }


def refine_records(
    records: Sequence[DetectionRecord],
    store: KnowledgeStore,
    hp: Hyperparameters,
    lp_dir: str | None = None,
) -> list[dict]:
    """Refine images one at a time, in input order, sharing one `Relatedness`."""
    rel = make_relatedness(store, hp)
    out = []
    for record in records:
        refined, objective = refine_record(record, store, hp, rel=rel, lp_dir=lp_dir)
        out.append(refined_to_json(record, refined, objective))
    return out


def select_incoherent(
    records: Iterable[DetectionRecord],
    store: KnowledgeStore,
    hp: Hyperparameters,
) -> list[DetectionRecord]:
    """Keep images whose detections look contextually incoherent.

    An image qualifies with `MIN_BOXES..MAX_BOXES` boxes whose top-confidence
    original labels have mean pairwise relatedness below `COHERENCE_CUT`;
    those are the images where joint refinement has noise to remove.
    """
    rel = make_relatedness(store, hp)
    out = []
    for record in records:
        if not MIN_BOXES <= len(record.boxes) <= MAX_BOXES:
            continue
        top = []
        for box in record.boxes:
            if box.candidates:
                top.append(max(box.candidates, key=lambda lc: (lc[1], lc[0]))[0])
        if image_coherence(top, rel) < COHERENCE_CUT:
            out.append(record)
    return out
