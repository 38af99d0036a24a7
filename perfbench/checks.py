"""Correctness checks on a workload's outputs, computed apart from the program.

Each check returns a list of error strings; an empty list means the output
passed. The feasibility, objective, similarity-score and F1 checks read the
generated input files with their own parsers and recompute everything from
the definitions. Two checks call the program for an instance and then judge
it independently: the HiGHS optimality check (the program builds the
instance, `scipy.optimize.milp` solves it) and the tune check (the program
refines the best trial's images, the F1 is the benchmark's own).
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from workloads import HP, TUNE_SEED, WORKLOADS

MAX_ABSTRACT = 5
OBJ_RTOL = 1e-9


def _lines(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line


def read_detections(path: Path) -> list[tuple[str, list[tuple[str, list[tuple[str, float]]]]]]:
    images = []
    for line in _lines(path):
        obj = json.loads(line)
        images.append((obj["image"], [
            (box["id"], [(c["label"], float(c["conf"])) for c in box["candidates"]])
            for box in obj["boxes"]]))
    return images


@dataclass
class Inputs:
    """The generated knowledge files, read without the program's loaders."""

    images: list
    similar: dict = field(default_factory=lambda: defaultdict(dict))   # a -> b -> vsim
    parents: dict = field(default_factory=lambda: defaultdict(list))   # child -> parents
    asserted: dict = field(default_factory=lambda: defaultdict(list))  # subject -> [(obj, score)]
    vectors: dict = field(default_factory=dict)
    coloc: dict = field(default_factory=dict)
    max_coloc: int = 0

    @classmethod
    def read(cls, data: Path) -> "Inputs":
        inp = cls(images=read_detections(data / "detections.jsonl"))
        for line in _lines(data / "vsim.tsv"):
            a, b, s = line.split("\t")
            inp.similar[a][b] = inp.similar[b][a] = float(s)
        for line in _lines(data / "hypernyms.tsv"):
            child, parent, _ = line.split("\t")
            inp.parents[child].append(parent)
        for line in _lines(data / "assertions.tsv"):
            subj, _, obj, score = line.split("\t")
            inp.asserted[subj].append((obj, float(score)))
        for line in _lines(data / "embeddings.txt"):
            token, *values = line.split()
            inp.vectors[token] = np.array(values, dtype=float)
        for line in _lines(data / "coloc.tsv"):
            a, b, n = line.split("\t")
            key = (min(a, b), max(a, b))
            inp.coloc[key] = inp.coloc.get(key, 0) + int(n)
        inp.max_coloc = max(inp.coloc.values(), default=0)
        return inp

    def srel(self, a: str, b: str, delta: float) -> float:
        va, vb = self.vectors.get(a), self.vectors.get(b)
        cos = 0.0
        if va is not None and vb is not None:
            norms = float(np.linalg.norm(va)) * float(np.linalg.norm(vb))
            if norms > 0:
                cos = min(1.0, max(0.0, float(va @ vb) / norms))
        col = 0.0
        if a != b and self.max_coloc:
            col = self.coloc.get((min(a, b), max(a, b)), 0) / self.max_coloc
        return min(1.0, max(0.0, delta * cos + (1.0 - delta) * col))


@dataclass
class Box:
    originals: dict[str, float]   # label -> detector confidence
    similar: list[str]
    hypernyms: dict[str, list[str]]  # hypernym -> children among originals and similar


def candidate_space(inp: Inputs, boxes, tau_s: float) -> tuple[dict[str, Box], dict[str, float]]:
    """Per-box candidates and, per abstract label, its strongest assertion
    about any visual candidate of the image (the label's cnet)."""
    out: dict[str, Box] = {}
    for box_id, cands in boxes:
        originals = dict(cands)
        similar = sorted({b for a in originals for b, s in inp.similar[a].items()
                          if s >= tau_s} - set(originals))
        hypernyms: dict[str, list[str]] = defaultdict(list)
        for child in [*originals, *similar]:
            for parent in inp.parents.get(child, ()):
                if parent not in originals and parent not in similar:
                    hypernyms[parent].append(child)
        out[box_id] = Box(originals, similar, dict(hypernyms))
    visual = {lab for b in out.values() for lab in [*b.originals, *b.similar, *b.hypernyms]}
    cnet: dict[str, float] = {}
    for subj in visual:
        for obj, score in inp.asserted.get(subj, ()):
            if obj not in visual:
                cnet[obj] = max(cnet.get(obj, 0.0), score)
    return out, cnet


def _unary(inp: Inputs, box: Box, label: str, hp: dict) -> float:
    if label in box.originals:
        vconf, gconf = box.originals[label], 0.0
    elif label in box.similar:
        vconf = sum(conf * inp.similar[orig].get(label, 0.0)
                    for orig, conf in box.originals.items())
        gconf = 0.0
    else:
        vconf = 0.0
        gconf = sum(inp.srel(label, child, hp["delta"]) for child in box.hypernyms[label])
    return hp["alpha"] * (vconf + hp["kappa"] * gconf)


def check_refined(out_path: Path, inp: Inputs, hp: dict = HP) -> list[str]:
    """Feasibility of every refined record, and its objective recomputed."""
    errors: list[str] = []
    records = [json.loads(line) for line in _lines(out_path)]
    if [r.get("image") for r in records] != [image for image, _ in inp.images]:
        return [f"{out_path.name}: images differ from the detections, in order or number"]
    for record, (image, boxes) in zip(records, inp.images):
        space, cnet = candidate_space(inp, boxes, hp["tau_s"])
        labels = record["labels"]
        where = f"{image}:"
        if len(labels) > hp["budget"]:
            errors.append(f"{where} {len(labels)} labels exceed the budget of {hp['budget']}")
        visual, abstract = [], []
        for entry in labels:
            label, sp, box_id = entry["label"], entry["space"], entry["box"]
            if box_id == "GLOBAL":
                if sp != "AL":
                    errors.append(f"{where} global label {label!r} in space {sp}")
                elif label not in cnet:
                    errors.append(f"{where} abstract {label!r} asserted of no visual candidate")
                abstract.append(label)
                continue
            box = space.get(box_id)
            if box is None:
                errors.append(f"{where} label {label!r} on unknown box {box_id!r}")
                continue
            if label in box.originals or label in box.similar:
                want = "CL"
            elif label in box.hypernyms:
                want = "XL"
            else:
                errors.append(f"{where} {label!r} is no candidate of box {box_id!r}")
                continue
            if sp != want:
                errors.append(f"{where} {label!r} in space {sp}, its origin gives {want}")
            visual.append((box_id, label))
        per_box = [b for b, _ in visual]
        if len(per_box) != len(set(per_box)):
            errors.append(f"{where} a box carries more than one visual label")
        if len(abstract) > MAX_ABSTRACT:
            errors.append(f"{where} {len(abstract)} abstract labels exceed {MAX_ABSTRACT}")
        if any(e.startswith(where) for e in errors):
            continue
        order = {box_id: i for i, (box_id, _) in enumerate(boxes)}
        visual.sort(key=lambda bl: order[bl[0]])
        value = sum(_unary(inp, space[b], lab, hp) for b, lab in visual)
        for i in range(len(visual)):
            for m in range(i + 1, len(visual)):
                value += hp["beta"] * inp.srel(visual[i][1], visual[m][1], hp["delta"])
        for k in abstract:
            value += sum(hp["gamma"] * cnet[k] * inp.srel(lab, k, hp["delta"])
                         for _, lab in visual)
        reported = record["objective"]
        if not math.isclose(value, reported, rel_tol=OBJ_RTOL, abs_tol=OBJ_RTOL):
            errors.append(f"{where} objective {reported!r}, recomputed {value!r}")
    return errors


def check_vsim(out_path: Path, corpus: Path) -> list[str]:
    """Every mined score recomputed as pair conf / (total conf a + total conf b)."""
    totals: dict[str, list[float]] = defaultdict(list)
    pair: dict[tuple[str, str], list[float]] = defaultdict(list)
    for line in _lines(corpus):
        for box in json.loads(line)["boxes"]:
            cands = [(c["label"], float(c["conf"])) for c in box["candidates"]]
            for label, conf in cands:
                totals[label].append(conf)
            for i, (la, ca) in enumerate(cands):
                for lb, cb in cands[i + 1:]:
                    pair[(min(la, lb), max(la, lb))] += [ca, cb]
    errors, seen, previous = [], set(), None
    for line in _lines(out_path):
        a, b, text = line.split("\t")
        key = (a, b)
        if not a < b or (previous is not None and key <= previous):
            errors.append(f"vsim row {a}\t{b} out of order")
        previous = key
        seen.add(key)
        if key not in pair:
            errors.append(f"vsim pair {a}\t{b} never shares a box")
            continue
        want = math.fsum(pair[key]) / (math.fsum(totals[a]) + math.fsum(totals[b]))
        if abs(float(text) - want) > 5e-7 + 1e-12:
            errors.append(f"vsim {a}\t{b} is {text}, recomputed {want:.9f}")
    missing = len(set(pair) - seen)
    if missing:
        errors.append(f"vsim: {missing} co-candidate pairs missing")
    return errors


def _f1(labels: set[str], gold: set[str]) -> float:
    p = len(labels & gold) / len(labels) if labels else 1.0
    r = len(labels & gold) / len(gold) if gold else 1.0
    return 0.0 if p + r == 0 else 2 * p * r / (p + r)


def tune_trials(ranges, trials: int, seed: int) -> list[dict[str, float]]:
    """The sampled vectors: uniform per parameter in this fixed order, pinned
    ranges drawing nothing."""
    order = ("alpha", "beta", "gamma", "kappa", "delta", "tau_s")
    span = {r.split("=")[0]: tuple(float(x) for x in r.split("=")[1].split(":")) for r in ranges}
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        params = {}
        for name in order:
            lo, hi = span[name]
            params[name] = lo if lo == hi else rng.uniform(lo, hi)
        out.append(params)
    return out


def check_tune(trials_tsv: Path, stdout: str, data: Path, store) -> list[str]:
    """Trial F1s in [0, 1], the earliest maximum reported as best, and the best
    trial's F1 recomputed by refining its images and scoring them here."""
    from tagrefine.pipeline import refine_record
    from tagrefine.scoring import Hyperparameters
    from tagrefine.vsim import read_detections_jsonl

    wl = WORKLOADS["tune"]
    rows = [line.split("\t") for line in _lines(trials_tsv)]
    header, rows = rows[0], rows[1:]
    errors = []
    if len(rows) != wl.tune_trials:
        return [f"tune: {len(rows)} trials logged, {wl.tune_trials} run"]
    sampled = tune_trials(wl.tune_ranges, wl.tune_trials, TUNE_SEED)
    scores = [float(row[-1]) for row in rows]
    for row, params, score in zip(rows, sampled, scores):
        if not 0.0 <= score <= 1.0:
            errors.append(f"tune: trial {row[0]} F1 {score} outside [0, 1]")
        logged = dict(zip(header[1:-1], row[1:-1]))
        if any(logged[k] != f"{v:.6f}" for k, v in params.items()):
            errors.append(f"tune: trial {row[0]} logged {logged}, sampled {params}")
    best = scores.index(max(scores))
    printed = dict(line.split(" = ") for line in stdout.splitlines() if " = " in line)
    if any(printed.get(k) != v for k, v in zip(header[1:-1], rows[best][1:-1])):
        errors.append(f"tune: reported best {printed} is not the earliest maximum, "
                      f"trial {best}")
    hp = Hyperparameters(**{**{k: HP[k] for k in ("budget", "abstract_cap")},
                            **sampled[best]})
    parents = defaultdict(set)
    for line in _lines(data / "hypernyms.tsv"):
        child, parent, _ = line.split("\t")
        parents[child].add(parent)
    gold = {}
    for line in _lines(data / "gold.jsonl"):
        obj = json.loads(line)
        gold[obj["image"]] = set(obj["labels"]) | {p for g in obj["labels"] for p in parents[g]}
    records, _ = read_detections_jsonl(data / "detections.jsonl")
    f1s = []
    for record in records:
        refined, _ = refine_record(record, store, hp)
        labels = {r.label for r in refined if r.space.value in ("CL", "XL")}
        f1s.append(_f1(labels, gold[record.image_id]))
    want = math.fsum(f1s) / len(f1s)
    if abs(want - scores[best]) > 5e-7 + 1e-12:
        errors.append(f"tune: best trial F1 {scores[best]}, recomputed {want:.9f}")
    return errors


def program_store(data: Path):
    """The knowledge store, loaded by the program as a refine run loads it."""
    from argparse import Namespace

    from tagrefine import cli

    return cli.load_store(Namespace(
        vsim=str(data / "vsim.tsv"), embeddings=str(data / "embeddings.txt"),
        hypernyms=str(data / "hypernyms.tsv"), assertions=str(data / "assertions.tsv"),
        coloc=str(data / "coloc.tsv"), allowlist=str(data / "allowlist.tsv"),
        allowlist_threshold=0.0))


def solve_with_highs(inst) -> float:
    """Optimum of the fully linearized 0-1 program, solved by HiGHS."""
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import coo_matrix

    x = {(i, j): n for n, (i, j) in enumerate(
        (i, j) for i, labels in enumerate(inst.box_labels) for j in range(len(labels)))}
    y = {k: len(x) + k for k in range(inst.n_abstract)}
    z = {key: len(x) + len(y) + n for n, key in enumerate(sorted(inst.z))}
    w = {key: len(x) + len(y) + len(z) + n for n, key in enumerate(sorted(inst.w))}
    n_vars = len(x) + len(y) + len(z) + len(w)
    if n_vars == 0:
        return 0.0
    c = np.zeros(n_vars)
    for (i, j), col in x.items():
        c[col] = -inst.unary[i][j]
    for key, col in z.items():
        c[col] = -inst.z[key]
    for key, col in w.items():
        c[col] = -inst.w[key]
    rows, cols, vals, upper = [], [], [], []

    def add(coeffs, hi):
        for col, val in coeffs:
            rows.append(len(upper))
            cols.append(col)
            vals.append(val)
        upper.append(hi)

    for i, labels in enumerate(inst.box_labels):
        if labels:
            add([(x[(i, j)], 1.0) for j in range(len(labels))], 1.0)
    if y:
        add([(col, 1.0) for col in y.values()], inst.max_abstract)
    if inst.budget is not None:
        add([(col, 1.0) for col in [*x.values(), *y.values()]], inst.budget)
    if inst.visual_cap is not None and x:
        add([(col, 1.0) for col in x.values()], inst.visual_cap)
    # Product rows, aggregated over the partner box: box m takes at most one
    # label, so sum_k Z_i_j_m_k <= X_i_j, and likewise for W against Y_k.
    # These imply the textbook rows Z <= X and give HiGHS a far tighter
    # relaxation. The lower rows (X + X' - Z <= 1) are left out: every
    # coefficient is nonnegative, so a maximum never needs them.
    groups = defaultdict(list)
    for (i, j, m, k), col in z.items():
        groups[("x", i, j, m)].append(col)
        groups[("x", m, k, i)].append(col)
    for (i, j, k), col in w.items():
        groups[("x", i, j, "w", k)].append(col)
        groups[("y", k, i)].append(col)
    for key, members in groups.items():
        bound = y[key[1]] if key[0] == "y" else x[(key[1], key[2])]
        add([(col, 1.0) for col in members] + [(bound, -1.0)], 0.0)
    a = coo_matrix((vals, (rows, cols)), shape=(len(upper), n_vars)).tocsr()
    res = milp(c=c, constraints=LinearConstraint(a, -np.inf, np.array(upper)),
               integrality=np.ones(n_vars), bounds=Bounds(0, 1))
    if not res.success:
        raise RuntimeError(f"HiGHS failed: {res.message}")
    return -res.fun


def check_optimal(out_path: Path, data: Path, store, image_ids) -> list[str]:
    """The reported objective of each named image equals the HiGHS optimum of
    the instance the program builds for it."""
    from tagrefine import candidates, ilp, pipeline
    from tagrefine.scoring import Hyperparameters
    from tagrefine.vsim import read_detections_jsonl

    hp = Hyperparameters(**HP)
    reported = {r["image"]: r["objective"] for r in map(json.loads, _lines(out_path))}
    records = {r.image_id: r for r in read_detections_jsonl(data / "detections.jsonl")[0]}
    rel = pipeline.make_relatedness(store, hp)
    errors = []
    for image in image_ids:
        cands = candidates.generate(records[image], store, hp, rel.srel)
        inst = ilp.build_instance(cands, hp, rel.srel)
        best = solve_with_highs(inst)
        if not math.isclose(best, reported[image], rel_tol=1e-7, abs_tol=1e-7):
            errors.append(f"{image}: objective {reported[image]!r}, HiGHS optimum {best!r}")
    return errors


def highs_sample(inp: Inputs, workload: str, seed: int) -> list[str]:
    """A seeded sample of the workload's images small enough for HiGHS."""
    wl = WORKLOADS[workload]
    small = [image for image, boxes in inp.images if len(boxes) <= wl.highs_max_boxes]
    return sorted(random.Random(f"highs:{seed}").sample(small, min(wl.highs_sample, len(small))))


def refined_digest(path: Path) -> str:
    """Digest of the refined labels (image, label, space, box) in output order;
    objective values are left out, so it is the "labels unchanged" check."""
    h = hashlib.sha256()
    for line in _lines(path):
        record = json.loads(line)
        h.update(json.dumps([record["image"], [[e["label"], e["space"], e["box"]]
                                                for e in record["labels"]]]).encode())
        h.update(b"\n")
    return h.hexdigest()


def output_digest(workload: str, out_dir: Path) -> str:
    if workload in ("paper", "wide"):
        return refined_digest(out_dir / "refined.jsonl")
    name = "vsim.tsv" if workload == "mine" else "trials.tsv"
    return hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
