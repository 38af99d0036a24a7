"""Acceptance suite: one test per release criterion, at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Fuzzed criteria log their seeds so failures replay exactly.
"""

import json
import math
import os
import random
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tagrefine
from instgen import random_instance
from oracle import brute_force
from tagrefine.cli import main
from tagrefine.evaluation import f1, recall
from tagrefine.ilp import (
    build_instance,
    extract_labels,
    solve_exact,
    truncate_to_cap,
)
from tagrefine.knowledge import EmbeddingTable, KnowledgeStore
from tagrefine.labels import PairTable
from tagrefine.pipeline import (
    POST_TRUNCATION_CAP,
    make_relatedness,
    refine_record,
    refined_to_json,
)
from tagrefine.scoring import Hyperparameters
from tagrefine.vsim import (
    BoundingBox,
    DetectionRecord,
    accumulate,
    finalize,
)
from tagrefine.candidates import generate


def report(name):
    print(f"\n[acceptance] {name}: PASS")


def test_oracle_equivalence():
    """solve_exact matches brute_force on >= 500 random instances, < 60 s."""
    seed = 987_654_321
    print(f"\n[acceptance] oracle equivalence seed={seed}")
    rng = random.Random(seed)
    start = time.time()
    for trial in range(500):
        inst = random_instance(rng, max_boxes=4, max_cands=4, max_abstract=4)
        exact = solve_exact(inst)
        oracle = brute_force(inst)
        assert exact.objective_value == oracle.objective_value, f"trial {trial}"
        assert exact == oracle, f"trial {trial}"
    elapsed = time.time() - start
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"
    report(f"oracle equivalence (500 instances, {elapsed:.1f}s)")


def test_similarity_endpoint_checks():
    """Always-co-candidate pairs score 1, never-co-candidate 0, hand corpus 2/3."""
    def rec(n, *cands):
        return DetectionRecord(f"i{n}", (BoundingBox("b", tuple(cands)),))

    always = [rec(n, ("a", 0.5), ("b", 0.3)) for n in range(5)]
    assert finalize(accumulate(always)).get("a", "b") == 1.0

    never = [rec(0, ("a", 0.5)), rec(1, ("b", 0.3))]
    assert finalize(accumulate(never)).get("a", "b") == 0.0

    hand = [rec(0, ("a", 0.6), ("b", 0.4)), rec(1, ("a", 0.5))]
    assert finalize(accumulate(hand)).get("a", "b") == pytest.approx(2 / 3, abs=1e-9)
    report("similarity endpoints (1, 0, 2/3)")


# --- fuzzed refine constraint suite -------------------------------------------

VISUAL_POOL = [f"v{i}" for i in range(8)]
PARENT_POOL = [f"p{i}" for i in range(4)]
ABSTRACT_POOL = [f"q{i}" for i in range(8)]


def random_store(rng) -> KnowledgeStore:
    dim = 3
    vectors = {}
    for token in VISUAL_POOL + PARENT_POOL + ABSTRACT_POOL:
        if rng.random() < 0.85:
            vec = np.array([rng.random() for _ in range(dim)])
            vec.setflags(write=False)
            vectors[token] = vec
    vsim_scores = {}
    for i, a in enumerate(VISUAL_POOL):
        for b in VISUAL_POOL[i + 1:]:
            if rng.random() < 0.3:
                vsim_scores[(a, b)] = rng.random()
    # the depth and the relation are drawn and discarded, so the random
    # stream, and every store drawn from it, stays as it was
    parents = {}
    for child in VISUAL_POOL:
        drawn = rng.sample(PARENT_POOL, rng.randint(0, 2))
        for _ in drawn:
            rng.randint(1, 3)  # depth
        if drawn:
            parents[child] = tuple(sorted(drawn))
    by_subject = {}
    for _ in range(rng.randint(0, 10)):
        subject = rng.choice(VISUAL_POOL + PARENT_POOL)
        rng.choice(("usedFor", "hasProperty"))  # relation
        obj = rng.choice(ABSTRACT_POOL)
        score = rng.uniform(0.5, 10.0)
        objects = by_subject.setdefault(subject, {})
        objects[obj] = max(score, objects.get(obj, 0.0))
    coloc_counts = {}
    for i, a in enumerate(VISUAL_POOL):
        for b in VISUAL_POOL[i + 1:]:
            if rng.random() < 0.2:
                coloc_counts[(a, b)] = rng.randint(1, 20)
    return KnowledgeStore.assemble(
        embeddings=EmbeddingTable(dim=dim, vectors=vectors),
        parents=parents,
        by_subject=by_subject,
        coloc=PairTable(coloc_counts),
        vsim=PairTable(vsim_scores),
    )


def random_detections(rng, image_id) -> DetectionRecord:
    boxes = []
    for b in range(rng.randint(1, 4)):
        labels = rng.sample(VISUAL_POOL, rng.randint(1, 4))
        cands = tuple((label, rng.uniform(0.05, 1.0)) for label in labels)
        boxes.append(BoundingBox(box_id=f"b{b}", candidates=cands))
    return DetectionRecord(image_id=image_id, boxes=tuple(boxes))


def random_hp(rng) -> Hyperparameters:
    return Hyperparameters(
        alpha=rng.uniform(0, 2),
        beta=rng.uniform(0, 2),
        gamma=rng.uniform(0, 2),
        kappa=rng.uniform(0, 2),
        delta=rng.random(),
        budget=rng.choice([None, 1, 2, 3, 5]),
        visir_star=rng.random() < 0.4,
        tau_s=rng.uniform(0.05, 0.9),
    )


def check_output_constraints(output_line: str, detections_line: str, hp: Hyperparameters):
    """Independent checker: only the two JSON texts and the configured bounds.

    Recomputes every constraint from scratch; shares no code with the solver.
    """
    out = json.loads(output_line)
    det = json.loads(detections_line)
    assert out["image"] == det["image"]
    box_ids = {b["id"] for b in det["boxes"]}

    per_box = {}
    n_abstract = 0
    for entry in out["labels"]:
        if entry["box"] == "GLOBAL":
            assert entry["space"] == "AL"
            n_abstract += 1
        else:
            assert entry["box"] in box_ids, f"unknown box {entry['box']!r}"
            per_box[entry["box"]] = per_box.get(entry["box"], 0) + 1
    for box_id, count in per_box.items():
        assert count <= 1, f"box {box_id!r} got {count} labels"
    assert n_abstract <= 5
    n_visual = sum(per_box.values())
    total = n_visual + n_abstract
    if hp.budget is not None:
        assert total <= hp.budget
    else:
        assert total <= 5  # post-truncation cap when the budget is disabled
    if hp.visir_star:
        assert n_visual <= math.floor(0.8 * len(det["boxes"]))


def test_constraint_suite_fuzzed_refines():
    """1000 fuzzed refine runs produce zero constraint violations."""
    seed = 24_681_012
    print(f"\n[acceptance] constraint suite seed={seed}")
    rng = random.Random(seed)
    for run in range(1000):
        if run % 50 == 0:
            store = random_store(rng)  # fresh knowledge every 50 runs
        record = random_detections(rng, f"img{run}")
        hp = random_hp(rng)
        refined, objective = refine_record(record, store, hp)
        output_line = json.dumps(refined_to_json(record, refined, objective))
        detections_line = json.dumps({
            "image": record.image_id,
            "boxes": [
                {"id": b.box_id,
                 "candidates": [{"label": l, "conf": c} for l, c in b.candidates]}
                for b in record.boxes
            ],
        })
        check_output_constraints(output_line, detections_line, hp)
    report("constraint suite (1000 fuzzed refine runs)")


def scalar_path(record, store, hp, rel):
    """Labels and objective with srel called per pair, as `rel.srel`."""
    cands = generate(record, store, hp, rel.srel)
    inst = build_instance(cands, hp, rel.srel)
    assignment = solve_exact(inst)
    if hp.budget is None:
        assignment = truncate_to_cap(inst, assignment, POST_TRUNCATION_CAP)
    return extract_labels(assignment, cands), assignment.objective_value


def test_table_path_matches_scalar_path(fixture_store, fixture_records):
    """refine_record, which reads srel from one table per image, chooses the
    labels the per-pair srel path chooses, objectives within 1e-12 relative."""
    seed = 4_242_424
    print(f"\n[acceptance] table vs scalar srel seed={seed}")
    rng = random.Random(seed)
    cases = []
    for run in range(300):
        if run % 20 == 0:
            store = random_store(rng)
        cases.append((random_detections(rng, f"img{run}"), store, random_hp(rng)))
    cases += [(record, fixture_store, Hyperparameters()) for record in fixture_records]
    for record, store, hp in cases:
        rel = make_relatedness(store, hp)
        refined, objective = refine_record(record, store, hp, rel=rel)
        want, want_objective = scalar_path(record, store, hp, rel)
        assert refined == want, record.image_id
        assert math.isclose(objective, want_objective, rel_tol=1e-12, abs_tol=0.0), \
            (record.image_id, objective, want_objective)
    report(f"table vs scalar srel ({len(cases)} images, same labels)")


def test_scaling_invariance():
    """Jointly scaling (alpha, beta, gamma) by c keeps the assignment."""
    seed = 1_357_911
    print(f"\n[acceptance] scaling invariance seed={seed}")
    rng = random.Random(seed)
    for run in range(100):
        if run % 20 == 0:
            store = random_store(rng)
        record = random_detections(rng, f"img{run}")
        hp = random_hp(rng)
        rel = make_relatedness(store, hp)
        cands = generate(record, store, hp, rel.srel)
        base = solve_exact(build_instance(cands, hp, rel.srel))
        for c in (0.1, 3.0, 17.0):
            hp_c = replace(hp, alpha=hp.alpha * c, beta=hp.beta * c, gamma=hp.gamma * c)
            scaled = solve_exact(build_instance(cands, hp_c, rel.srel))
            assert scaled.choice == base.choice, f"run {run} c={c}"
            assert scaled.abstract == base.abstract, f"run {run} c={c}"
    report("scaling invariance (100 instances x {0.1, 3, 17})")


def test_recall_worked_example():
    """5 good system labels against a pool of 8 good labels: exactly 0.625."""
    good = {f"g{i}" for i in range(8)}
    system = [f"g{i}" for i in range(5)]
    assert recall(system, good) == 0.625
    report("recall definitional check (5/8)")


def test_f1_spot_check():
    """Precision 0.51 and recall 0.86 give F1 0.64 within 0.005."""
    assert f1(0.51, 0.86) == pytest.approx(0.64, abs=0.005)
    report("f1 spot check (0.51, 0.86 -> 0.64)")


def test_coherence_fixture_drops_cucumber(fixture_store, fixture_records):
    """The snake / green mamba / cucumber image loses cucumber at defaults."""
    record = next(r for r in fixture_records if r.image_id == "img_001")
    hp = Hyperparameters()
    rel = make_relatedness(fixture_store, hp)

    # hand-built score sanity: unrelated cucumber, strongly related snakes
    assert rel.srel("cucumber", "snake") < 0.05
    assert rel.srel("cucumber", "green mamba") < 0.05
    assert rel.srel("snake", "green mamba") > 0.7

    cands = generate(record, fixture_store, hp, rel.srel)
    inst = build_instance(cands, hp, rel.srel)
    expected = brute_force(inst)
    got = solve_exact(inst)
    assert got == expected

    chosen = {r.label for r in extract_labels(got, cands)}
    assert "cucumber" not in chosen
    assert "snake" in chosen
    assert dict(zip(cands.box_ids, got.choice))["b3"] is None  # cucumber's box goes unlabeled
    report("coherence fixture (cucumber dropped, oracle-confirmed)")


def test_full_pipeline_determinism(fixtures_dir, tmp_path):
    """mine-vsim -> refine -> eval twice, byte-identical."""
    outputs = []
    for run in ("one", "two"):
        base = tmp_path / run
        base.mkdir()
        vsim_path, refined, metrics = (
            base / "vsim.tsv", base / "refined.jsonl", base / "metrics.tsv"
        )
        assert main(["mine-vsim", "--corpus", str(fixtures_dir / "corpus.jsonl"),
                     "--out", str(vsim_path)]) == 0
        assert main(["refine", "--detections", str(fixtures_dir / "detections.jsonl"),
                     "--out", str(refined),
                     "--vsim", str(vsim_path),
                     "--embeddings", str(fixtures_dir / "embeddings.txt"),
                     "--hypernyms", str(fixtures_dir / "hypernyms.tsv"),
                     "--assertions", str(fixtures_dir / "assertions.tsv"),
                     "--coloc", str(fixtures_dir / "coloc.tsv"),
                     "--allowlist", str(fixtures_dir / "allowlist.tsv")]) == 0
        assert main(["eval", "--system", f"sys={refined}",
                     "--judgments", str(fixtures_dir / "judgments.jsonl"),
                     "--out", str(metrics)]) == 0
        outputs.append((vsim_path.read_bytes(), refined.read_bytes(), metrics.read_bytes()))
    assert outputs[0] == outputs[1], "rerun differs"
    report("pipeline determinism (rerun byte-identical)")


def test_hash_seed_determinism(tmp_path):
    """refine writes the same bytes under any PYTHONHASHSEED.

    Each box holds three children of one hypernym whose relatedness to it is
    0.1, 0.2 and 0.3 (delta 0, co-location counts 1, 2 and 3 of a maximum
    of 10). Their sum, the hypernym's gconf and so the objective, differs in
    the last bit with summation order, so a sum taken in set order, which
    follows the string hash seed, would show in the output.
    """
    triples = [("ant", "bee", "cicada"), ("dog", "fox", "wolf"),
               ("oak", "elm", "ash"), ("cod", "eel", "ray")]
    detections, hypernyms, coloc = [], [], ["x\ty\t10"]
    for n, kids in enumerate(triples):
        parent = f"group {n}"
        detections.append(json.dumps({"image": f"i{n}", "boxes": [{"id": "b", "candidates": [
            {"label": kid, "conf": 0.01} for kid in kids]}]}))
        for count, kid in enumerate(kids, start=1):
            hypernyms.append(f"{kid}\t{parent}\t1")
            coloc.append(f"{kid}\t{parent}\t{count}")
    files = {"detections.jsonl": detections, "hypernyms.tsv": hypernyms, "coloc.tsv": coloc}
    for name, lines in files.items():
        (tmp_path / name).write_text("\n".join(lines) + "\n", encoding="utf-8")

    src = str(Path(tagrefine.__file__).resolve().parents[1])
    outputs = {}
    for seed in ("0", "1", "2", "3", "4", "5"):
        out = tmp_path / f"refined-{seed}.jsonl"
        env = {**os.environ, "PYTHONHASHSEED": seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        subprocess.run(
            [sys.executable, "-m", "tagrefine.cli", "refine",
             "--detections", str(tmp_path / "detections.jsonl"),
             "--hypernyms", str(tmp_path / "hypernyms.tsv"),
             "--coloc", str(tmp_path / "coloc.tsv"),
             "--delta", "0", "--kappa", "1", "--out", str(out)],
            env=env, check=True, stdout=subprocess.DEVNULL)
        outputs[seed] = out.read_bytes()
    assert all(b'"space": "XL"' in line for line in outputs["0"].splitlines())
    assert len(set(outputs.values())) == 1, "output depends on PYTHONHASHSEED"
    report("hash-seed determinism (refined JSONL byte-identical)")
