"""Seeded, download-free input generator for one benchmark workload.

    PYTHONPATH=src python3 perfbench/gen.py --workload paper --seed 1 --out DIR

Writes the knowledge files (embeddings, hypernyms, allowlist, assertions,
co-location counts), the detections to refine and, for `tune`, gold labels.
The similarity table the refine workloads read is mined from a generated
corpus by the program's own `mine-vsim`. For `mine` only the corpus is
written. The same workload and seed give byte-identical files.

The generator runs in its own process, before and apart from the measured
one, so the measured process's peak RSS holds only the program.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import TAU_S, WORKLOADS, Workload, World  # noqa: E402

RELATIONS = ("usedFor", "hasProperty")


def _conf(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 3)


class Vocabulary:
    """Scenes > categories > confusable clusters of concrete labels, plus
    abstract labels attached to categories."""

    def __init__(self, w: World):
        self.scenes = [f"scene{s:02d}" for s in range(w.scenes)]
        self.categories: list[tuple[str, int]] = []       # (label, scene index)
        self.clusters: dict[tuple[int, int], list[str]] = {}  # (category, size) -> labels
        self.abstract: dict[int, list[str]] = {}          # category -> abstract labels
        self.category_of: dict[str, int] = {}
        self.cluster_of: dict[str, tuple[int, int]] = {}
        n_obj = n_abs = 0
        for s in range(w.scenes):
            for _ in range(w.categories_per_scene):
                c = len(self.categories)
                self.categories.append((f"cat{c:03d}", s))
                for size in w.cluster_sizes:
                    members = [f"obj{n_obj + i:05d}" for i in range(size)]
                    n_obj += size
                    self.clusters[(c, size)] = members
                    for label in members:
                        self.category_of[label] = c
                        self.cluster_of[label] = (c, size)
                self.abstract[c] = [f"prop{n_abs + i:05d}" for i in range(w.abstract_per_category)]
                n_abs += w.abstract_per_category
        self.concrete = sorted(self.category_of)
        self.all_abstract = [a for c in range(len(self.categories)) for a in self.abstract[c]]

    def categories_of_scene(self, s: int) -> list[int]:
        return [c for c, (_, scene) in enumerate(self.categories) if scene == s]


def write_embeddings(path: Path, vocab: Vocabulary, dim: int, nrng: np.random.Generator) -> int:
    """Gaussian vectors, nested so that labels of one cluster, category or
    scene point the same way."""
    scene_c = nrng.normal(size=(len(vocab.scenes), dim))
    cat_c = np.stack([scene_c[s] + 0.8 * nrng.normal(size=dim) for _, s in vocab.categories])
    rows: list[tuple[str, np.ndarray]] = []
    for s, label in enumerate(vocab.scenes):
        rows.append((label, scene_c[s]))
    for c, (label, _) in enumerate(vocab.categories):
        rows.append((label, cat_c[c] + 0.3 * nrng.normal(size=dim)))
    for (c, _size), members in vocab.clusters.items():
        center = cat_c[c] + 0.6 * nrng.normal(size=dim)
        for label in members:
            rows.append((label, center + 0.5 * nrng.normal(size=dim)))
    for c, labels in vocab.abstract.items():
        for label in labels:
            rows.append((label, cat_c[c] + 1.0 * nrng.normal(size=dim)))
    with open(path, "w", encoding="utf-8") as fh:
        for label, vec in rows:
            fh.write(label + " " + " ".join(f"{x:.4f}" for x in vec.tolist()) + "\n")
    return len(rows)


def write_knowledge(out: Path, w: World, vocab: Vocabulary, rng: random.Random) -> dict:
    with open(out / "hypernyms.tsv", "w", encoding="utf-8") as fh:
        for label in vocab.concrete:
            c = vocab.category_of[label]
            cat, scene = vocab.categories[c]
            fh.write(f"{label}\t{cat}\t1\n")
            if w.hyper_levels >= 2:
                fh.write(f"{label}\t{vocab.scenes[scene]}\t2\n")
    with open(out / "allowlist.tsv", "w", encoding="utf-8") as fh:
        for label in [cat for cat, _ in vocab.categories] + vocab.scenes:
            fh.write(f"{label}\t{rng.randint(50, 1000)}\n")

    n_assert = 0
    with open(out / "assertions.tsv", "w", encoding="utf-8") as fh:
        for label in vocab.concrete:
            own = vocab.abstract[vocab.category_of[label]]
            objects: list[str] = []
            while len(objects) < w.assertions_per_label:
                pool = own if rng.random() < 0.75 else vocab.all_abstract
                obj = rng.choice(pool)
                if obj not in objects:
                    objects.append(obj)
            for obj in objects:
                fh.write(f"{label}\t{rng.choice(RELATIONS)}\t{obj}\t{_conf(rng, 0.05, 1.0)}\n")
                n_assert += 1

    pairs: dict[tuple[str, str], int] = {}
    for label in vocab.concrete:
        scene = vocab.categories[vocab.category_of[label]][1]
        cats = vocab.categories_of_scene(scene)
        for _ in range(w.coloc_per_label):
            c = rng.choice(cats)
            size = rng.choice(w.cluster_sizes)
            other = rng.choice(vocab.clusters[(c, size)])
            if other != label:
                key = (label, other) if label < other else (other, label)
                pairs[key] = rng.randint(1, 200)
    with open(out / "coloc.tsv", "w", encoding="utf-8") as fh:
        for (a, b), n in sorted(pairs.items()):
            fh.write(f"{a}\t{b}\t{n}\n")
    return {"assertions": n_assert, "coloc_pairs": len(pairs)}


def write_vsim_corpus(path: Path, w: World, vocab: Vocabulary, rng: random.Random) -> int:
    """Boxes hold a whole cluster or all but one member of it (dropped in
    turn), with confident scores, so every pair inside a cluster mines well
    above tau_s and no pair across clusters mines at all."""
    boxes = []
    for members in vocab.clusters.values():
        for k in range(w.vsim_boxes_per_cluster):
            labels = list(members)
            if k > 0 and len(labels) > 2:
                del labels[(k - 1) % len(labels)]
            rng.shuffle(labels)
            boxes.append([(label, _conf(rng, 0.5, 0.95)) for label in labels])
    rng.shuffle(boxes)
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(0, len(boxes), 2):
            record = {"image": f"v{n // 2:06d}", "boxes": [
                {"id": f"b{i}", "candidates": [{"label": lab, "conf": cf} for lab, cf in box]}
                for i, box in enumerate(boxes[n:n + 2])
            ]}
            fh.write(json.dumps(record) + "\n")
    return len(boxes)


def write_detections(out: Path, wl: Workload, vocab: Vocabulary, rng: random.Random) -> None:
    """Images draw every box from one scene, except that a quarter of them
    carry one box from another scene: the incoherent detection to drop."""
    images = []
    for n_boxes, count, d, size in wl.images:
        for _ in range(count):
            scene = rng.randrange(len(vocab.scenes))
            odd = rng.randrange(n_boxes) if rng.random() < 0.25 else None
            boxes, gold = [], []
            for i in range(n_boxes):
                s = rng.randrange(len(vocab.scenes)) if i == odd else scene
                members = vocab.clusters[(rng.choice(vocab.categories_of_scene(s)), size)]
                labels = rng.sample(members, d)
                confs = sorted((_conf(rng, 0.05, 0.95) for _ in labels), reverse=True)
                boxes.append([(lab, cf) for lab, cf in zip(labels, confs)])
                # the detector's top guess is right about two times in three
                gold.append(labels[0] if rng.random() < 0.67 else rng.choice(members))
            images.append((boxes, gold))
    rng.shuffle(images)
    with open(out / "detections.jsonl", "w", encoding="utf-8") as fh:
        for n, (boxes, _) in enumerate(images):
            record = {"image": f"img{n:04d}", "boxes": [
                {"id": f"b{i}", "candidates": [{"label": lab, "conf": cf} for lab, cf in box]}
                for i, box in enumerate(boxes)
            ]}
            fh.write(json.dumps(record) + "\n")
    if wl.tune_trials:
        with open(out / "gold.jsonl", "w", encoding="utf-8") as fh:
            for n, (_, gold) in enumerate(images):
                fh.write(json.dumps({"image": f"img{n:04d}", "labels": sorted(set(gold))}) + "\n")


def write_mine_corpus(path: Path, wl: Workload, rng: random.Random) -> None:
    """Records of 1-3 boxes; a box holds 2..S members of one confusable
    cluster and, one time in five, a stray label from anywhere."""
    labels = [f"obj{n:05d}" for n in range(wl.mine_labels)]
    clusters, n = [], 0
    while n < len(labels):
        size = rng.randint(3, 6)
        if len(labels) - n - size < 3:
            size = len(labels) - n  # no cluster of fewer than three
        clusters.append(labels[n:n + size])
        n += size
    with open(path, "w", encoding="utf-8") as fh:
        for r in range(wl.mine_records):
            boxes = []
            for i in range(rng.randint(1, 3)):
                members = rng.choice(clusters)
                picked = rng.sample(members, rng.randint(2, len(members)))
                if rng.random() < 0.2:
                    stray = rng.choice(labels)
                    if stray not in picked:
                        picked.append(stray)
                boxes.append({"id": f"b{i}", "candidates": [
                    {"label": lab, "conf": _conf(rng, 0.01, 0.99)} for lab in picked]})
            fh.write(json.dumps({"image": f"r{r:06d}", "boxes": boxes}) + "\n")


def check_similarity(vsim_path: Path, vocab: Vocabulary) -> None:
    """Fail loudly if mining did not give the designed similar-label growth."""
    linked = set()
    with open(vsim_path, encoding="utf-8") as fh:
        for line in fh:
            a, b, score = line.rstrip("\n").split("\t")
            if vocab.cluster_of[a] != vocab.cluster_of[b]:
                raise SystemExit(f"gen: cross-cluster similarity {a} {b}")
            if float(score) < TAU_S:
                raise SystemExit(f"gen: in-cluster similarity {a} {b} = {score} below tau_s")
            linked.add((a, b))
    expected = sum(len(m) * (len(m) - 1) // 2 for m in vocab.clusters.values())
    if len(linked) != expected:
        raise SystemExit(f"gen: {len(linked)} similar pairs mined, {expected} expected")


def generate(workload: str, seed: int, out: Path) -> dict:
    wl = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    out.mkdir(parents=True, exist_ok=True)
    if workload == "mine":
        write_mine_corpus(out / "corpus.jsonl", wl, rng)
        return {"workload": workload, "seed": seed, "records": wl.mine_records,
                "labels": wl.mine_labels}

    nrng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    vocab = Vocabulary(wl.world)
    n_vectors = write_embeddings(out / "embeddings.txt", vocab, wl.world.dim, nrng)
    stats = write_knowledge(out, wl.world, vocab, rng)
    n_boxes = write_vsim_corpus(out / "vsim_corpus.jsonl", wl.world, vocab, rng)
    write_detections(out, wl, vocab, rng)

    from tagrefine import cli

    rc = cli.main(["mine-vsim", "--corpus", str(out / "vsim_corpus.jsonl"),
                   "--out", str(out / "vsim.tsv")])
    if rc != 0:
        raise SystemExit(f"gen: mine-vsim exited {rc}")
    check_similarity(out / "vsim.tsv", vocab)
    return {"workload": workload, "seed": seed, "concrete_labels": len(vocab.concrete),
            "categories": len(vocab.categories), "scenes": len(vocab.scenes),
            "abstract_labels": len(vocab.all_abstract), "vectors": n_vectors,
            "dim": wl.world.dim, "vsim_corpus_boxes": n_boxes, **stats}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    out = Path(args.out)
    manifest = generate(args.workload, args.seed, out)
    (out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
