"""Tests of the benchmark's own checks: each must reject a corrupted output.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import gen  # noqa: E402
from workloads import WORKLOADS, command_argv  # noqa: E402

from tagrefine import cli  # noqa: E402

SEED = 3


@pytest.fixture(scope="module")
def refined(tmp_path_factory):
    """The small `tune` world, refined once as the refine workloads run it."""
    data = tmp_path_factory.mktemp("data")
    gen.generate("tune", SEED, data)
    out = tmp_path_factory.mktemp("out")
    assert cli.main(command_argv(WORKLOADS["paper"], str(data), str(out))) == 0
    return data, out / "refined.jsonl", checks.Inputs.read(data)


def _corrupt(path: Path, tmp_path: Path, edit) -> Path:
    records = [json.loads(line) for line in path.read_text().splitlines()]
    edit(records)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("".join(json.dumps(r) + "\n" for r in records))
    return bad


def _first_with(records, pred):
    return next(r for r in records if pred(r))


def test_intact_output_passes(refined):
    data, out, inp = refined
    assert checks.check_refined(out, inp) == []


def test_rejects_label_over_budget(refined, tmp_path):
    data, out, inp = refined

    def edit(records):
        r = _first_with(records, lambda r: r["labels"])
        r["labels"] += [dict(r["labels"][-1]) for _ in range(6 - len(r["labels"]))]

    errors = checks.check_refined(_corrupt(out, tmp_path, edit), inp)
    assert any("exceed the budget" in e for e in errors)


def test_rejects_label_of_no_box(refined, tmp_path):
    data, out, inp = refined

    def edit(records):
        r = _first_with(records, lambda r: any(e["box"] != "GLOBAL" for e in r["labels"]))
        entry = next(e for e in r["labels"] if e["box"] != "GLOBAL")
        entry["label"] = "obj99999"

    errors = checks.check_refined(_corrupt(out, tmp_path, edit), inp)
    assert any("is no candidate of box" in e for e in errors)


def test_rejects_wrong_space(refined, tmp_path):
    data, out, inp = refined

    def edit(records):
        r = _first_with(records, lambda r: any(e["space"] == "CL" for e in r["labels"]))
        next(e for e in r["labels"] if e["space"] == "CL")["space"] = "XL"

    errors = checks.check_refined(_corrupt(out, tmp_path, edit), inp)
    assert any("its origin gives CL" in e for e in errors)


def test_rejects_objective_off(refined, tmp_path):
    data, out, inp = refined

    def edit(records):
        records[0]["objective"] += 1e-6

    bad = _corrupt(out, tmp_path, edit)
    assert any("recomputed" in e for e in checks.check_refined(bad, inp))


def test_highs_rejects_objective_off(refined, tmp_path):
    data, out, inp = refined
    store = checks.program_store(data)
    image = inp.images[0][0]
    assert checks.check_optimal(out, data, store, [image]) == []

    def edit(records):
        records[0]["objective"] *= 0.99

    bad = _corrupt(out, tmp_path, edit)
    assert any("HiGHS optimum" in e for e in checks.check_optimal(bad, data, store, [image]))


def test_rejects_vsim_score_off(refined, tmp_path):
    data, _, _ = refined
    corpus, table = data / "vsim_corpus.jsonl", data / "vsim.tsv"
    assert checks.check_vsim(table, corpus) == []
    rows = table.read_text().splitlines()
    a, b, score = rows[0].split("\t")
    rows[0] = f"{a}\t{b}\t{float(score) + 1e-5:.6f}"
    bad = tmp_path / "vsim.tsv"
    bad.write_text("\n".join(rows) + "\n")
    assert any("recomputed" in e for e in checks.check_vsim(bad, corpus))


def test_digest_ignores_objective_not_labels(refined, tmp_path):
    _, out, _ = refined
    base = checks.refined_digest(out)

    def nudge(records):
        records[0]["objective"] += 1.0

    assert checks.refined_digest(_corrupt(out, tmp_path, nudge)) == base

    def relabel(records):
        r = _first_with(records, lambda r: r["labels"])
        r["labels"][0]["label"] += "x"

    assert checks.refined_digest(_corrupt(out, tmp_path, relabel)) != base


@pytest.mark.parametrize("workload", ["tune", "mine"])
def test_generator_is_byte_identical_per_seed(workload, tmp_path):
    first, second = tmp_path / "a", tmp_path / "b"
    gen.generate(workload, SEED, first)
    gen.generate(workload, SEED, second)
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
    other = tmp_path / "c"
    gen.generate(workload, SEED + 1, other)
    assert (other / names[0]).read_bytes() != (first / names[0]).read_bytes()
