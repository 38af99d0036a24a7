"""Check that two source trees write byte-identical outputs.

    python3 tools/outputs_unchanged.py BASE CHANGE WORK

BASE and CHANGE are checkouts of this repository, BASE usually the commit a
change is made against. The seed-1 inputs of the four benchmark workloads
are generated once, under WORK/data, by BASE's `perfbench/gen.py`, which is
only read. Then each tree's `src` runs the same commands, from WORK/base and
WORK/change with the same relative output paths:

* `paper` and `wide`: `refine` with the benchmark's flags, and again with
  `--dump-lp`, with `--budget none --visir-star`, and with
  `--select-incoherent`;
* `tune`: the benchmark's `tune` run and its trial log;
* `mine`: the benchmark's `mine-vsim` run and its `vsim.tsv`;
* `fixture`: on BASE's `tests/fixtures` (only read), `mine-vsim`, then
  `refine` with the mined table, then `eval` of that output against the
  judgments, then `tune` with the gold labels.

Every file written, and every command's standard output and error, must be
the same byte for byte in both trees. Exits 1, naming each file that differs
or exists on one side only, when one does; 0 when none does.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SEED = 1
REFINE_VARIANTS = {
    "bench": [],
    "dump-lp": ["--dump-lp", "{out}/lp"],
    "budget-none-visir-star": ["--budget", "none", "--visir-star"],
    "select-incoherent": ["--select-incoherent"],
}
# {fx} is the fixtures directory, {out} the chain's output directory
FIXTURE_STORE = ["--vsim", "{out}/vsim.tsv", "--embeddings", "{fx}/embeddings.txt",
                 "--hypernyms", "{fx}/hypernyms.tsv", "--assertions", "{fx}/assertions.tsv",
                 "--coloc", "{fx}/coloc.tsv", "--allowlist", "{fx}/allowlist.tsv"]
FIXTURE_CHAIN = {
    "mine-vsim": ["mine-vsim", "--corpus", "{fx}/corpus.jsonl", "--out", "{out}/vsim.tsv"],
    "refine": ["refine", "--detections", "{fx}/detections.jsonl",
               "--out", "{out}/refined.jsonl", *FIXTURE_STORE],
    "eval": ["eval", "--system", "{out}/refined.jsonl", "--judgments", "{fx}/judgments.jsonl",
             "--out", "{out}/metrics.tsv"],
    "tune": ["tune", "--train", "{fx}/detections.jsonl", "--gold", "{fx}/gold.jsonl",
             "--trials", "5", "--seed", "11", "--out", "{out}/trials.tsv", *FIXTURE_STORE],
}


def env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def run(tree: Path, side: Path, log: str, argv: list[str]) -> None:
    """`tree`'s program on `argv`, in `side`; its standard output and error
    go to `log`/stdout and `log`/stderr."""
    (side / log).mkdir(parents=True)
    with open(side / log / "stdout", "wb") as so, open(side / log / "stderr", "wb") as se:
        subprocess.run([sys.executable, "-m", "tagrefine.cli", *argv], cwd=side,
                       env=env(tree), stdout=so, stderr=se, check=True)


def run_all(tree: Path, side: Path, data: Path, fixtures: Path) -> None:
    """Every command of the comparison, with `tree`'s program, under `side`."""
    from workloads import WORKLOADS, command_argv

    for name, w in WORKLOADS.items():
        variants = REFINE_VARIANTS if name in ("paper", "wide") else {"bench": []}
        for variant, extra in variants.items():
            out = f"{name}/{variant}"
            run(tree, side, out, [*command_argv(w, str(data / name), out),
                                  *(a.format(out=out) for a in extra)])
    for step, argv in FIXTURE_CHAIN.items():
        run(tree, side, f"fixture/{step}", [a.format(fx=fixtures, out="fixture") for a in argv])


def files(root: Path) -> dict[Path, bytes]:
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base, change, work = (Path(a).resolve() for a in argv)
    sys.path.insert(0, str(base / "perfbench"))
    from workloads import WORKLOADS

    if (work / "base").exists() or (work / "change").exists():
        print(f"{work} holds an earlier comparison; give an empty WORK", file=sys.stderr)
        return 2
    data = work / "data"
    for name in WORKLOADS:
        if not (data / name / "manifest.json").exists():
            subprocess.run([sys.executable, str(base / "perfbench" / "gen.py"),
                            "--workload", name, "--seed", str(SEED),
                            "--out", str(data / name)],
                           env=env(base), check=True, stdout=subprocess.DEVNULL)
    fixtures = base / "tests" / "fixtures"
    run_all(base, work / "base", data, fixtures)
    run_all(change, work / "change", data, fixtures)

    before, after = files(work / "base"), files(work / "change")
    differ = sorted(p for p in before.keys() | after.keys() if before.get(p) != after.get(p))
    for p in differ:
        where = "differs" if p in before and p in after else \
            f"only under {'base' if p in before else 'change'}"
        print(f"{p}: {where}")
    print(f"{len(before.keys() | after.keys())} files compared, {len(differ)} not the same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
