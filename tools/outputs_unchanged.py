"""Check that two source trees write byte-identical outputs.

    python3 tools/outputs_unchanged.py BASE CHANGE WORK

BASE and CHANGE are checkouts of this repository, BASE usually the commit a
change is made against. The seed-1 inputs of the four benchmark workloads
are generated once, under WORK/data, by BASE's `perfbench/gen.py`, which is
only read. Then each tree's `src` runs the same commands, from WORK/base and
WORK/change with the same relative output paths:

* `paper` and `wide`: `refine` with the benchmark's flags, and again with
  `--dump-lp`, with `--budget none --visir-star`, with
  `--select-incoherent`, and with `--tau-s 0.75`;
* `tune`: the benchmark's `tune` run and its trial log;
* `mine`: the benchmark's `mine-vsim` run and its `vsim.tsv`;
* `fixture`: on BASE's `tests/fixtures` (only read), `mine-vsim`, then
  `refine` with the mined table, then `eval` of that output against the
  judgments, then `tune` with the gold labels;
* `rescale`: `mine-vsim` on a corpus this tool writes under WORK/data,
  whose confidences span the double range (subnormals up to 1e308, mixed
  within boxes), so the sums change scale part way through;
* `bigbox`: `mine-vsim` on a second corpus written there, a few dozen
  records whose boxes hold 200-400 candidates from every class of
  confidence, so one box's pairs are summed in many slices.

Every file written, and every command's standard output and error, must be
the same byte for byte in both trees. Each command's wall time is printed
as it finishes, with the side that ran it, so a slower tree shows in the
log; the times are not compared. Exits 1, naming each file that differs
or exists on one side only, when one does; 0 when none does.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

SEED = 1
REFINE_VARIANTS = {
    "bench": [],
    "dump-lp": ["--dump-lp", "{out}/lp"],
    "budget-none-visir-star": ["--budget", "none", "--visir-star"],
    "select-incoherent": ["--select-incoherent"],
    # every benchmark vsim score is at least 0.395, so at the benchmark's
    # tau_s nothing is filtered; at 0.75 some similar labels' vconf sums
    # hold terms below the threshold
    "tau-s-0.75": ["--tau-s", "0.75"],
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


# label n draws its confidences from class n % 4, so each class's pairs get
# scores that its own magnitudes decide
CONF_CLASSES = [
    [0.05, 0.25, 0.5, 0.87, 1.0],
    [5e-324, 1e-323, 2.5e-323, 2.2250738585072014e-308],
    [2.0 ** -70, 1e-300, 3e-300],
    [3.0, 1e308, 1.7976931348623157e308],
]


def write_rescale_corpus(path: Path, n_records: int = 600, n_labels: int = 40) -> None:
    """A corpus of valid records. The first third's labels are those with
    plain decimal confidences, so the sums are held at one scale before the
    first subnormal or tiny confidence raises it, often part way through a
    box; the rest mix every class of label within a box."""
    rng = random.Random(SEED)
    plain = [n for n in range(n_labels) if n % len(CONF_CLASSES) == 0]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(n_records):
            pool = plain if n < n_records // 3 else range(n_labels)
            boxes = [{"id": f"b{b}", "candidates": [
                {"label": f"label {m}", "conf": rng.choice(CONF_CLASSES[m % len(CONF_CLASSES)])}
                for m in rng.sample(pool, rng.randint(1, min(5, len(pool))))]}
                for b in range(rng.randint(1, 3))]
            fh.write(json.dumps({"image": f"i{n}", "boxes": boxes}) + "\n")


def write_bigbox_corpus(path: Path, n_records: int = 24, n_labels: int = 600) -> None:
    """A corpus of valid records of 1-2 boxes of 200-400 candidates each,
    label n drawing its confidences from class n % 4."""
    rng = random.Random(SEED)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(n_records):
            boxes = [{"id": f"b{b}", "candidates": [
                {"label": f"label {m}", "conf": rng.choice(CONF_CLASSES[m % len(CONF_CLASSES)])}
                for m in rng.sample(range(n_labels), rng.randint(200, 400))]}
                for b in range(rng.randint(1, 2))]
            fh.write(json.dumps({"image": f"i{n}", "boxes": boxes}) + "\n")


def env(tree: Path) -> dict:
    return dict(os.environ, PYTHONPATH=str(tree / "src"))


def run(tree: Path, side: Path, log: str, argv: list[str]) -> None:
    """`tree`'s program on `argv`, in `side`; its standard output and error
    go to `log`/stdout and `log`/stderr, and its wall time is printed."""
    (side / log).mkdir(parents=True)
    start = time.perf_counter()
    with open(side / log / "stdout", "wb") as so, open(side / log / "stderr", "wb") as se:
        subprocess.run([sys.executable, "-m", "tagrefine.cli", *argv], cwd=side,
                       env=env(tree), stdout=so, stderr=se, check=True)
    print(f"{side.name} {log}: {time.perf_counter() - start:.2f} s", flush=True)


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
    for corpus in ("rescale", "bigbox"):
        run(tree, side, f"{corpus}/mine-vsim", ["mine-vsim", "--corpus",
                                                str(data / corpus / "corpus.jsonl"),
                                                "--out", f"{corpus}/vsim.tsv"])


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
    write_rescale_corpus(data / "rescale" / "corpus.jsonl")
    write_bigbox_corpus(data / "bigbox" / "corpus.jsonl")
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
