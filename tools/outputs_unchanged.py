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
  confidence, so one box's pairs are summed in many slices;
* `badlines`: `mine-vsim`, and `refine` with the fixture store, on a third
  corpus written there: 3,000 valid records, enough candidates for several
  chunks, with one line per fault the corpus reader skips spread among
  them (`FAULT_LINES`, lines of two or three faults included), comment and
  blank lines, so every warning the reader writes is compared.

Every file written, and every command's standard output and error, must be
the same byte for byte in both trees. Each command's wall time is printed
as it finishes, with the side that ran it, so a slower tree shows in the
log; the times are not compared. Exits 1, naming each file that differs
or exists on one side only, when one does; 0 when none does.
"""

from __future__ import annotations

import json
import math
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


# labels of the fixture store, so `refine` has knowledge of some of them
FIXTURE_LABELS = ["snake", "green mamba", "cucumber", "zucchini", "person", "racket",
                  "tennis ball", "dog", "cat"]


def candidate(label, conf) -> dict:
    return {"label": label, "conf": conf}


def line(image, *boxes) -> str:
    """A corpus line of `boxes`, each (id, [candidate, ...])."""
    return json.dumps({"image": image, "boxes": [{"id": box_id, "candidates": cands}
                                                 for box_id, cands in boxes]})


# one line per fault the corpus reader skips; each is named by what it holds
GOOD = [candidate("snake", 0.5), candidate("dog", 0.25)]
FAULT_LINES = [
    "{broken",  # not JSON
    '{"image": "x", "boxes": []} trailing',  # extra data after the value
    "\ufeff" + line("bom", ("b", GOOD)),  # a byte order mark
    "[1, 2]", '"text"', "7", "null",  # not an object
    json.dumps({"boxes": []}),  # no image id
    line(7, ("b", GOOD)), line(None, ("b", GOOD)), line(["i"], ("b", GOOD)),
    line("bad-box-id", (3.5, GOOD)), line("null-box-id", (None, GOOD)),
    json.dumps({"image": "no-box-id", "boxes": [{"candidates": GOOD}]}),
    json.dumps({"image": "box-not-object", "boxes": ["b"]}),
    json.dumps({"image": "cand-not-object", "boxes": [{"id": "b", "candidates": ["dog"]}]}),
    json.dumps({"image": "no-conf", "boxes": [{"id": "b", "candidates": [{"label": "dog"}]}]}),
    json.dumps({"image": "no-label", "boxes": [{"id": "b", "candidates": [{"conf": 0.5}]}]}),
    line("label-number", ("b", [candidate(7, 0.5)])),
    line("label-list", ("b", [candidate(["dog"], 0.5)])),
    line("label-empty", ("b", [candidate("  ", 0.5)])),
    line("conf-bool", ("b", [candidate("dog", True)])),
    line("conf-string", ("b", [candidate("dog", "0.5")])),
    line("conf-null", ("b", [candidate("dog", None)])),
    line("conf-past-doubles", ("b", [candidate("dog", 10 ** 400)])),
    line("conf-zero", ("b", [candidate("dog", 0)])),
    line("conf-zero-float", ("b", [candidate("dog", 0.0)])),
    line("conf-negative", ("b", [candidate("dog", -0.5)])),
    line("conf-nan", ("b", [candidate("dog", math.nan)])),
    line("conf-inf", ("b", [candidate("dog", math.inf)])),
    line("conf-minus-inf", ("b", [candidate("dog", -math.inf)])),
    '{"image": "conf-1e400", "boxes": [{"id": "b", "candidates": '
    '[{"label": "dog", "conf": 1e400}]}]}',
    line("surrogate-\ud800", ("b", GOOD)),
    line("surrogate-box", ("b\udfff", GOOD)),
    line("surrogate-label", ("b", [candidate("dog", 0.5), candidate("x\ud800y", 0.5)])),
    line("dup-box", ("b", GOOD), ("b", GOOD)),
    line("dup-label", ("b", [candidate("dog", 0.5), candidate(" Dog", 0.25)])),
    line("r000003", ("b", GOOD)),  # the image id of a record kept before
    # two or three faults: a type fault wins wherever it is; invariants
    # break in the record's order: image id, then per box its id, then per
    # candidate its label, confidence and repeat
    line("multi-1-\ud800", ("b", [candidate("dog", "high")])),
    line("multi-2", ("b", [candidate("dog", -1.0)]), ("c", [candidate(7, 0.5)])),
    line("multi-3", ("b\ud800", [candidate("dog", 0.0)])),
    line("multi-4", ("b", [candidate("dog", 0.0), candidate("dog", 0.5)])),
    line("multi-5", ("b", [candidate("dog", 0.5), candidate("dog", 0.0)])),
    line("multi-6", ("b", [candidate("x\udc00", math.nan)])),
    line("multi-7", ("b", GOOD), ("b", [candidate("x\udc00", 0.5)])),
    line("multi-8", ("b", [candidate("cat", math.inf)]), ("b", GOOD)),
    line("multi-9-\udc00", ("b", GOOD), ("b", [candidate("dog", 0.0)])),
    line("multi-10", ("b", [candidate("dog", 0.0)]), (None, GOOD)),
    # a repeated image id with a box of no id, or of a lone surrogate
    json.dumps({"image": "r000005", "boxes": [{"id": "b", "candidates": [
        {"label": "dog", "conf": 0.5}]}, {"candidates": []}]}),
    line("r000007", ("b\ud800", GOOD), ("b", [candidate("dog", True)])),
]


def write_badlines_corpus(path: Path, n_records: int = 3000) -> None:
    """Valid records whose candidates fill several chunks, with the lines
    of `FAULT_LINES` spread among them, comment and blank lines, and valid
    lines that only blanks around them keep from being one JSON value."""
    rng = random.Random(SEED)
    labels = FIXTURE_LABELS + [f"label {n}" for n in range(40)]
    faults = iter(FAULT_LINES)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for n in range(n_records):
            boxes = [(f"b{b}", [candidate(label, rng.choice(CONF_CLASSES[0]))
                                for label in rng.sample(labels, rng.randint(1, 5))])
                     for b in range(rng.randint(1, 3))]
            text = line(f"r{n:06d}", *boxes)
            if n % 500 == 11:
                text = f"  {text}\t "
            fh.write(text + "\n")
            if n % 60 == 5:
                fh.write(next(faults, "# no fault left") + "\n")
            if n % 700 == 3:
                fh.write("\n   \n# a comment\n\t# another\n")
        for text in faults:
            fh.write(text + "\n")


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
    for corpus in ("rescale", "bigbox", "badlines"):
        run(tree, side, f"{corpus}/mine-vsim", ["mine-vsim", "--corpus",
                                                str(data / corpus / "corpus.jsonl"),
                                                "--out", f"{corpus}/vsim.tsv"])
    run(tree, side, "badlines/refine", [
        "refine", "--detections", str(data / "badlines" / "corpus.jsonl"),
        "--out", "badlines/refined.jsonl",
        *(a.format(fx=fixtures, out="fixture") for a in FIXTURE_STORE)])


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
    write_badlines_corpus(data / "badlines" / "corpus.jsonl")
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
