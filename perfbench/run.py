"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. Three steps, each its own process
or outside the timed region:

1. `gen.py` writes the workload's inputs for the seed (cached under
   `.perfbench/data/`, keyed by workload, seed and generator source).
2. `measure.py` runs the workload's `cli.main` call in passes for
   `--seconds` seconds, traced or not.
3. The outputs are checked here (`checks.py`) and one JSON line is printed
   last: `correct`, `attempted`, `failed` and `metrics`. With `--trace 0`
   the metrics are the end-to-end ones, with `--trace 1` the per-layer ones.

Details of the run (pass times, check results) go to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"

END_TO_END = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MiB"}
PER_LAYER_UNITS = {"_s": "s", "_ms_p50": "ms", "_ms_p95": "ms", "_ms_max": "ms"}


def layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def inputs(workload: str, seed: int) -> Path:
    """Generate the inputs for this workload and seed, unless already there."""
    source = hashlib.sha256()
    for name in ("gen.py", "workloads.py"):
        source.update((HERE / name).read_bytes())
    data = WORK / "data" / f"{workload}-{seed}-{source.hexdigest()[:12]}"
    if (data / "manifest.json").exists():
        return data
    tmp = data.with_name(data.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--out", str(tmp)],
                   env=_env(), check=True, timeout=150, stdout=subprocess.DEVNULL)
    tmp.rename(data)
    return data


def verify(workload: str, seed: int, data: Path, out: Path, result: dict) -> list[str]:
    """Every correctness check for this workload; returns the errors found."""
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    import checks

    errors = []
    shas = {p["sha256"] for p in result["passes"]}
    if len(shas) != 1:
        errors.append(f"passes wrote {len(shas)} different outputs")
    store = checks.program_store(data) if workload != "mine" else None
    if workload in ("paper", "wide"):
        inp = checks.Inputs.read(data)
        errors += checks.check_refined(out / "refined.jsonl", inp)
        sample = checks.highs_sample(inp, workload, seed)
        errors += checks.check_optimal(out / "refined.jsonl", data, store, sample)
        print(f"HiGHS confirmed the optimum of {', '.join(sample)}", file=sys.stderr)
    elif workload == "tune":
        errors += checks.check_tune(out / "trials.tsv", result["passes"][-1]["stdout"],
                                    data, store)
    else:
        errors += checks.check_vsim(out / "vsim.tsv", data / "corpus.jsonl")

    digest = checks.output_digest(workload, out)
    stored = json.loads((HERE / "digests.json").read_text()).get(f"{workload}/{seed}")
    if stored is None:
        print(f"digest {digest}: none stored for {workload}/{seed}", file=sys.stderr)
    elif stored != digest:
        errors.append(f"output digest {digest} differs from the stored {stored}")
    else:
        print(f"digest {digest} matches the stored one", file=sys.stderr)
    return errors


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "tagrefine" / "cli.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    data = inputs(args.workload, args.seed)
    out = WORK / "runs" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    subprocess.run([sys.executable, str(HERE / "measure.py"), "--workload", args.workload,
                    "--data", str(data), "--out", str(out), "--seconds", str(args.seconds),
                    "--trace", str(args.trace)],
                   env=_env(), check=True, timeout=args.seconds + 120,
                   stdout=subprocess.DEVNULL)
    result = json.loads((out / "result.json").read_text())
    for p in result["passes"]:
        print(f"pass: {p['wall_s']:.3f} s, set-up {p['setup_s']:.3f} s, "
              f"{p['completed']}/{p['attempted']} done{', traced' if p['traced'] else ''}",
              file=sys.stderr)

    try:
        errors = verify(args.workload, args.seed, data, out, result)
    except Exception as exc:  # a malformed output must read as incorrect, not crash
        errors = [f"checks raised {exc!r}"]
    for e in errors[:20]:
        print(f"check failed: {e}", file=sys.stderr)
    attempted = sum(p["attempted"] for p in result["passes"])
    failed = attempted - sum(p["completed"] for p in result["passes"])
    if args.trace:
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in result["layers"].items()}
    else:
        metrics = {k: {"value": result[k], "unit": u} for k, u in END_TO_END.items()}
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
