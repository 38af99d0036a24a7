"""Confirm with HiGHS that every image of a refine workload got its optimum.

    python3 perfbench/optimality.py --workload paper --seed 1

Each benchmark run confirms a seeded sample of small images only; this
command checks every image of one workload and seed, which takes minutes.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from time import perf_counter

import run

sys.path.insert(0, str(run.ROOT / "src"))
import checks  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("paper", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    data = run.inputs(args.workload, args.seed)
    out = run.WORK / "runs" / f"{args.workload}-{args.seed}-optimality"
    subprocess.run([sys.executable, str(run.HERE / "measure.py"), "--workload", args.workload,
                    "--data", str(data), "--out", str(out), "--seconds", "0"],
                   env=run._env(), check=True, stdout=subprocess.DEVNULL)
    store = checks.program_store(data)
    failures = 0
    images = checks.Inputs.read(data).images
    for image, boxes in images:
        t0 = perf_counter()
        errors = checks.check_optimal(out / "refined.jsonl", data, store, [image])
        failures += bool(errors)
        print(f"{image} {len(boxes)} boxes {perf_counter() - t0:.2f} s "
              f"{'; '.join(errors) or 'optimal'}", flush=True)
    print(f"{failures} of {len(images)} images are not optimal")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
