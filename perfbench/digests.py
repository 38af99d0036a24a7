"""Make the stored output digests anew.

    python3 perfbench/digests.py --seeds 0-23 [--workload paper]

For every workload and seed, generates the inputs, runs one untimed pass of
the program and records the digest of its output in `perfbench/digests.json`
(refined labels for `paper` and `wide`, the trial log for `tune`, the mined
table for `mine`). Every benchmark run compares its output with the stored
digest for its workload and seed, so a change that alters refined labels
fails the run. Only make the digests anew when a change of outputs is
intended, and say so with the change.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))
import checks  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", required=True, help="inclusive range, as in 0-23")
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="only this one")
    args = ap.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split("-"))
    path = run.HERE / "digests.json"
    stored = json.loads(path.read_text()) if path.exists() else {}
    for workload in [args.workload] if args.workload else WORKLOADS:
        for seed in range(lo, hi + 1):
            data = run.inputs(workload, seed)
            out = run.WORK / "runs" / f"{workload}-{seed}-digest"
            subprocess.run([sys.executable, str(run.HERE / "measure.py"),
                            "--workload", workload, "--data", str(data), "--out", str(out),
                            "--seconds", "0"], env=run._env(), check=True,
                           stdout=subprocess.DEVNULL)
            stored[f"{workload}/{seed}"] = checks.output_digest(workload, Path(out))
            print(f"{workload}/{seed} {stored[f'{workload}/{seed}']}", flush=True)
    path.write_text(json.dumps(dict(sorted(stored.items())), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
