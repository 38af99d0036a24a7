"""The measured process: repeats one workload's `cli.main` call for a fixed time.

    PYTHONPATH=src python3 perfbench/measure.py --workload paper \
        --data DIR --out DIR --seconds 20 --trace 0

Each pass is one full `cli.main` call over the workload's input file. Passes
run back to back until `--seconds` have gone by; the last one is finished,
so every run attempts whole passes. With `--trace 0` only the set-up call is
timed (`cli.load_store`, or the corpus read for `mine`), and the per-pass
wall-clock times give the end-to-end figures. With `--trace 1` untraced and
traced passes alternate: the traced ones give the per-layer figures and the
ratio of the two gives the tracing overhead. A JSON summary goes to
`OUT/result.json` and, when traced, the spans to `OUT/spans.jsonl`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, command_argv, ops_per_pass  # noqa: E402

from tagrefine import cli  # noqa: E402

OUTPUT_FILE = {"mine": "vsim.tsv", "tune": "trials.tsv"}


def _completed(workload: str, stdout: str, out_file: Path) -> int:
    """Operations of one pass that produced a result, read from its outputs."""
    if workload == "mine":
        # "mined P label pairs over L labels from R records": R counts only
        # the records accumulated, not those skipped or rejected
        return int(stdout.split(" from ", 1)[1].split()[0])
    with open(out_file, encoding="utf-8") as fh:
        rows = sum(1 for _ in fh)
    if workload == "tune":
        wl = WORKLOADS[workload]
        return (rows - 1) * (ops_per_pass(wl) // wl.tune_trials)
    return rows


def run(workload: str, data: Path, out: Path, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    argv = command_argv(wl, str(data), str(out))
    out_file = out / OUTPUT_FILE.get(workload, "refined.jsonl")

    setup_name = "read_detections_jsonl" if workload == "mine" else "load_store"
    setup_fn = getattr(cli, setup_name)
    setup_times: list[float] = []

    def timed_setup(*args, **kwargs):
        t0 = perf_counter()
        try:
            return setup_fn(*args, **kwargs)
        finally:
            setup_times.append(perf_counter() - t0)

    setattr(cli, setup_name, timed_setup)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        spans_fh = open(out / "spans.jsonl", "w", encoding="utf-8")

    passes, layers = [], []
    start = perf_counter()
    try:
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            if traced:
                tracer.install()
            stdout = io.StringIO()
            t0 = perf_counter()
            with contextlib.redirect_stdout(stdout):
                rc = cli.main(argv)
            wall = perf_counter() - t0
            if traced:
                tracer.uninstall()
                spans, summary = tracer.take()
                for sid, span in enumerate(spans):
                    spans_fh.write(span.to_json(sid, len(passes)) + "\n")
                layers.append(summary)
            text = stdout.getvalue()
            done = _completed(workload, text, out_file) if rc == 0 else 0
            passes.append({
                "wall_s": wall, "setup_s": setup_times[-1], "rc": rc, "traced": traced,
                "attempted": ops_per_pass(wl), "completed": done, "stdout": text,
                "sha256": hashlib.sha256(out_file.read_bytes()).hexdigest() if rc == 0 else None,
            })
            elapsed = perf_counter() - start
            if elapsed >= seconds and (tracer is None or len(passes) >= 2):
                break
    finally:
        if tracer is not None:
            spans_fh.close()

    result = {"workload": workload, "passes": passes,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    plain = [p for p in passes if not p["traced"]]
    # `mine` has no store to load: its rate counts the whole command, corpus
    # read included, and the read is reported as its set-up time
    excluded = 0.0 if workload == "mine" else 1.0
    result["ops_per_s"] = median(
        p["completed"] / (p["wall_s"] - excluded * p["setup_s"]) for p in plain)
    result["setup_s"] = median(p["setup_s"] for p in plain)
    if layers:
        result["layers"] = {key: sum(layer[key] for layer in layers) / len(layers)
                            for key in layers[0]}
        result["layers"]["trace.overhead"] = (
            median(p["wall_s"] for p in passes if p["traced"])
            / median(p["wall_s"] for p in plain))
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--data", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = run(args.workload, Path(args.data), out, args.seconds, bool(args.trace))
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
