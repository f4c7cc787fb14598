"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/baseline.py --workloads noisy-tree-exact site-battery \
        --seeds 201-210 [--trace-seed 201] [--write bench/BASELINE.json]

Runs are sequential, one fresh interpreter each, with BENCHMARK.json's
``run_seconds``.  For every workload and end-to-end metric it prints the
median of the runs and the spread: the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median,
next to a third of the metric's bound.  ``--trace-seed`` adds one traced run
per workload for the per-layer numbers.  ``--write`` stores everything as
the baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


REASONS = "failures by mode and reason: "


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The result line of one run, with its failure breakdown as ``reasons``."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(trace)],
                         cwd=ROOT, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    result["reasons"] = next((json.loads(line[len(REASONS):]) for line in lines
                              if line.startswith(REASONS)), {})
    return result


def main() -> int:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in config["workloads"]])
    parser.add_argument("--seeds", type=seeds, default=seeds("201-210"))
    parser.add_argument("--trace-seed", type=int)
    parser.add_argument("--write", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seconds = config["run_seconds"]
    baseline = {"machine": f"{platform.machine()}, {platform.python_implementation()} "
                           f"{platform.python_version()}",
                "run_seconds": seconds, "seeds": args.seeds,
                "end_to_end": {}, "errors": {}, "per_layer": {}}
    steady = True
    for workload in args.workloads:
        results = []
        for seed in args.seeds:
            results.append(run(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: " + json.dumps(
                {k: round(v["value"], 4) for k, v in results[-1]["metrics"].items()}),
                flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            summary[name] = {"unit": results[0]["metrics"][name]["unit"],
                             "median": median, "q1": q1, "q3": q3,
                             "spread": round(spread, 4)}
            print(f"  {workload:18} {name:12} median {median:10.4f}  spread {spread:.4f}"
                  f"  (a third of the bound: {bound / 3:.4f}){'' if ok else '  WIDE'}")
        baseline["end_to_end"][workload] = summary
        baseline["errors"][workload] = {
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "reasons": [r["reasons"] for r in results],
            "all_correct": all(r["correct"] for r in results)}
        if args.trace_seed is not None:
            traced = run(workload, args.trace_seed, seconds, 1)
            baseline["per_layer"][workload] = {
                k: v["value"] for k, v in traced["metrics"].items()}
    if args.write:
        args.write.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
