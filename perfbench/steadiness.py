"""Run-to-run spread of the end-to-end metrics, one run per seed.

    python3 perfbench/steadiness.py [--first-seed 1] [--out FILE]

Runs the ``BENCHMARK.json`` command untraced :data:`RUNS` times for each
workload, one seed per run from ``--first-seed`` on, and prints, per
workload and end-to-end metric, the median, the quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share
of the median, beside a third of the metric's bound -- the figure a
steady benchmark stays under.  ``--out`` writes
the same figures, with every value, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

RUNS = 10


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default="")
    args = parser.parse_args(argv)

    spec = json.loads(Path("BENCHMARK.json").read_text())
    report: Dict[str, Any] = {}
    for workload in (entry["name"] for entry in spec["workloads"]):
        values: Dict[str, List[float]] = {
            metric["name"]: [] for metric in spec["end_to_end"]
        }
        for seed in range(args.first_seed, args.first_seed + RUNS):
            done = subprocess.run(
                spec["command"] + [
                    "--workload", workload, "--seed", str(seed),
                    "--seconds", str(spec["run_seconds"]), "--trace", "0",
                ],
                capture_output=True, text=True, timeout=900,
            )
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        report[workload] = {}
        for metric in spec["end_to_end"]:
            series = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            report[workload][metric["name"]] = {
                "median": median, "q1": q1, "q3": q3, "spread": spread,
                "values": series,
            }
            print(
                f"{workload:<13} {metric['name']:<12} median {median:10.4f}"
                f" {metric['unit']:<4} q1 {q1:10.4f} q3 {q3:10.4f}"
                f" spread {spread:.4f} (bound/3 {metric['bound'] / 3:.4f})"
            )
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
