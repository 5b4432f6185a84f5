"""Smoke self-test of the benchmark (about two minutes on two cores).

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` once untraced and once traced,
one pass each (``--seconds 0``), and asserts that

* every metric ``BENCHMARK.json`` names prints with its unit, both on
  the final JSON line and on a text line above it;
* the traced and untraced runs of a workload report the same counts
  (cells, checks, requests, simulated instructions);
* outside a checkout -- a directory holding only ``BENCHMARK.json`` and
  the benchmark's own files -- the command exits nonzero and prints no
  result line.

Exits 1 with the first failed assertion.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

ROOT = Path.cwd()


def run(spec: Dict[str, Any], cwd: Path, workload: str, trace: int) -> Tuple[int, List[str]]:
    command = spec["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace),
    ]
    done = subprocess.run(
        command, cwd=cwd, capture_output=True, text=True, timeout=600
    )
    return done.returncode, done.stdout.splitlines()


def check_metrics(expected: List[Dict[str, Any]], lines: List[str], label: str) -> None:
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True and result["attempted"] >= 1, label
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        printed = result["metrics"].get(name)
        assert printed is not None, f"{label}: {name} missing"
        assert printed["unit"] == unit, f"{label}: {name} unit {printed['unit']}"
        assert isinstance(printed["value"], (int, float)), f"{label}: {name}"
        assert any(
            line.split()[:1] == [name] and line.split()[-1] == unit
            for line in lines[:-1]
        ), f"{label}: no text line for {name} in {unit}"


def counts(lines: List[str]) -> Dict[str, int]:
    prefix = "counts: "
    return json.loads(next(
        line.strip()[len(prefix):] for line in lines
        if line.strip().startswith(prefix)
    ))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        for workload in (entry["name"] for entry in spec["workloads"]):
            code, plain = run(spec, ROOT, workload, 0)
            assert code == 0, f"{workload}: untraced run exited {code}"
            check_metrics(spec["end_to_end"], plain, f"{workload} untraced")
            code, traced = run(spec, ROOT, workload, 1)
            assert code == 0, f"{workload}: traced run exited {code}"
            check_metrics(spec["per_layer"], traced, f"{workload} traced")
            assert counts(plain) == counts(traced), (
                f"{workload}: counts {counts(plain)} vs {counts(traced)}"
            )
            print(f"selftest: {workload} ok, counts {counts(plain)}")

        bare = ROOT / ".perfbench-work" / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            for path in spec["paths"]:
                shutil.copytree(
                    ROOT / path, bare / path,
                    ignore=shutil.ignore_patterns("__pycache__"),
                )
            code, lines = run(spec, bare, spec["workloads"][0]["name"], 0)
        finally:
            shutil.rmtree(bare, ignore_errors=True)
            try:
                bare.parent.rmdir()
            except OSError:
                pass
        assert code != 0 and not lines, f"bare directory: exit {code}, {lines}"
        print("selftest: refuses to run outside a checkout")
    except AssertionError as error:
        print(f"selftest: FAILED: {error}", file=sys.stderr)
        return 1
    print("selftest: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
