"""One benchmark pass in a fresh process: set up, run, check, report.

    python perfbench/passes.py fig7-cold REPORT WORKDIR [--setup-only]
                               [--trace] [--jobs N]
    python perfbench/passes.py certify-gate REPORT WORKDIR [--setup-only]
                               [--trace]
    python perfbench/passes.py serve-traced REPORT -- SERVE-ARGS...

The report is one JSON object: the monotonic time the process was ready
(``ready``; the spawning process subtracts its spawn time to get the
set-up time), the pass bounds (``start``/``end``), this process's own
peak resident set, the operations attempted and failed, counts, and --
with ``--trace`` -- the tracer summary.  A pass whose outputs are wrong
writes ``"error"`` and exits 1; the caller then prints no numbers.

``serve-traced`` runs ``python -m repro serve`` in this process with the
tracer installed and writes the summary once the server has drained.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

#: The Figure 7 subset a fig7-cold pass runs: every design and every
#: scenario at the 4-way 32-entry organization (30 grid cells).
FIG7_CONFIGS = ("4W 32",)
#: A whole experiment run beside the subset.  ``run_all`` assembles and
#: writes only complete experiments, so this one-cell area model is what
#: makes a pass assemble an experiment and write its artifact.
WHOLE_EXPERIMENT = "table5"
FIG7_FILTERS = [f"fig7/grid/*/{label}/*" for label in FIG7_CONFIGS] + [
    WHOLE_EXPERIMENT
]

#: What run_gate() must report: checks and agreements per leg.
GATE_LEGS = {
    "flat": {"checks": 72, "agree": 72},
    "refill": {"checks": 2, "agree": 2},
    "sweep": {"checks": 168, "agree": 168},
}


class PassError(Exception):
    """The pass ran but its outputs are wrong."""


def _self_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# -- fig7-cold ---------------------------------------------------------------------


def fig7_setup() -> List[Any]:
    from repro.runner.api import run_all  # noqa: F401  (the entry point)
    from repro.runner.cache import code_fingerprint
    from repro.runner.experiments import DEFAULT_OPTIONS
    from repro.runner.registry import ensure_default_experiments, expand_units

    code_fingerprint()
    ensure_default_experiments()
    return expand_units(DEFAULT_OPTIONS, FIG7_FILTERS)


def fig7_pass(units: List[Any], work: Path, jobs: int) -> Dict[str, Any]:
    from repro.runner.api import run_all

    start = time.monotonic()
    report = run_all(
        jobs=jobs,
        filters=FIG7_FILTERS,
        results_dir=work / "results",
        cache_dir=work / "cache",
        progress=False,
    )
    end = time.monotonic()
    if report.failed or report.interrupted or report.completed != len(units):
        raise PassError(
            f"fig7-cold: {report.completed}/{len(units)} cells completed,"
            f" failed {report.failed}"
        )
    artifact = f"{WHOLE_EXPERIMENT}.txt"
    written = work / "results" / artifact
    if not written.is_file() or (
        written.read_bytes() != Path("results", artifact).read_bytes()
    ):
        raise PassError(f"fig7-cold: {artifact} differs from results/{artifact}")
    elapsed = [
        event["elapsed"]
        for event in map(json.loads, (work / "results" / "run_log.jsonl")
                         .read_text().splitlines())
        if event.get("event") == "unit_done" and not event.get("cached")
    ]
    wall = end - start
    run_hits = report.kernel_run_hits
    probed = report.kernel_fallback_accesses
    return {
        "start": start,
        "end": end,
        "attempted": len(units),
        "failed": len(report.failed),
        "counts": {"cells": len(units)},
        "layers": {
            "runner.utilization": report.utilization,
            "runner.dispatch_s": wall - sum(elapsed) / report.jobs,
            "kernel.run_share": (
                run_hits / (run_hits + probed) if run_hits + probed else 0.0
            ),
        },
    }


def check_fig7_cells(units: List[Any], cache_dir: Path) -> int:
    """Compare the Figure 7 cells' rows with the committed ``fig7_full.csv``.

    Returns the simulated instructions of the cells (their ``total``
    rows).
    """
    from repro.perf import export_figure7_csv
    from repro.runner.cache import ResultCache

    cache = ResultCache(cache_dir)
    cells = []
    for unit in (unit for unit in units if unit.experiment == "fig7"):
        hit, value = cache.get(unit)
        if not hit:
            raise PassError(f"fig7-cold: {unit.ident} missing from the cache")
        cells.append(value)
    rendered = cache_dir / "cells.csv"
    export_figure7_csv(cells, rendered)
    rows = rendered.read_text().splitlines()[1:]
    committed = [
        row for row in Path("results/fig7_full.csv").read_text().splitlines()[1:]
        if row.split(",")[1] in FIG7_CONFIGS
    ]
    if rows != committed:
        raise PassError(
            "fig7-cold: cell rows differ from results/fig7_full.csv"
        )
    return sum(cell.results["total"].instructions for cell in cells)


# -- certify-gate ------------------------------------------------------------------


def gate_setup() -> None:
    import repro.analysis.certify_gate  # noqa: F401  (the entry point)
    from repro.ablations.hierarchy import sweep_rows, sweep_specs
    from repro.security import evaluate  # noqa: F401  (the flat leg)

    sweep_specs()
    sweep_rows()


def gate_pass() -> Dict[str, Any]:
    from repro.analysis.certify_gate import run_gate

    start = time.monotonic()
    report = run_gate()
    end = time.monotonic()
    summary = report.to_dict()
    if not report.passed or summary["legs"] != GATE_LEGS:
        raise PassError(
            f"certify-gate: passed={report.passed} legs={summary['legs']}"
        )
    return {
        "start": start,
        "end": end,
        "attempted": len(report.checks),
        "failed": len(report.disagreements),
        "counts": {"checks": len(report.checks)},
        "layers": {},
    }


# -- entry points ------------------------------------------------------------------


def run_pass(args: argparse.Namespace) -> Dict[str, Any]:
    work = Path(args.workdir)
    work.mkdir(parents=True, exist_ok=True)
    if args.workload == "fig7-cold":
        units = fig7_setup()
    else:
        gate_setup()
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready, "self_rss_kb": _self_rss_kb()}
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.install()
    try:
        if args.workload == "fig7-cold":
            result = fig7_pass(units, work, args.jobs or os.cpu_count() or 1)
        else:
            result = gate_pass()
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["ready"] = ready
    result["self_rss_kb"] = _self_rss_kb()
    if args.workload == "fig7-cold":
        # Checked once tracing stopped: the check reads the cache too.
        result["counts"]["sim_instructions"] = check_fig7_cells(
            units, work / "cache"
        )
    if tracer is not None:
        tracer.dump(str(work / "spans.jsonl"))
        result["trace"] = tracer.summary()
    return result


def serve_traced(report: Path, argv: List[str]) -> int:
    import tracer as tracing

    tracer = tracing.install()
    from repro.cli import main

    try:
        code = main(argv)
    finally:
        tracer.uninstall()
    tracer.dump(str(report.with_name("spans.jsonl")))
    report.write_text(json.dumps({"trace": tracer.summary()}))
    return code


def main(argv: List[str]) -> int:
    if argv[:1] == ["serve-traced"]:
        split = argv.index("--")
        return serve_traced(Path(argv[1]), argv[split + 1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=("fig7-cold", "certify-gate"))
    parser.add_argument("report")
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--jobs", type=int, default=0)
    args = parser.parse_args(argv)
    try:
        result = run_pass(args)
    except PassError as error:
        Path(args.report).write_text(json.dumps({"error": str(error)}))
        return 1
    Path(args.report).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
