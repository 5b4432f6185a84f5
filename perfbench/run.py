"""End-to-end benchmark of the Secure TLBs reproduction, with a traced run.

    python3 perfbench/run.py --workload fig7-cold|certify-gate|serve-mix
                             --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Workloads (see perfbench/README.md):

``fig7-cold``     ``repro.runner.run_all`` over a fixed Figure 7 subset and
                  Table 5 on an empty cache with the default pool,
                  checked against the committed ``results/fig7_full.csv``
                  rows and ``results/table5.txt``;
``certify-gate``  ``repro.analysis.certify_gate.run_gate()``, which must
                  pass with 242/242 checks agreeing;
``serve-mix``     ``python -m repro serve`` driven by two closed-loop
                  clients with a seeded request mix (``perfbench/serve_mix.py``).

Every pass is a fresh process with fresh results, cache and state
directories under ``.perfbench-work/`` (removed on exit).  With
``--trace 0`` the passes repeat for ``--seconds`` seconds and the run
reports the end-to-end metrics (medians over passes); with ``--trace 1``
it makes one untraced and one traced pass with the same executor
settings and reports the per-layer metrics, the tracing overhead among
them.  The last line of standard output is one JSON object; the lines
above it print every metric by name and unit.  A failed correctness
check exits 1 and prints no numbers.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import serve_mix  # noqa: E402
from procs import DescendantPeaks  # noqa: E402

PASSES = HERE / "passes.py"
WORKLOADS = ("fig7-cold", "certify-gate", "serve-mix")
#: Set-up-only spawns after each pass, on top of the pass's own set-up.
SETUPS_PER_PASS = 2
PASS_TIMEOUT_S = 150.0

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}


class BenchError(Exception):
    """A pass failed or its outputs did not check out."""


def spawn_pass(
    root: Path, work: Path, workload: str, name: str,
    setup_only: bool = False, trace: bool = False, jobs: int = 0,
) -> Dict[str, Any]:
    """Run ``perfbench/passes.py`` once; returns its checked report."""
    pass_dir = work / name
    report = work / f"{name}.json"
    command = [sys.executable, str(PASSES), workload, str(report), str(pass_dir)]
    if setup_only:
        command.append("--setup-only")
    if trace:
        command.append("--trace")
    if jobs:
        command += ["--jobs", str(jobs)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    spawned = time.monotonic()
    # A session of its own, so a pass cut short takes its pool workers
    # down with it.
    process = subprocess.Popen(
        command, cwd=root, env=env, stdout=sys.stderr, start_new_session=True
    )
    watcher = DescendantPeaks(process.pid)
    watcher.start()
    try:
        code = process.wait(timeout=PASS_TIMEOUT_S)
    except BaseException as error:
        os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if isinstance(error, subprocess.TimeoutExpired):
            raise BenchError(f"{workload}: {name} timed out") from None
        raise
    finally:
        descendants_kb = watcher.stop()
    result = json.loads(report.read_text()) if report.is_file() else {}
    if code != 0 or "error" in result:
        raise BenchError(result.get("error") or f"{workload}: pass exited {code}")
    result["setup_s"] = result["ready"] - spawned
    result["rss_mb"] = (result["self_rss_kb"] + descendants_kb) / 1024
    if not setup_only:
        result["wall_s"] = result["end"] - result["start"]
    return result


def quantile(values: List[float], share: float) -> float:
    """The ``share`` quantile (e.g. 0.9) the way ``statistics`` cuts it."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


# -- end-to-end runs -----------------------------------------------------------------


def measure_passes(
    seconds: float,
    one_pass: Callable[[int], Dict[str, Any]],
    one_setup: Callable[[int], float],
) -> Tuple[List[Dict[str, Any]], List[float]]:
    """Passes until ``seconds`` have gone by (at least one), each followed
    by :data:`SETUPS_PER_PASS` set-up-only spawns, so the set-up times
    sample the same stretch of the run as the passes.

    Returns the passes and every set-up time, the passes' own included.
    """
    passes: List[Dict[str, Any]] = []
    setups: List[float] = []
    began = time.monotonic()
    while not passes or time.monotonic() - began < seconds:
        passes.append(one_pass(len(passes)))
        setups.append(passes[-1]["setup_s"])
        for _ in range(SETUPS_PER_PASS):
            setups.append(one_setup(len(setups)))
    return passes, setups


def run_child_workload(
    root: Path, work: Path, workload: str, seconds: float,
) -> Tuple[Dict[str, float], List[str], int, Dict[str, int]]:
    passes, setups = measure_passes(
        seconds,
        lambda index: spawn_pass(root, work, workload, f"pass-{index}"),
        lambda index: spawn_pass(
            root, work, workload, f"setup-{index}", setup_only=True
        )["setup_s"],
    )
    attempted = sum(result["attempted"] for result in passes)
    failed = sum(result["failed"] for result in passes)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(result["wall_s"] for result in passes),
        "peak_rss_mb": statistics.median(result["rss_mb"] for result in passes),
    }
    counts = passes[0]["counts"]
    if any(result["counts"] != counts for result in passes):
        raise BenchError(f"{workload}: counts differ between passes")
    lines = [f"{len(passes)} passes, {len(setups)} set-ups"]
    extra: List[Tuple[str, float, str]] = [
        ("error_rate", failed / attempted, "share"),
    ]
    if workload == "fig7-cold":
        extra.append((
            "sim_instr_per_s",
            statistics.median(
                result["counts"]["sim_instructions"] / result["wall_s"]
                for result in passes
            ),
            "instr/s",
        ))
    lines += [f"{name:<18} {value:.6g} {unit}" for name, value, unit in extra]
    return metrics, lines, attempted, counts


def run_serve_mix(
    root: Path, work: Path, seed: int, seconds: float,
) -> Tuple[Dict[str, float], List[str], int, Dict[str, int]]:
    table4, fig7 = serve_mix.cell_pools()
    rounds = serve_mix.plan(seed, table4, fig7)
    passes, setups = measure_passes(
        seconds,
        lambda index: serve_mix.run_pass(root, work / f"pass-{index}", rounds),
        lambda index: serve_mix.setup_only(root, work / f"setup-{index}"),
    )
    answers = [answer for result in passes for answer in result["answers"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(
            result["end"] - result["start"] for result in passes
        ),
        "peak_rss_mb": statistics.median(
            result["rss_kb"] / 1024 for result in passes
        ),
    }
    latencies = [answer.latency_ms for answer in answers]
    by_kind = {
        kind: [answer.latency_ms for answer in answers if answer.kind == kind]
        for kind in ("novel", "repeat")
    }
    lines = [
        f"seed {seed}: {len(passes)} passes of {len(rounds)} rounds,"
        f" {len(setups)} set-ups",
        f"{'error_rate':<18} 0 share (0/{len(answers)} requests)",
        f"{'request_p50_ms':<18} {statistics.median(latencies):.6g} ms",
        f"{'request_p90_ms':<18} {quantile(latencies, 0.9):.6g} ms"
        f" (n={len(latencies)})",
        f"{'repeat_p50_ms':<18} {statistics.median(by_kind['repeat']):.6g} ms",
        f"{'novel_p50_ms':<18} {statistics.median(by_kind['novel']):.6g} ms",
    ]
    return metrics, lines, len(answers), {"requests": len(passes[0]["answers"])}


# -- traced runs -----------------------------------------------------------------------


def _self(name: str):
    return lambda summary, extra: summary["spans"].get(name, [0, 0.0, 0.0])[2]


def _calls(name: str):
    return lambda summary, extra: summary["spans"].get(name, [0, 0.0, 0.0])[0]


def _count(name: str):
    return lambda summary, extra: summary["counts"].get(name, 0)


def _share(numerator, denominator):
    def value(summary, extra):
        base = denominator(summary, extra)
        return numerator(summary, extra) / base if base else 0.0
    return value


def _extra(name: str):
    return lambda summary, extra: extra.get(name, 0.0)


def _memo_share(summary, extra) -> float:
    walks = _calls("mmu.walk")(summary, extra)
    return 1 - _count("mmu.walk_levels")(summary, extra) / walks if walks else 0.0


#: (metric, unit, layer keys that must have resolved, value).  A metric
#: whose keys did not all resolve reads absent.
LAYER_METRICS: Tuple[Tuple[str, str, Tuple[str, ...], Any], ...] = (
    ("workloads.gen_s", "s", ("kernel.traces",), _self("workloads.gen")),
    ("workloads.events", "count", ("kernel.traces",), _count("workloads.events")),
    ("kernel.compile_s", "s", ("kernel.compile",), _self("kernel.compile")),
    ("kernel.traces", "count", ("kernel.traces",), _count("kernel.traces")),
    ("kernel.trace_dup_share", "share", ("kernel.simulated_traces",),
     _share(_count("kernel.repeated_traces"), _count("kernel.simulated_traces"))),
    ("kernel.structure_s", "s", ("kernel.structure",), _self("kernel.structure")),
    ("kernel.oracle_s", "s", ("kernel.oracle",), _self("kernel.oracle")),
    ("kernel.oracles", "count", ("kernel.oracles",), _count("kernel.oracles")),
    ("tlb.replay_s", "s", ("tlb.replay",), _self("tlb.replay")),
    ("tlb.replay_accesses", "count", ("tlb.replay",),
     _count("tlb.replay_accesses")),
    ("kernel.run_share", "share", (), _extra("kernel.run_share")),
    ("tlb.translate_s", "s", ("tlb.translate",), _self("tlb.translate")),
    ("tlb.translate_calls", "count", ("tlb.translate",), _calls("tlb.translate")),
    ("tlb.build_s", "s", ("tlb.build",), _self("tlb.build")),
    ("tlb.builds", "count", ("tlb.build",), _calls("tlb.build")),
    ("mmu.walk_s", "s", ("mmu.walk",), _self("mmu.walk")),
    ("mmu.walks", "count", ("mmu.walk",), _calls("mmu.walk")),
    ("mmu.walk_memo_share", "share", ("mmu.walk", "mmu.walk_levels"),
     _memo_share),
    ("mmu.map_s", "s", ("mmu.map",), _self("mmu.map")),
    ("mmu.maps", "count", ("mmu.map",), _calls("mmu.map")),
    ("isa.assemble_s", "s", ("isa.assemble",), _self("isa.assemble")),
    ("isa.load_s", "s", ("isa.load",), _self("isa.load")),
    ("isa.exec_s", "s", ("isa.exec",), _self("isa.exec")),
    ("isa.runs", "count", ("isa.exec",), _calls("isa.exec")),
    ("isa.instructions", "count", ("isa.exec",), _count("isa.instructions")),
    ("security.benchgen_s", "s", ("security.benchgen",),
     _self("security.benchgen")),
    ("security.row_s", "s", ("security.row",), _self("security.row")),
    ("security.rows", "count", ("security.row",), _calls("security.row")),
    ("certify.static_s", "s", ("certify.static",), _self("certify.static")),
    ("certify.certificates", "count", ("certify.static",),
     _calls("certify.static")),
    ("perf.cell_s", "s", ("perf.cell",), _self("perf.cell")),
    ("perf.cells", "count", ("perf.cell",), _calls("perf.cell")),
    ("runner.fingerprint_s", "s", ("runner.fingerprint",),
     _self("runner.fingerprint")),
    ("runner.cache_get_s", "s", ("runner.cache_get",), _self("runner.cache_get")),
    ("runner.cache_put_s", "s", ("runner.cache_put",), _self("runner.cache_put")),
    ("runner.cache_hits", "count", ("runner.cache_get",),
     _count("runner.cache_hits")),
    ("runner.cache_misses", "count", ("runner.cache_get",),
     _count("runner.cache_misses")),
    ("runner.seal_s", "s", ("runner.seal",), _self("runner.seal")),
    ("runner.assemble_s", "s", ("runner.assemble",), _self("runner.assemble")),
    ("runner.artifacts_s", "s", ("runner.artifacts",), _self("runner.artifacts")),
    ("runner.utilization", "share", (), _extra("runner.utilization")),
    ("runner.dispatch_s", "s", (), _extra("runner.dispatch_s")),
    ("serve.submit_ms", "ms", (), _extra("serve.submit_ms")),
    ("serve.status_ms", "ms", (), _extra("serve.status_ms")),
    ("serve.result_ms", "ms", (), _extra("serve.result_ms")),
    ("serve.queue_wait_ms", "ms", (), _extra("serve.queue_wait_ms")),
    ("serve.exec_ms", "ms", (), _extra("serve.exec_ms")),
    ("serve.store_hit_share", "share", (), _extra("serve.store_hit_share")),
    ("serve.dedup_share", "share", (), _extra("serve.dedup_share")),
    ("serve.cell_cache_share", "share", (), _extra("serve.cell_cache_share")),
    ("trace.overhead", "share", (), _extra("trace.overhead")),
    ("trace.untraced_wall_s", "s", (), _extra("trace.untraced_wall_s")),
    ("trace.traced_wall_s", "s", (), _extra("trace.traced_wall_s")),
    ("trace.unresolved_hooks", "count", (), _extra("trace.unresolved_hooks")),
)


def layer_metrics(summary: Dict[str, Any], extra: Dict[str, float]) -> Dict[str, Any]:
    """Every per-layer metric whose hooks resolved, from one traced pass."""
    resolved = set(summary["resolved"])
    return {
        name: {"value": value(summary, extra), "unit": unit}
        for name, unit, keys, value in LAYER_METRICS
        if resolved.issuperset(keys)
    }


def _median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def serve_extras(result: Dict[str, Any]) -> Dict[str, float]:
    answers = result["answers"]
    counters = result["metrics"]["counters"]
    gauges = result["metrics"]["gauges"]
    submitted = counters["jobs_submitted"]
    cells = counters["cells_cached"] + counters["cells_run"]
    run_hits = gauges.get("kernel_run_hits", 0)
    probed = gauges.get("kernel_fallback_accesses", 0)
    return {
        "serve.submit_ms": _median_or_zero([a.submit_ms for a in answers]),
        "serve.status_ms": _median_or_zero(
            [poll for a in answers for poll in a.status_ms]
        ),
        "serve.result_ms": _median_or_zero([a.result_ms for a in answers]),
        "serve.queue_wait_ms": _median_or_zero(
            [a.queue_wait_ms for a in answers if a.queue_wait_ms is not None]
        ),
        "serve.exec_ms": _median_or_zero(
            [a.exec_ms for a in answers if a.exec_ms is not None]
        ),
        "serve.store_hit_share": counters["jobs_store_hits"] / submitted,
        "serve.dedup_share": counters["jobs_deduped"] / submitted,
        "serve.cell_cache_share": counters["cells_cached"] / cells if cells else 0.0,
        "kernel.run_share": (
            run_hits / (run_hits + probed) if run_hits + probed else 0.0
        ),
    }


def run_traced(
    root: Path, work: Path, workload: str, seed: int,
) -> Tuple[Dict[str, Any], List[str], int, Dict[str, int]]:
    """One untraced and one traced pass with the same executor settings."""
    if workload == "serve-mix":
        table4, fig7 = serve_mix.cell_pools()
        rounds = serve_mix.plan(seed, table4, fig7)
        untraced = serve_mix.run_pass(root, work / "untraced", rounds)
        report = work / "traced" / "trace.json"
        traced = serve_mix.run_pass(root, work / "traced", rounds, report)
        summary = json.loads(report.read_text())["trace"]
        extra = serve_extras(traced)
        counts = [{"requests": len(result["answers"])}
                  for result in (untraced, traced)]
        attempted = sum(len(result["answers"]) for result in (untraced, traced))
    else:
        jobs = 1 if workload == "fig7-cold" else 0
        untraced = spawn_pass(root, work, workload, "untraced", jobs=jobs)
        traced = spawn_pass(root, work, workload, "traced", trace=True, jobs=jobs)
        summary = traced["trace"]
        extra = dict(traced["layers"])
        counts = [result["counts"] for result in (untraced, traced)]
        attempted = untraced["attempted"] + traced["attempted"]
    if counts[0] != counts[1]:
        raise BenchError(f"traced and untraced counts differ: {counts}")
    untraced_wall = untraced["end"] - untraced["start"]
    traced_wall = traced["end"] - traced["start"]
    extra.update({
        "trace.overhead": traced_wall / untraced_wall - 1,
        "trace.untraced_wall_s": untraced_wall,
        "trace.traced_wall_s": traced_wall,
        "trace.unresolved_hooks": len(summary["unresolved"]),
    })
    metrics = layer_metrics(summary, extra)
    # The traced pass's span records outlive the run's work directory.
    spans = work.parent / f"{workload}-spans.jsonl"
    (work / "traced" / "spans.jsonl").replace(spans)
    lines = [
        "one untraced and one traced pass",
        f"spans: {spans.relative_to(root)}",
    ]
    lines += [f"unresolved hook: {dotted}" for dotted in summary["unresolved"]]
    absent = [name for name, *_ in LAYER_METRICS if name not in metrics]
    if absent:
        lines.append(f"absent (hooks unresolved): {', '.join(absent)}")
    return metrics, lines, attempted, counts[1]


# -- entry point ---------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    missing = [
        path for path in ("src/repro/__init__.py", "results/fig7_full.csv")
        if not (root / path).is_file()
    ]
    if missing:
        print(
            f"perfbench: {', '.join(missing)} not found; run from the root"
            " of a repro checkout", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    work = root / ".perfbench-work" / f"run-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics, lines, attempted, counts = run_traced(
                root, work, args.workload, args.seed
            )
        elif args.workload == "serve-mix":
            values, lines, attempted, counts = run_serve_mix(
                root, work, args.seed, args.seconds
            )
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in values.items()
            }
        else:
            values, lines, attempted, counts = run_child_workload(
                root, work, args.workload, args.seconds
            )
            metrics = {
                name: {"value": value, "unit": E2E_UNITS[name]}
                for name, value in values.items()
            }
    except (BenchError, serve_mix.MixError) as error:
        print(f"perfbench: {args.workload}: FAILED: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    print(f"perfbench {args.workload} ({'traced' if args.trace else 'untraced'}):"
          f" {lines[0]}")
    print(f"  counts: {json.dumps(counts, sort_keys=True)}")
    for line in lines[1:]:
        print(f"  {line}")
    for name, metric in metrics.items():
        print(f"  {name:<24} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": 0,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
