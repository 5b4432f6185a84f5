"""Command-line interface to every experiment in the reproduction.

``python -m repro <command>`` regenerates the paper's tables and figures:

=============  =============================================================
``table2``     the 24 vulnerabilities, derived from the three-step model
``table4``     the security evaluation of the SA/SP/RF designs
``table7``     the Appendix B extension (and its measured evaluation)
``fig7``       the performance grid (IPC / MPKI series)
``table5``     the area model vs the paper's synthesis results
``mitigations``the Section 2.3 mitigation ladder (10/14/18/14/24)
``hierarchy``  the two-level TLB security study
``hierarchy-sweep`` the declarative cross-design matrix (L1 x L2 x PWC)
``largepages`` the large-page software mitigation
``sweeps``     the SP-partition / RF-region / replacement-policy sweeps
``attack``     the TLBleed-style RSA key recovery demo
``covert``     the covert-channel demo
``trace``      a toy scenario with the JSONL event tracer attached
``run-all``    every experiment, sharded across workers with caching
``serve``      the async HTTP experiment service over the runner
``analyze``    static leakage checker (guest) + invariant linter (host)
``bench``      fast-path vs reference regression bench (BENCH_fastpath.json)
=============  =============================================================

Full-fidelity runs (the paper's 500-trial protocol, the complete Figure 7
grid) are available through ``--trials`` / ``--full``; defaults are sized
for interactive use.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.model import (
        candidate_patterns,
        count_survivors_by_rule,
        derive_vulnerabilities,
        enumerate_triples,
        format_table,
        table2_vulnerabilities,
    )

    if args.verbose:
        for rule, count in count_survivors_by_rule(enumerate_triples()).items():
            print(f"{rule:32} -> {count:4}")
        print(f"candidates: {len(candidate_patterns())}")
    derived = derive_vulnerabilities()
    print(format_table(derived))
    derived_set = set(derived)
    expected_set = set(table2_vulnerabilities())
    match = derived_set == expected_set
    print(f"\nexact match with the paper's Table 2: {match}")
    for pretty in sorted(v.pretty() for v in expected_set - derived_set):
        print(f"  missing (in paper, not derived):   {pretty}")
    for pretty in sorted(v.pretty() for v in derived_set - expected_set):
        print(f"  unexpected (derived, not in paper): {pretty}")
    return 0 if match else 1


def _cmd_table4(args: argparse.Namespace) -> int:
    from repro.security import (
        EvaluationConfig,
        SecurityEvaluator,
        TLBKind,
        defended_counts,
        format_table4,
    )

    evaluator = SecurityEvaluator(EvaluationConfig(trials=args.trials))
    kinds = [TLBKind[name] for name in args.designs]
    table = evaluator.evaluate_table4(kinds=kinds)
    print(format_table4(table))
    counts = defended_counts(table)
    expected = {TLBKind.SA: 10, TLBKind.SP: 14, TLBKind.RF: 24}
    ok = all(counts[kind] == expected[kind] for kind in kinds)
    print(f"\nheadline counts match the paper: {ok}")
    return 0 if ok else 1


def _cmd_table7(args: argparse.Namespace) -> int:
    from repro.model.extended import (
        invalidation_only_vulnerabilities,
        strategy_label,
    )
    from repro.security import EvaluationConfig, SecurityEvaluator, TLBKind

    rows = invalidation_only_vulnerabilities()
    print(f"extended-model vulnerabilities: {len(rows)} (paper's Table 7: 50)")
    for vulnerability in sorted(
        rows, key=lambda v: (strategy_label(v), v.pattern.pretty())
    ):
        print(f"  {strategy_label(vulnerability):48} {vulnerability.pretty()}")
    if args.evaluate:
        evaluator = SecurityEvaluator(EvaluationConfig(trials=args.trials))
        print("\nmeasured defence counts under the hypothetical targeted-"
              "invalidation ISA:")
        for kind in (TLBKind.SA, TLBKind.SP, TLBKind.RF):
            results = evaluator.evaluate_extended(kind)
            defended = sum(1 for result in results if result.defended)
            print(f"  {kind.value:3}: {defended}/{len(results)}")
    return 0


def _cmd_fig7(args: argparse.Namespace) -> int:
    from repro.perf import (
        PerfSettings,
        figure7,
        format_figure7,
        headline_ratios,
    )
    from repro.security import TLBKind

    settings = PerfSettings(
        spec_instructions=args.spec_instructions, key_bits=args.key_bits
    )
    runs = (50, 100, 150) if args.full else (args.rsa_runs,)
    cells = figure7(
        kinds=tuple(TLBKind[name] for name in args.designs),
        rsa_runs=runs,
        settings=settings,
        config_labels=args.configs,
    )
    print(format_figure7(cells))
    print("\nheadline ratios:")
    for name, value in sorted(headline_ratios(cells).items()):
        print(f"  {name:30} {value:.3f}")
    return 0


def _cmd_table5(args: argparse.Namespace) -> int:
    from repro.perf import AreaModel

    model = AreaModel()
    print(model.table5())
    worst_luts, worst_registers = model.max_relative_error()
    print(
        f"\nfit quality: worst LUT error {worst_luts:.1%}, "
        f"worst register error {worst_registers:.1%}"
    )
    return 0


def _cmd_mitigations(args: argparse.Namespace) -> int:
    from repro.ablations import (
        evaluate_all_mitigations,
        format_mitigation_ladder,
    )

    ladder = evaluate_all_mitigations(trials=args.trials)
    print(format_mitigation_ladder(ladder))
    ok = all(result.matches_paper for result in ladder)
    return 0 if ok else 1


def _cmd_hierarchy(args: argparse.Namespace) -> int:
    from repro.ablations import evaluate_hierarchies, format_hierarchy_results

    results = evaluate_hierarchies(trials=args.trials)
    print(format_hierarchy_results(results))
    return 0


def _cmd_hierarchy_sweep(args: argparse.Namespace) -> int:
    from repro.ablations import (
        HIERARCHY_EVALUATION,
        SweepDesignResult,
        format_hierarchy_sweep,
        refill_leakage,
        sweep_perf_point,
        sweep_rows,
        sweep_specs,
    )
    from repro.security import SecurityEvaluator

    evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
    rows = sweep_rows()
    results = []
    for spec in sweep_specs():
        estimates = {
            vulnerability: evaluator.evaluate_vulnerability(
                vulnerability, spec, trials=args.trials
            ).estimate
            for _, vulnerability in rows
        }
        results.append(
            SweepDesignResult(
                label=spec.label(),
                spec=spec.to_dict(),
                estimates=estimates,
                perf=sweep_perf_point(spec, rsa_runs=args.rsa_runs),
            )
        )
    leakage = None if args.no_leakage else refill_leakage()
    print(format_hierarchy_sweep(results, leakage))
    return 0


def _cmd_largepages(args: argparse.Namespace) -> int:
    from repro.ablations import (
        evaluate_large_pages,
        format_large_page_comparison,
    )

    result = evaluate_large_pages(trials=args.trials)
    print(format_large_page_comparison(result, 10, 13))
    return 0


def _cmd_sweeps(args: argparse.Namespace) -> int:
    from repro.ablations import (
        format_partition_sweep,
        format_region_sweep,
        sweep_replacement_policy,
        sweep_rf_region,
        sweep_sp_partition,
    )

    print("== SP TLB partition split ==")
    print(format_partition_sweep(sweep_sp_partition()))
    print("\n== RF TLB secure-region size ==")
    print(format_region_sweep(sweep_rf_region(trials=args.trials)))
    print("\n== replacement policy vs TLBleed ==")
    for point in sweep_replacement_policy():
        print(
            f"  {point.policy.value:8} accuracy {point.accuracy:.1%}"
            f"{'  (full recovery)' if point.recovered_exactly else ''}"
        )
    return 0


def _cmd_attack(args: argparse.Namespace) -> int:
    from repro.attacks import tlbleed_attack
    from repro.security import TLBKind
    from repro.workloads.rsa import generate_key

    key = generate_key(bits=args.key_bits, seed=args.seed)
    for name in args.designs:
        result = tlbleed_attack(TLBKind[name], key=key, seed=args.seed)
        print(f"== {name} TLB ==")
        print(f"true d    : {result.true_bits}")
        print(f"recovered : {result.recovered_bits}")
        print(
            f"accuracy  : {result.accuracy:.1%}"
            f"{'  (FULL KEY RECOVERED)' if result.recovered_exactly else ''}\n"
        )
    return 0


def _cmd_covert(args: argparse.Namespace) -> int:
    from repro.attacks import random_message, transmit
    from repro.security import TLBKind

    message = random_message(args.bits, seed=args.seed)
    for name in args.designs:
        result = transmit(message, TLBKind[name], seed=args.seed)
        print(
            f"{name:3}: BER {result.bit_error_rate:6.1%}  "
            f"capacity {result.empirical_capacity():.3f} b/symbol  "
            f"rate {result.bits_per_kilocycle:.2f} b/kcycle"
        )
    return 0


def _scenario(name: str) -> str:
    """A ``trace`` scenario name, checked when ``trace`` is parsed: the
    simulator is imported only for that command."""
    from repro.sim.trace import SCENARIOS

    if name not in SCENARIOS:
        raise argparse.ArgumentTypeError(
            f"invalid choice: {name!r}"
            f" (choose from {', '.join(sorted(SCENARIOS))})"
        )
    return name


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.security import TLBKind
    from repro.sim import run_scenario

    report = run_scenario(
        args.scenario,
        target=args.out,
        kind=TLBKind[args.design],
        seed=args.seed,
    )
    destination = args.out if args.out is not None else "stdout"
    print(
        f"{report.events} events -> {destination}", file=sys.stderr
    )
    print(f"{report.outcome}", file=sys.stderr)
    stats = report.stats
    print(
        f"accesses {stats.accesses} ({stats.hit_rate:.0%} hits)"
        f" · walks {stats.walks} · fills {stats.fills}"
        f" · evictions {stats.evictions} · flushes {stats.flushes}"
        f" · switches {stats.context_switches}",
        file=sys.stderr,
    )
    return 0


def _cmd_run_all(args: argparse.Namespace) -> int:
    from repro.runner import run_all

    if args.task_timeout is not None and args.executor == "work-stealing":
        args.usage_error(
            "--task-timeout arms the pool executor's watchdog;"
            " --executor work-stealing has none"
        )
    options = {}
    if args.no_fastpath:
        options["fig7_fastpath"] = False
    report = run_all(
        jobs=args.jobs,
        use_cache=not args.no_cache,
        filters=args.filter,
        results_dir=args.results_dir,
        cache_dir=args.cache_dir,
        log_path=args.log,
        options=options,
        progress=not args.quiet,
        max_retries=args.max_retries,
        task_timeout=args.task_timeout,
        executor=args.executor,
        workers=args.workers,
    )
    print(
        f"{report.completed}/{report.units_total} cells ok"
        f" · {report.cells_per_second:.1f} cells/s"
        f" · cache {report.cache_hits} hits / {report.cache_misses} misses"
        f" ({report.cache_hit_rate:.0%})"
        + (f" / {report.cache_corrupt} corrupt" if report.cache_corrupt else "")
        + f" · retries {report.retries}"
        f" · worker crashes {report.worker_crashes}"
    )
    if report.executor == "work-stealing":
        print(
            f"work-stealing: {report.cells_stolen} cells stolen"
            f" · {report.leases_reclaimed} leases reclaimed"
            f" · {report.duplicate_completions} duplicate completions"
            f" · {report.fallback_cells} fallback cells"
            f" · {report.quarantined} quarantined"
            + (
                f" · {report.torn_journals} torn journals"
                if report.torn_journals else ""
            )
        )
    kernel_total = report.kernel_run_hits + report.kernel_fallback_accesses
    if kernel_total:
        share = report.kernel_run_hits / kernel_total
        print(
            f"run kernel: {report.kernel_run_hits:,} run hits /"
            f" {report.kernel_fallback_accesses:,} probed"
            f" ({share:.0%} run share)"
            f" · {report.kernel_runs:,} runs"
        )
        print(
            f"fast path built: {report.kernel_traces_compiled:,} traces"
            f" · {report.kernel_oracles_built:,} reuse oracles"
        )
    if report.artifacts:
        print(f"artifacts: {', '.join(report.artifacts)}")
    if report.failed:
        print(f"FAILED: {', '.join(report.failed)}")
    if report.interrupted:
        print(
            f"interrupted: {report.completed}/{report.units_total} cells"
            " done; rerun with the same cache to resume"
        )
        return 130
    return 0 if report.ok else 1


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.runner.distributed import worker_loop

    completed = worker_loop(
        args.cache_dir,
        worker_id=args.worker_id,
        poll_interval=args.poll_interval,
        idle_exit=(None if args.idle_exit <= 0 else args.idle_exit),
        quiet=args.quiet,
    )
    # A worker that found no board (or no work) is not an error: workers
    # are launched speculatively on any host that mounts the cache.
    return 0 if completed >= 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeApp

    app = ServeApp(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        dispatchers=args.dispatchers,
        quota_rate=args.quota_rate,
        quota_burst=args.quota_burst,
        drain_timeout=args.drain_timeout,
        quiet=args.quiet,
    )
    return app.run()


def _cmd_chaos(args: argparse.Namespace) -> int:
    import json
    import tempfile
    from pathlib import Path

    from repro.faults import run_campaigns

    def run(workdir: Path) -> int:
        reports = run_campaigns(
            args.campaign, workdir, seed=args.seed, design=args.design,
            workers=args.workers,
        )
        if args.json:
            payload = [report.to_dict() for report in reports]
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            print("\n\n".join(report.to_text() for report in reports))
        return 0 if all(report.ok for report in reports) else 1

    if args.workdir is not None:
        return run(Path(args.workdir))
    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
        return run(Path(tmp))


def _cmd_bench(args: argparse.Namespace) -> int:
    import json

    from repro.perf.bench import (
        CounterDivergence,
        bench,
        format_report,
        with_history,
    )

    try:
        report = bench(
            quick=args.quick,
            events=args.events,
            skip_cells=args.skip_cells,
        )
    except CounterDivergence as divergence:
        print(f"COUNTER DIVERGENCE: {divergence}", file=sys.stderr)
        return 2
    if args.out:
        # Carry the previous artifact's headline history forward so the
        # trend survives the overwrite.
        previous = None
        try:
            with open(args.out, encoding="utf-8") as handle:
                previous = json.load(handle)
        except (OSError, ValueError):
            previous = None
        report = with_history(report, previous)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out}", file=sys.stderr)
    if args.json:
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(format_report(report))
    # The speedup floor only gates full-size runs: --quick is the CI
    # differential smoke, whose shared machines make timing meaningless
    # (counter divergence still exits 2 above).
    if not args.quick and not report["headline"]["meets_floor"]:
        return 1
    return 0


def _add_design_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--designs",
        nargs="+",
        choices=["SA", "SP", "RF"],
        default=["SA", "SP", "RF"],
        help="TLB designs to run (default: all three)",
    )


def build_parser() -> argparse.ArgumentParser:
    from repro.options import BURST, COUNT, NON_NEGATIVE, PORT, SECONDS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Secure TLBs' (ISCA 2019)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    table2 = subparsers.add_parser("table2", help="derive the 24 vulnerabilities")
    table2.add_argument("--verbose", action="store_true")
    table2.set_defaults(func=_cmd_table2)

    table4 = subparsers.add_parser("table4", help="security evaluation")
    table4.add_argument("--trials", type=COUNT.parse, default=100)
    _add_design_argument(table4)
    table4.set_defaults(func=_cmd_table4)

    table7 = subparsers.add_parser("table7", help="Appendix B extension")
    table7.add_argument("--evaluate", action="store_true")
    table7.add_argument("--trials", type=COUNT.parse, default=60)
    table7.set_defaults(func=_cmd_table7)

    fig7 = subparsers.add_parser("fig7", help="performance evaluation")
    fig7.add_argument("--rsa-runs", type=COUNT.parse, default=10)
    fig7.add_argument("--spec-instructions", type=COUNT.parse, default=80_000)
    fig7.add_argument("--key-bits", type=COUNT.parse, default=64)
    fig7.add_argument("--configs", nargs="+", default=None)
    fig7.add_argument("--full", action="store_true",
                      help="the paper's 50/100/150 decryption series")
    _add_design_argument(fig7)
    fig7.set_defaults(func=_cmd_fig7)

    table5 = subparsers.add_parser("table5", help="area model")
    table5.set_defaults(func=_cmd_table5)

    mitigations = subparsers.add_parser(
        "mitigations", help="Section 2.3 mitigation ladder"
    )
    mitigations.add_argument("--trials", type=COUNT.parse, default=60)
    mitigations.set_defaults(func=_cmd_mitigations)

    hierarchy = subparsers.add_parser(
        "hierarchy", help="two-level TLB hierarchy security study"
    )
    hierarchy.add_argument("--trials", type=COUNT.parse, default=40)
    hierarchy.set_defaults(func=_cmd_hierarchy)

    hierarchy_sweep = subparsers.add_parser(
        "hierarchy-sweep",
        help="declarative cross-design sweep: L1 x L2 x page-walk cache",
        description=(
            "Evaluate every declarative hierarchy design (L1 in SA/SP/RF,"
            " L2 in SA/SP/RF/none, page-walk cache on/off) against one"
            " representative Table 2 row per attack strategy, plus an RSA"
            " performance point per design and the refill-leakage"
            " cross-check on the inter-level refill event stream."
        ),
    )
    hierarchy_sweep.add_argument("--trials", type=COUNT.parse, default=25)
    hierarchy_sweep.add_argument("--rsa-runs", type=COUNT.parse, default=10)
    hierarchy_sweep.add_argument(
        "--no-leakage", action="store_true",
        help="skip the refill-leakage cross-check footer",
    )
    hierarchy_sweep.set_defaults(func=_cmd_hierarchy_sweep)

    largepages = subparsers.add_parser(
        "largepages", help="large-page software mitigation"
    )
    largepages.add_argument("--trials", type=COUNT.parse, default=40)
    largepages.set_defaults(func=_cmd_largepages)

    sweeps = subparsers.add_parser("sweeps", help="design-space sweeps")
    sweeps.add_argument("--trials", type=COUNT.parse, default=80)
    sweeps.set_defaults(func=_cmd_sweeps)

    attack = subparsers.add_parser("attack", help="TLBleed key recovery")
    attack.add_argument("--key-bits", type=COUNT.parse, default=64)
    attack.add_argument("--seed", type=int, default=2019)
    _add_design_argument(attack)
    attack.set_defaults(func=_cmd_attack)

    covert = subparsers.add_parser("covert", help="covert channel")
    covert.add_argument("--bits", type=COUNT.parse, default=200)
    covert.add_argument("--seed", type=int, default=1)
    _add_design_argument(covert)
    covert.set_defaults(func=_cmd_covert)

    trace = subparsers.add_parser(
        "trace",
        help="run a toy scenario with the event tracer attached",
        description=(
            "Run a small-parameter scenario through the repro.sim core with"
            " a JSONL event tracer subscribed to the memory-system bus;"
            " every TLB access/walk/fill/evict/flush/context-switch becomes"
            " one JSON record."
        ),
    )
    trace.add_argument(
        "scenario", type=_scenario,
        help="toy scenario to run (an unknown name lists them)",
    )
    trace.add_argument(
        "--design", choices=["SA", "SP", "RF"], default="SA",
        help="TLB design under trace (default: SA)",
    )
    trace.add_argument(
        "--out", default=None, metavar="PATH",
        help="JSONL output path (default: stdout)",
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.set_defaults(func=_cmd_trace)

    run_all = subparsers.add_parser(
        "run-all",
        help="run every experiment via the parallel runner",
        description=(
            "Shard every registered experiment into cells, run them across"
            " worker processes with result caching, and merge the"
            " full-fidelity results/ artifacts (byte-identical under every"
            " executor; scripts/run_full_evaluation.py runs this command)."
        ),
    )
    run_all.add_argument(
        "--jobs", "-j", type=COUNT.parse, default=None,
        help="worker processes (default: CPU count)",
    )
    run_all.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the result cache",
    )
    run_all.add_argument(
        "--filter", action="append", default=None, metavar="GLOB",
        help=(
            "only run units matching this glob against the experiment name"
            " or unit identity (repeatable), e.g. 'table2*' or 'table4/SA/*'"
        ),
    )
    run_all.add_argument(
        "--results-dir", default="results",
        help="artifact output directory (default: results)",
    )
    run_all.add_argument(
        "--cache-dir", default=None,
        help="result cache directory (default: .repro-cache)",
    )
    run_all.add_argument(
        "--log", default=None, metavar="PATH",
        help="JSONL run log (default: <results-dir>/run_log.jsonl)",
    )
    run_all.add_argument(
        "--max-retries", type=NON_NEGATIVE.parse, default=2,
        help="retries per cell before marking it failed (default: 2)",
    )
    run_all.add_argument(
        "--task-timeout", type=SECONDS.parse, default=None, metavar="SECONDS",
        help=(
            "per-cell wall-clock watchdog of the pool executor: kill and"
            " requeue any cell running longer than this (default: off)"
        ),
    )
    run_all.add_argument(
        "--executor", choices=["pool", "work-stealing"], default="pool",
        help=(
            "execution backend: the per-host multiprocessing pool, or the"
            " lease-based multi-host work-stealing executor coordinating"
            " through the shared cache directory (default: pool)"
        ),
    )
    run_all.add_argument(
        "--workers", type=NON_NEGATIVE.parse, default=2, metavar="N",
        help=(
            "local stealing workers to spawn with --executor work-stealing"
            " (default: 2); remote hosts join with"
            " 'python -m repro worker <cache-dir>'"
        ),
    )
    run_all.add_argument(
        "--no-fastpath", action="store_true",
        help=(
            "drive the Figure 7 cells through the reference model instead"
            " of the repro.sim.kernel fast path (results are identical;"
            " this is the differential escape hatch)"
        ),
    )
    run_all.add_argument(
        "--quiet", action="store_true", help="suppress progress output"
    )
    run_all.set_defaults(func=_cmd_run_all, usage_error=run_all.error)

    worker = subparsers.add_parser(
        "worker",
        help="join a work-stealing run as an independent worker",
        description=(
            "Steal cells from the lease board inside a shared cache"
            " directory: claim cells through atomic lease files, renew"
            " heartbeats while computing, publish sealed results, and"
            " reclaim stale leases from crashed peers.  Run this on any"
            " host that mounts the same cache directory as a"
            " 'run-all --executor work-stealing' parent."
        ),
    )
    worker.add_argument(
        "cache_dir",
        help="the shared cache directory holding the lease board",
    )
    worker.add_argument(
        "--worker-id", default=None,
        help="stable worker identity (default: <hostname>-<pid>)",
    )
    worker.add_argument(
        "--poll-interval", type=SECONDS.parse, default=0.5, metavar="SECONDS",
        help="how often to re-scan an idle board (default: 0.5)",
    )
    worker.add_argument(
        "--idle-exit", type=float, default=30.0, metavar="SECONDS",
        help=(
            "exit after this long with no claimable work; <= 0 waits"
            " forever (default: 30)"
        ),
    )
    worker.add_argument(
        "--quiet", action="store_true", help="suppress worker log lines"
    )
    worker.set_defaults(func=_cmd_worker)

    serve = subparsers.add_parser(
        "serve",
        help="async HTTP experiment service over the runner",
        description=(
            "Serve the experiment registry over HTTP/JSON: POST /v1/jobs"
            " submits a spec (experiment, design, options, trials,"
            " priority), GET /v1/jobs/{id} streams per-cell progress from"
            " the JSONL telemetry, GET /v1/results/{hash} answers from the"
            " content-addressed result store with its SHA-256 envelope"
            " verified on read.  Identical in-flight submissions dedup to"
            " one simulation; per-client token buckets rate-limit"
            " submissions.  See docs/service.md."
        ),
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default: 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=PORT.parse, default=8321,
        help="bind port; 0 lets the OS pick (default: 8321)",
    )
    serve.add_argument(
        "--state-dir", default=".repro-serve", metavar="DIR",
        help="result store + job telemetry logs (default: .repro-serve)",
    )
    serve.add_argument(
        "--cache-dir", default=None,
        help="cell result cache directory (default: .repro-cache)",
    )
    serve.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not update the cell result cache",
    )
    serve.add_argument(
        "--dispatchers", type=COUNT.parse, default=2, metavar="N",
        help="jobs in flight at once (default: 2)",
    )
    serve.add_argument(
        "--quota-rate", type=float, default=0.0, metavar="PER_SECOND",
        help=(
            "per-client sustained submissions/second; 0 disables quotas"
            " (default: 0)"
        ),
    )
    serve.add_argument(
        "--quota-burst", type=BURST.parse, default=10.0, metavar="TOKENS",
        help="per-client burst allowance, at least 1 (default: 10)",
    )
    serve.add_argument(
        "--drain-timeout", type=float, default=20.0, metavar="SECONDS",
        help=(
            "on SIGTERM, stop accepting and give in-flight jobs this long"
            " to finish; whatever remains stays journaled and resumes on"
            " the next start (default: 20)"
        ),
    )
    serve.add_argument(
        "--quiet", action="store_true", help="suppress server log lines"
    )
    serve.set_defaults(func=_cmd_serve)

    bench = subparsers.add_parser(
        "bench",
        help="fast-path vs reference regression bench",
        description=(
            "Replay Figure 7 SPEC traces and the protected RSA trace"
            " through the reference model and the run kernel, verify the"
            " counters are identical, and report accesses/second and"
            " speedups (headline floor: 8x geometric mean).  Exit codes:"
            " 2 on counter divergence, 1 when a full-size run misses the"
            " floor."
        ),
    )
    bench.add_argument(
        "--quick", action="store_true",
        help="CI-smoke sizing (still differentially strict)",
    )
    bench.add_argument(
        "--events", type=COUNT.parse, default=None,
        help="replay length per trace (default: 400000, or 60000 with"
             " --quick)",
    )
    bench.add_argument(
        "--skip-cells", action="store_true",
        help="skip the end-to-end Figure 7 cell tier",
    )
    bench.add_argument(
        "--json", action="store_true",
        help="print the report as JSON instead of text",
    )
    bench.add_argument(
        "--out", default="BENCH_fastpath.json", metavar="PATH",
        help="write the JSON report here (default: BENCH_fastpath.json;"
             " empty string disables)",
    )
    bench.set_defaults(func=_cmd_bench)

    chaos = subparsers.add_parser(
        "chaos",
        help="fault-injection campaigns: prove every fault class is caught",
        description=(
            "Inject seeded faults into the simulator (TLB bit flips,"
            " dropped flushes, walk jitter, spurious evictions) and the"
            " runner (hung/crashing/lying workers, torn cache entries,"
            " poison cells), then verify each is caught by a detector or"
            " recovered by the hardening machinery.  The runner campaign"
            " aims each fault at every executor backend that implements"
            " it -- the process pool and the work-stealing lease protocol"
            " (frozen heartbeats, duplicate and stale leases, torn journal"
            " tails) -- and each must be masked (byte-identical artifacts)"
            " or quarantined with its history.  Exits nonzero on any"
            " silent fault."
        ),
    )
    chaos.add_argument(
        "campaign", choices=["sim", "runner", "all"],
        help="which layer's campaign to run",
    )
    chaos.add_argument("--seed", type=int, default=2019)
    chaos.add_argument(
        "--design",
        choices=[
            "SA", "SP", "RF",
            "SA+SA", "SA+SP", "SA+RF",
            "SP+SA", "SP+SP", "SP+RF",
            "RF+SA", "RF+SP", "RF+RF",
        ],
        default="SA",
        help=(
            "TLB design under the sim campaign: a flat design or an"
            " L1+L2 hierarchy label (default: SA)"
        ),
    )
    chaos.add_argument(
        "--json", action="store_true",
        help="emit the detection matrix as JSON instead of text",
    )
    chaos.add_argument(
        "--workdir", default=None, metavar="DIR",
        help=(
            "where the runner campaign keeps its scratch results/caches"
            " (default: a temporary directory)"
        ),
    )
    chaos.add_argument(
        "--workers", type=NON_NEGATIVE.parse, default=2, metavar="N",
        help="local work-stealing workers in the runner campaign (default: 2)",
    )
    chaos.set_defaults(func=_cmd_chaos)

    from repro.analysis.cli import add_analyze_parser, add_certify_parser

    add_analyze_parser(subparsers)
    add_certify_parser(subparsers)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
