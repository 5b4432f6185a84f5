"""Named trace scenarios for ``python -m repro trace``.

Each scenario runs a small-parameter version of one of the repo's drive
loops with a :class:`TraceObserver` and a :class:`StatsObserver` attached
to the :class:`repro.sim.MemorySystem` event bus, writing every TLB event
as one JSONL record.  The scenarios exist to make the unified sim core
*observable*: the same code paths that produce the paper's tables can be
replayed at toy scale and inspected event by event.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Callable, Dict, List, Optional, Union

from .events import EventBus
from .observers import StatsObserver, TraceObserver, read_jsonl


@dataclass(frozen=True)
class TraceReport:
    """What one scenario run produced."""

    scenario: str
    #: Number of JSONL records written.
    events: int
    stats: StatsObserver
    #: One-line human summary of the traced experiment's outcome.
    outcome: str


def _trace_tlbleed(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    from repro.attacks.prime_probe import tlbleed_attack
    from repro.workloads.rsa import generate_key

    result = tlbleed_attack(
        kind, key=generate_key(bits=16, seed=11), seed=seed, bus=bus
    )
    return (
        f"TLBleed vs {kind.value}: recovered {result.recovered_bits!r}"
        f" (accuracy {result.accuracy:.0%})"
    )


def _trace_covert(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    from repro.attacks.covert_channel import random_message, transmit

    result = transmit(random_message(16, seed=1), kind, seed=seed, bus=bus)
    return (
        f"covert channel vs {kind.value}: BER {result.bit_error_rate:.0%}"
        f" over {len(result.sent)} bits"
    )


def _trace_dpf(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    from repro.attacks.double_page_fault import scan_secret_page

    result = scan_secret_page(kind, seed=seed, bus=bus)
    return (
        f"double-page-fault scan vs {kind.value}: recovered "
        f"{result.recovered} (secret {result.secret_vpn}, "
        f"{'correct' if result.correct else 'wrong'})"
    )


def _trace_profiling(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    from repro.attacks.set_profiling import profile_secret_set

    result = profile_secret_set(kind, rounds=5, seed=seed, bus=bus)
    return (
        f"set profiling vs {kind.value}: recovered set "
        f"{result.recovered_set} (true {result.true_set})"
    )


def _trace_perf(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    from repro.perf.harness import PerfSettings, Scenario, run_cell
    from repro.workloads.spec import SPEC_BENCHMARKS

    cell = run_cell(
        kind,
        "4W 32",
        Scenario(secure=True, spec=SPEC_BENCHMARKS[0]),
        rsa_runs=1,
        settings=PerfSettings(
            key_bits=32, spec_instructions=2_000, seed=seed
        ),
        bus=bus,
    )
    total = cell.total
    return (
        f"perf cell {kind.value}/4W 32/{cell.scenario.label}: "
        f"IPC {total.ipc:.3f}, MPKI {total.mpki:.3f}, "
        f"{total.switches} switches"
    )


def _trace_security(bus: EventBus, kind: "TLBKind", seed: int) -> str:
    import random

    from repro.model.table2 import table2_vulnerabilities
    from repro.security.benchgen import generate, layout_for_spec
    from repro.security.evaluate import (
        EvaluationConfig,
        SecurityEvaluator,
        table4_spec,
    )
    from repro.isa import assemble

    config = EvaluationConfig(seed=seed)
    evaluator = SecurityEvaluator(config)
    vulnerability = table2_vulnerabilities()[0]
    spec = table4_spec(kind)
    layout = layout_for_spec(spec, config.partitioned_primes)
    program = assemble(generate(vulnerability, layout, mapped=True))
    missed = evaluator.run_trial(
        program, spec, random.Random(seed), bus=bus
    )
    return (
        f"security trial vs {kind.value} "
        f"[{vulnerability.pretty()}]: step 3 "
        f"{'missed' if missed else 'hit'}"
    )


def read_trace(source: Union[str, Path, IO[str]]) -> List[Dict[str, Any]]:
    """Load a :class:`TraceObserver` JSONL file back into event records.

    Delegates to :func:`repro.sim.read_jsonl`, so a trace torn mid-record
    by a killed tracer process is replayable up to its last whole event
    (the torn tail is skipped with a warning).
    """
    return read_jsonl(source)


#: Scenario name -> runner(bus, kind, seed) -> outcome line.
SCENARIOS: Dict[str, Callable[[EventBus, "TLBKind", int], str]] = {
    "tlbleed": _trace_tlbleed,
    "covert": _trace_covert,
    "dpf": _trace_dpf,
    "profiling": _trace_profiling,
    "perf": _trace_perf,
    "security": _trace_security,
}


def run_scenario(
    name: str,
    target: Union[str, Path, IO[str], None] = None,
    kind: Optional["TLBKind"] = None,
    seed: int = 0,
) -> TraceReport:
    """Run one named scenario, streaming its event trace to ``target``.

    ``target`` may be a path, an open text handle, or ``None`` for stdout.
    """
    from repro.tlb import TLBKind

    if name not in SCENARIOS:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})")
    kind = kind if kind is not None else TLBKind.SA
    bus = EventBus()
    stats = StatsObserver().subscribe(bus)
    with TraceObserver(target if target is not None else sys.stdout) as trace:
        trace.subscribe(bus)
        outcome = SCENARIOS[name](bus, kind, seed)
        events = trace.seq
    return TraceReport(
        scenario=name, events=events, stats=stats, outcome=outcome
    )
