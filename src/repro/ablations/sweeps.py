"""Design-space sweeps around the paper's design choices.

The paper fixes several knobs and flags the alternatives as future work;
these sweeps quantify them:

* **SP partition split** (Section 4.1.2: "assignment of different number
  of ways ... could be further explored") -- victim-ways from 1 to
  ways-1, measuring each side's MPKI;
* **RF secure-region size** (the region is a software knob; Section 5.3
  uses 3 and 31 pages) -- region size against the victim's MPKI overhead
  and the Prime + Probe channel capacity;
* **replacement policy** (the threat model excludes LRU-specific attacks;
  this sweep shows the baseline attack works under LRU/FIFO and degrades
  under random replacement, motivating that exclusion).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List

from repro.attacks.prime_probe import tlbleed_attack
from repro.model.capacity import ChannelEstimate
from repro.mmu import make_walker
from repro.perf.timing import ScheduledProcess, simulate
from repro.security.evaluate import (
    EvaluationConfig,
    SecurityEvaluator,
    table4_spec,
)
from repro.tlb import ReplacementKind, TLBConfig, TLBKind, make_tlb
from repro.workloads.rsa import RSAWorkload, generate_key
from repro.workloads.spec import OMNETPP, SpecProfile


@dataclass(frozen=True)
class PartitionPoint:
    """One SP split: victim ways vs both sides' measured MPKI."""

    victim_ways: int
    attacker_ways: int
    victim_mpki: float
    attacker_mpki: float


def sp_partition_point(
    victim_ways: int,
    config: TLBConfig = TLBConfig(entries=32, ways=4),
    spec: SpecProfile = OMNETPP,
    instructions: int = 60_000,
    rsa_runs: int = 10,
    seed: int = 0,
) -> PartitionPoint:
    """One SP split measurement (a pure, shardable sweep point): the MPKI
    of the victim (RSA) and of the attacker side (a SPEC workload) when
    the victim holds ``victim_ways`` of the ways."""
    key = generate_key(bits=64, seed=3)
    tlb = make_tlb(
        TLBKind.SP, config, victim_asid=1, victim_ways=victim_ways
    )
    results = simulate(
        tlb,
        [
            ScheduledProcess(RSAWorkload(key=key, runs=rsa_runs), asid=1),
            ScheduledProcess(spec, asid=2, instructions=instructions),
        ],
        walker=make_walker(),
        seed=seed,
    )
    return PartitionPoint(
        victim_ways=victim_ways,
        attacker_ways=config.ways - victim_ways,
        victim_mpki=results["RSA"].mpki,
        attacker_mpki=results[spec.name].mpki,
    )


@dataclass(frozen=True)
class RegionPoint:
    """One RF secure-region size: overhead and residual channel."""

    region_pages: int
    victim_mpki: float
    prime_probe_capacity: float


def rf_region_point(
    pages: int,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    rsa_runs: int = 10,
    trials: int = 120,
    seed: int = 0,
) -> RegionPoint:
    """One RF secure-region size measurement (a pure, shardable point):
    the victim's MPKI and the measured Prime + Probe capacity against the
    monitored set.

    Larger regions spread the random fills thinner (each probe set is hit
    with probability ~1/min(region, sets)), while costing the victim more
    no-fill misses.
    """
    from repro.model.patterns import Observation, ThreeStepPattern, Vulnerability
    from repro.model.states import A_D, V_U

    key = generate_key(bits=64, seed=3)
    prime_probe = Vulnerability(
        ThreeStepPattern((A_D, V_U, A_D)), Observation.SLOW
    )
    # Performance: the victim's own trace with the region covering its
    # buffers (clipped to the region size).
    workload = RSAWorkload(key=key, runs=rsa_runs)
    tlb = make_tlb(TLBKind.RF, config, victim_asid=1, rng=random.Random(seed))
    tlb.set_secure_region(
        workload.buffers.sbase, min(pages, workload.buffers.ssize)
    )
    results = simulate(
        tlb,
        [ScheduledProcess(workload, asid=1)],
        walker=make_walker(),
        seed=seed,
    )
    # Security: the Prime + Probe estimate with this region size.
    evaluator = SecurityEvaluator(EvaluationConfig(trials=trials))
    result = _evaluate_with_region(evaluator, prime_probe, pages)
    return RegionPoint(
        region_pages=pages,
        victim_mpki=results["RSA"].mpki,
        prime_probe_capacity=result.capacity,
    )


def _evaluate_with_region(
    evaluator: SecurityEvaluator, vulnerability, pages: int
) -> ChannelEstimate:
    """Run one vulnerability's benchmark with an explicit region size.

    The region size is not part of a design, so this builds the two
    programs itself, and the committed region sweep draws from one RNG
    per size (not per row label).
    """
    from repro.isa import assemble
    from repro.security.benchgen import generate, layout_for_spec

    spec = table4_spec(TLBKind.RF)
    layout = layout_for_spec(spec)
    mapped, unmapped = (
        assemble(generate(vulnerability, layout, mapped=mapped, ssize=pages))
        for mapped in (True, False)
    )
    return evaluator.channel_estimate(
        mapped, unmapped, spec, pages * 7919 + 13, evaluator.config.trials
    )


@dataclass(frozen=True)
class PolicyPoint:
    """TLBleed accuracy under one replacement policy."""

    policy: ReplacementKind
    accuracy: float
    recovered_exactly: bool


def replacement_policy_point(
    policy: ReplacementKind, seed: int = 0
) -> PolicyPoint:
    """TLBleed single-trace accuracy under one policy (a pure point)."""
    key = generate_key(bits=64, seed=11)
    config = TLBConfig(entries=32, ways=8, replacement=policy)
    result = tlbleed_attack(TLBKind.SA, key=key, config=config, seed=seed)
    return PolicyPoint(
        policy=policy,
        accuracy=result.accuracy,
        recovered_exactly=result.recovered_exactly,
    )


@dataclass(frozen=True)
class WalkLatencyPoint:
    """IPC at one page-table-walk cost (the timing model's free knob)."""

    cycles_per_level: int
    ipc: float
    mpki: float


def walk_latency_point(
    cost: int,
    spec: SpecProfile = OMNETPP,
    instructions: int = 60_000,
    seed: int = 0,
) -> WalkLatencyPoint:
    """One walk-cost sensitivity measurement (a pure, shardable point).

    MPKI is a pure hit/miss count and must be invariant; IPC degrades as
    walks get more expensive.  This bounds how much of the reproduction's
    IPC story depends on the one free constant of the timing model.
    """
    from repro.mmu import WalkerConfig

    tlb = make_tlb(TLBKind.SA, TLBConfig(entries=32, ways=4))
    results = simulate(
        tlb,
        [ScheduledProcess(spec, asid=1, instructions=instructions)],
        walker=make_walker(WalkerConfig(cycles_per_level=cost)),
        seed=seed,
    )
    total = results["total"]
    return WalkLatencyPoint(
        cycles_per_level=cost, ipc=total.ipc, mpki=total.mpki
    )


def format_partition_sweep(points: List[PartitionPoint]) -> str:
    lines = [f"{'victim ways':>11} {'attacker ways':>13} "
             f"{'victim MPKI':>12} {'attacker MPKI':>14}", "-" * 55]
    for point in points:
        lines.append(
            f"{point.victim_ways:>11} {point.attacker_ways:>13} "
            f"{point.victim_mpki:>12.3f} {point.attacker_mpki:>14.3f}"
        )
    return "\n".join(lines)


def format_region_sweep(points: List[RegionPoint]) -> str:
    lines = [f"{'region pages':>12} {'victim MPKI':>12} "
             f"{'P+P capacity':>13}", "-" * 40]
    for point in points:
        lines.append(
            f"{point.region_pages:>12} {point.victim_mpki:>12.3f} "
            f"{point.prime_probe_capacity:>13.3f}"
        )
    return "\n".join(lines)
