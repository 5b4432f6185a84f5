"""Security of two-level TLB hierarchies.

The paper designs and evaluates the L1 D-TLB and remarks the techniques
"can be applied to ... other levels of TLB".  This ablation shows that the
remark is load-bearing: protecting only the L1 is *not* enough.

The key mechanism: on an L1 miss the request goes to the L2, and an L2
miss performs the page-table walk and fills the L2 -- including for the
Random-Fill L1, whose *no-fill* path still resolves the secret translation
through the L2.  The victim's secret page therefore leaves a footprint in
a standard L2, and the attacker observes it through the walk counter (L2
evictions turn L1 misses into full walks).

The harness re-runs the Table 4 rows over three hierarchies:

* SA L1 + SA L2 -- the doubly standard baseline;
* RF L1 + SA L2 -- protected L1 only: the external miss-based rows leak
  again through the L2;
* RF L1 + RF L2 -- protection at both levels restores the full defence.

The declarative *sweep* generalizes the study to the full cross-product:
L1 in {SA, SP, RF} x L2 in {SA, SP, RF, none} x page-walk cache on/off
(24 designs described by :class:`repro.tlb.HierarchySpec`), each measured
for channel capacity (one representative Table 2 row per attack strategy)
and performance (the SecRSA workload through the timing model), plus a
dynamic refill-leakage cross-check over the event bus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.mmu import make_walker
from repro.model.capacity import ChannelEstimate
from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.security.evaluate import EvaluationConfig, SecurityEvaluator
from repro.tlb import TLBConfig, TLBKind, make_hierarchy
from repro.tlb.spec import (
    HierarchySpec,
    LevelSpec,
    PWCSpec,
    SpecLike,
    coerce_spec,
)

#: The evaluated L1 and L2 organizations (an L2 is larger and slower).
L1_CONFIG = TLBConfig(entries=32, ways=8, hit_latency=1)
L2_CONFIG = TLBConfig(entries=128, ways=8, hit_latency=8)

#: How the study and the sweep run the Section 5.3 protocol: seed 7, and
#: whole-set primes on every last level (partition-sized SP primes would
#: flip four committed sweep verdicts).  Benchmarks target the last
#: level, whose misses the walk counter exposes; an attack against the
#: L1's sets alone stops at the L2.
HIERARCHY_EVALUATION = EvaluationConfig(
    trials=40, seed=7, partitioned_primes=False
)


@dataclass(frozen=True)
class HierarchyResult:
    """Defence outcome of one L1/L2 combination."""

    name: str
    estimates: Dict[Vulnerability, ChannelEstimate]

    @property
    def defended(self) -> int:
        return sum(
            1 for estimate in self.estimates.values() if estimate.defends()
        )

    def vulnerable_rows(self) -> List[Vulnerability]:
        return [
            vulnerability
            for vulnerability, estimate in self.estimates.items()
            if not estimate.defends()
        ]


def study_spec(l1_kind: TLBKind, l2_kind: TLBKind) -> HierarchySpec:
    """One study design, named ``"L1/L2"`` (e.g. ``"RF/SA"``): the label
    the committed study estimates draw their RNG from (``7/RF/SA/...``)."""
    return HierarchySpec.two_level(
        l1_kind.value,
        l2_kind.value,
        L1_CONFIG,
        L2_CONFIG,
        name=f"{l1_kind.value}/{l2_kind.value}",
    )


def hierarchy_cells(
    combinations: Tuple[Tuple[TLBKind, TLBKind], ...] = (
        (TLBKind.SA, TLBKind.SA),
        (TLBKind.RF, TLBKind.SA),
        (TLBKind.RF, TLBKind.RF),
    ),
) -> List[Tuple[TLBKind, TLBKind, int, Vulnerability]]:
    """The study's work-list: one (L1, L2, row) cell per entry."""
    rows = table2_vulnerabilities()
    return [
        (l1_kind, l2_kind, index, vulnerability)
        for l1_kind, l2_kind in combinations
        for index, vulnerability in enumerate(rows)
    ]


def format_hierarchy_results(results: List[HierarchyResult]) -> str:
    lines = [
        f"{'hierarchy':22} {'defended':>9}   vulnerable strategies",
        "-" * 78,
    ]
    for result in results:
        strategies = sorted(
            {v.strategy.value for v in result.vulnerable_rows()}
        )
        lines.append(
            f"{result.name:22} {result.defended:>6}/24   "
            + (", ".join(strategies) if strategies else "-")
        )
    return "\n".join(lines)


# --------------------------------------------------------------------------
# The declarative cross-design sweep (L1 x L2 x PWC)
# --------------------------------------------------------------------------

#: The page-walk cache appended to the "+pwc" half of the sweep.
SWEEP_PWC = PWCSpec()

SWEEP_L1_KINDS = ("SA", "SP", "RF")
#: ``None`` = no L2: the flat single-level designs, as baselines inside
#: the same matrix.
SWEEP_L2_KINDS = ("SA", "SP", "RF", None)


def sweep_specs() -> List[HierarchySpec]:
    """The 24 sweep designs: L1 x L2 (incl. none) x PWC on/off."""
    specs = []
    for l1_kind in SWEEP_L1_KINDS:
        for l2_kind in SWEEP_L2_KINDS:
            for pwc in (None, SWEEP_PWC):
                levels = [LevelSpec.from_config(l1_kind, L1_CONFIG)]
                if l2_kind is not None:
                    levels.append(LevelSpec.from_config(l2_kind, L2_CONFIG))
                specs.append(HierarchySpec(levels=tuple(levels), pwc=pwc))
    return specs


def sweep_rows() -> List[Tuple[int, Vulnerability]]:
    """One representative Table 2 row per attack strategy (7 rows).

    One row per strategy keeps the matrix readable while still
    distinguishing internal-collision, flush/reload, and the five
    external miss-based strategies.  All 24 rows cost 3-5x: timing
    ``SecurityEvaluator(HIERARCHY_EVALUATION).evaluate_vulnerability(row,
    spec, 40)`` over every ``sweep_specs()`` design in one process (the
    script is in ``docs/hierarchy.md``), these 7 rows took 0.79-1.18 s
    against 3.19-4.32 s for all 24 (3.3x-4.9x, five runs on a shared
    2-vCPU host); they repeat their draw sequences more than the other
    17 rows do.  Before the evaluator simulated each distinct sequence
    of draws once, the same host, alternating, read 1.95-2.47 s against
    5.20-5.70 s.
    """
    selected: List[Tuple[int, Vulnerability]] = []
    seen = set()
    for index, vulnerability in enumerate(table2_vulnerabilities()):
        if vulnerability.strategy not in seen:
            seen.add(vulnerability.strategy)
            selected.append((index, vulnerability))
    return selected


def sweep_perf_point(spec: SpecLike, rsa_runs: int = 10) -> Dict[str, Any]:
    """One design's performance under SecRSA through the timing model.

    Reports IPC/MPKI (L1 misses per kilo-instruction), the true walk
    count (last-level misses -- what ``tlb_miss_count`` observes) and the
    page-walk-cache hit count, so the matrix shows what an L2 or a PWC
    buys back from the secure designs' miss-rate cost.  Hierarchy L1s
    run on the run kernel's ledger tier: their level adapters lack the
    walk memo token its walk cache and oracle tier need.
    """
    from repro.perf.harness import RSA_ASID
    from repro.perf.timing import ScheduledProcess, simulate
    from repro.workloads.rsa import RSAWorkload, generate_key

    spec = coerce_spec(spec)
    rsa = RSAWorkload(key=generate_key(bits=128, seed=7), runs=rsa_runs)
    tlb = make_hierarchy(spec, victim_asid=RSA_ASID)
    sbase, ssize = rsa.secure_region()
    tlb.set_secure_region(sbase, ssize, victim_asid=RSA_ASID)
    results = simulate(
        tlb,
        [ScheduledProcess(workload=rsa, asid=RSA_ASID)],
        walker=make_walker(),
    )
    total = results["total"]
    pwc = tlb.pwc
    return {
        "design": spec.label(),
        "ipc": total.ipc,
        "mpki": total.mpki,
        "walks": tlb.stats.misses,
        "accesses": total.memory_accesses,
        "cycles": total.cycles,
        "pwc_hits": pwc.stats.hits if pwc is not None else 0,
    }


def leakage_spec() -> HierarchySpec:
    """The refill cross-check design: a tiny protected L1 over a shared L2.

    Two L1 entries force constant inter-level movement, so every working-
    set page round-trips through the shared L2 and the ``refill`` stream
    carries the victim's access pattern in full.
    """
    return HierarchySpec(
        levels=(
            LevelSpec.from_config(
                "RF", TLBConfig(entries=2, ways=1, hit_latency=1)
            ),
            LevelSpec.from_config("SA", L2_CONFIG),
        ),
    )


def refill_leakage(
    spec: Optional[SpecLike] = None, workload_name: str = "rsa"
) -> Dict[str, Any]:
    """Dynamic cross-check: do *refill* counts correlate with the secret?

    Runs the guest workload under each probe exponent on the hierarchy
    and diffs the per-page tallies the :class:`repro.analysis.dynamic.
    TaintObserver` collects from the event bus.  Pages whose inter-level
    ``refill`` counts change with the secret are leaking through
    lower-level occupancy -- the channel a protected-L1 / shared-L2
    design leaves open -- even where L1 access counts alone look flat.
    """
    from repro.analysis.dynamic import correlated_pages, trace_pages
    from repro.analysis.workloads import GUEST_WORKLOADS

    spec = leakage_spec() if spec is None else coerce_spec(spec)
    workload = GUEST_WORKLOADS[workload_name]
    observers = [
        trace_pages(workload, exponent, spec=spec)
        for exponent in workload.exponents
    ]
    return {
        "design": spec.label(),
        "workload": workload.name,
        "correlated_access_pages": list(
            correlated_pages(tuple(o.pages for o in observers))
        ),
        "correlated_refill_pages": list(
            correlated_pages(tuple(o.refill_pages for o in observers))
        ),
        "refills": [observer.refills for observer in observers],
        "accesses": [observer.accesses for observer in observers],
    }


@dataclass(frozen=True)
class SweepDesignResult:
    """One sweep design's capacity row plus its performance point."""

    label: str
    spec: Dict[str, Any]
    estimates: Dict[Vulnerability, ChannelEstimate]
    perf: Dict[str, Any]

    @property
    def defended(self) -> int:
        return sum(
            1 for estimate in self.estimates.values() if estimate.defends()
        )

    def vulnerable_strategies(self) -> List[str]:
        return sorted(
            {
                vulnerability.strategy.value
                for vulnerability, estimate in self.estimates.items()
                if not estimate.defends()
            }
        )


def format_hierarchy_sweep(
    results: List[SweepDesignResult],
    leakage: Optional[Mapping[str, Any]] = None,
) -> str:
    """The cross-design matrix, one line per design."""
    total = len(results[0].estimates) if results else 0
    lines = [
        "hierarchy sweep: L1 x L2 x page-walk cache"
        f" ({len(results)} designs, {total} strategy rows each)",
        "",
        f"{'design':12} {'defended':>8} {'ipc':>7} {'mpki':>8}"
        f" {'walks':>7} {'pwc':>6}   vulnerable strategies",
        "-" * 96,
    ]
    for result in results:
        perf = result.perf
        strategies = result.vulnerable_strategies()
        lines.append(
            f"{result.label:12} {result.defended:>5}/{total}"
            f" {perf['ipc']:>7.3f} {perf['mpki']:>8.2f}"
            f" {perf['walks']:>7} {perf['pwc_hits']:>6}   "
            + (", ".join(strategies) if strategies else "-")
        )
    if leakage is not None:
        refill_pages = leakage["correlated_refill_pages"]
        lines += [
            "",
            f"refill-leakage cross-check ({leakage['design']},"
            f" {leakage['workload']} workload):",
            f"  secret-correlated refill pages: "
            + (
                ", ".join(hex(page) for page in refill_pages)
                if refill_pages
                else "none"
            ),
            f"  refills per exponent: {leakage['refills']}",
        ]
    return "\n".join(lines)
