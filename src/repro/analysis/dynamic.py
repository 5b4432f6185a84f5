"""Dynamic cross-check: does a static finding manifest in real traces?

The static layer says a page *may* be touched secret-dependently; this
layer checks it *does*.  A :class:`TaintObserver` subscribes to the
:class:`repro.sim.EventBus` and tallies, per virtual page and per TLB
set, every ``AccessEvent`` the :class:`repro.sim.MemorySystem` publishes
while the guest program runs on the ISA CPU.  Running the same workload
under several exponents and diffing the tallies yields the set of
*secret-correlated* pages -- pages whose access counts change with the
secret.  A static finding is **confirmed** when its page set intersects
that correlated set (or, for findings without a static page, when any
correlated page exists at all).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.isa.assembler import assemble
from repro.isa.cpu import CPU
from repro.sim.events import AccessEvent, EventBus
from repro.sim.system import MemorySystem
from repro.tlb import TLBKind, make_hierarchy, make_tlb
from repro.tlb.config import TLBConfig
from repro.tlb.spec import HierarchySpec

from .taint import GuestReport, LeakageFinding
from .workloads import GuestWorkload


@dataclass
class TaintObserver:
    """Per-page and per-TLB-set access tallies over the event bus.

    Inter-level ``refill`` events are tallied separately: on a hierarchy,
    a page whose *refill* counts correlate with the secret is leaking
    through lower-level occupancy even when the L1 access counts look
    flat -- exactly the channel a protected-L1 / shared-L2 design leaves
    open.
    """

    #: TLB set count used to fold pages onto sets (0 disables set tallies).
    sets: int = 0
    pages: Counter = field(default_factory=Counter)
    tlb_sets: Counter = field(default_factory=Counter)
    #: Per-page inter-level refill tallies (empty for single-level TLBs).
    refill_pages: Counter = field(default_factory=Counter)
    accesses: int = 0
    refills: int = 0

    def subscribe(self, bus: EventBus) -> "TaintObserver":
        bus.on_access(self._on_access)
        bus.on_refill(self._on_refill)
        return self

    def _on_access(self, event: AccessEvent) -> None:
        self.accesses += 1
        self.pages[event.vpn] += 1
        if self.sets:
            self.tlb_sets[event.vpn % self.sets] += 1

    def _on_refill(self, event) -> None:
        self.refills += 1
        self.refill_pages[event.vpn] += 1


@dataclass(frozen=True)
class CheckedFinding:
    """One static finding with its dynamic verdict."""

    finding: LeakageFinding
    confirmed: bool
    #: The correlated pages that matched this finding.
    correlated: Tuple[int, ...] = ()


@dataclass(frozen=True)
class CrossCheckReport:
    """Static-vs-dynamic agreement for one workload."""

    workload: str
    exponents: Tuple[int, ...]
    #: Pages whose access counts differ across the probe exponents.
    correlated_pages: Tuple[int, ...]
    #: Same, folded onto TLB set indices.
    correlated_sets: Tuple[int, ...]
    checked: Tuple[CheckedFinding, ...]
    #: Per-exponent total accesses (sanity signal for the report).
    accesses: Tuple[int, ...]

    @property
    def all_confirmed(self) -> bool:
        return all(item.confirmed for item in self.checked)

    @property
    def confirmed_count(self) -> int:
        return sum(1 for item in self.checked if item.confirmed)

    @property
    def leaks_dynamically(self) -> bool:
        return bool(self.correlated_pages)


def trace_pages(
    workload: GuestWorkload,
    exponent: int,
    kind: TLBKind = TLBKind.SA,
    config: Optional[TLBConfig] = None,
    spec: Optional[HierarchySpec] = None,
) -> TaintObserver:
    """Run one exponent through the full CPU + MemorySystem stack.

    With ``spec`` the workload runs on a multi-level hierarchy instead of
    a flat ``kind``/``config`` TLB; set tallies then fold on the *last*
    level's geometry (the level whose misses reach the walk counter), and
    the observer's refill tallies become meaningful.
    """
    program = assemble(workload.source(exponent))
    bus = EventBus()
    if spec is not None:
        tlb = make_hierarchy(spec)
        sets = spec.levels[-1].sets
    else:
        config = config or TLBConfig(entries=16, ways=4)
        tlb = make_tlb(kind, config)
        sets = config.sets
    observer = TaintObserver(sets=sets).subscribe(bus)
    memory_system = MemorySystem(tlb, bus=bus)
    cpu = CPU(memory_system=memory_system)
    cpu.load(program)
    cpu.run()
    return observer


def correlated_pages(
    tallies: Tuple[Counter, ...],
) -> Tuple[int, ...]:
    """Pages whose access counts are not identical across all runs."""
    pages = set()
    for tally in tallies:
        pages.update(tally)
    return tuple(
        sorted(
            page
            for page in pages
            if len({tally[page] for tally in tallies}) > 1
        )
    )


def cross_check(
    workload: GuestWorkload,
    report: GuestReport,
    kind: TLBKind = TLBKind.SA,
    config: Optional[TLBConfig] = None,
    exponents: Optional[Tuple[int, ...]] = None,
) -> CrossCheckReport:
    """Confirm each static finding against event-bus traces.

    Every probe exponent gets a fresh CPU, TLB and bus, so tallies differ
    only through the program's secret-dependent behaviour.
    """
    exponents = exponents or workload.exponents
    observers = tuple(
        trace_pages(workload, exponent, kind=kind, config=config)
        for exponent in exponents
    )
    pages = correlated_pages(tuple(observer.pages for observer in observers))
    sets = correlated_pages(
        tuple(observer.tlb_sets for observer in observers)
    )
    checked = []
    for finding in report.findings:
        if finding.pages:
            matched = tuple(
                page for page in finding.pages if page in pages
            )
            confirmed = bool(matched)
        else:
            # No static page (branch sinks, unknown addresses): the trace
            # can only confirm that *some* page correlates with the secret.
            matched = pages
            confirmed = bool(pages)
        checked.append(
            CheckedFinding(
                finding=finding, confirmed=confirmed, correlated=matched
            )
        )
    return CrossCheckReport(
        workload=report.name,
        exponents=tuple(exponents),
        correlated_pages=pages,
        correlated_sets=sets,
        checked=tuple(checked),
        accesses=tuple(observer.accesses for observer in observers),
    )


def secret_correlation(
    workload: GuestWorkload,
    kind: TLBKind = TLBKind.SA,
    config: Optional[TLBConfig] = None,
    exponents: Optional[Tuple[int, ...]] = None,
) -> Dict[int, Tuple[int, ...]]:
    """Per-page access counts across the probe exponents (debug helper)."""
    exponents = exponents or workload.exponents
    observers = tuple(
        trace_pages(workload, exponent, kind=kind, config=config)
        for exponent in exponents
    )
    pages = set()
    for observer in observers:
        pages.update(observer.pages)
    return {
        page: tuple(observer.pages[page] for observer in observers)
        for page in sorted(pages)
    }
