"""The :class:`MemorySystem` facade: the one translation path.

Owns the TLB (any :class:`repro.tlb.BaseTLB`-compatible object, including
:class:`repro.tlb.TLBHierarchy`), the page-table walker, the
context-switch TLB policy and the cycle accounting, and publishes every
architecturally visible action on its :class:`repro.sim.EventBus`.

For multi-level hierarchies the facade additionally derives level-tagged
events: while the bus is active it asks the hierarchy to record which
levels each request consulted (``begin_trace`` / ``pop_trace``) and turns
the records into per-level fills and evictions, ``refill`` events for
misses served by a lower TLB level, and walk events only for true
page-table walks (tagged ``cached`` when a page-walk cache served them).
Records for other page numbers -- e.g. an RF level's random fills -- are
discarded, preserving the single-level stream's opacity guarantee.

Every drive loop in the repository -- the ISA CPU, the trace-driven timing
model, the end-to-end attacks and the security evaluation harness --
performs its translations through this facade rather than calling
``tlb.translate`` directly, so observers (tracing, aggregate statistics)
see every experiment through the same seam.
"""

from __future__ import annotations

from typing import Optional

from repro.mmu import SwitchPolicy
from repro.tlb.base import AccessResult, Translator
from repro.tlb.hierarchy import TLBHierarchy

from .events import (
    AccessEvent,
    ContextSwitchEvent,
    EventBus,
    EvictEvent,
    FillEvent,
    FlushEvent,
    RefillEvent,
    WalkEvent,
)


class MemorySystem:
    """TLB + walker + switch policy + cycle accounting behind one facade."""

    def __init__(
        self,
        tlb,
        walker: Optional[Translator] = None,
        switch_policy: SwitchPolicy = SwitchPolicy.KEEP,
        bus: Optional[EventBus] = None,
    ) -> None:
        if walker is None:
            from repro.mmu import PageTableWalker

            walker = PageTableWalker(auto_map=True)
        self.tlb = tlb
        #: Set when the TLB is a multi-level hierarchy: enables per-access
        #: trace recording and level-tagged event derivation.
        self._hierarchy: Optional[TLBHierarchy] = (
            tlb if isinstance(tlb, TLBHierarchy) else None
        )
        self.walker = walker
        self.switch_policy = switch_policy
        self.bus = bus if bus is not None else EventBus()
        #: The currently running address space (None before the first
        #: :meth:`context_switch`).
        self.current_asid: Optional[int] = None
        #: Context switches between *distinct* address spaces.
        self.switches = 0
        #: Cycles spent in translations and targeted invalidations.
        self.cycles = 0
        self.accesses = 0

    # -- translation --------------------------------------------------------------

    def translate(self, vpn: int, asid: int) -> AccessResult:
        """Translate one page access through the TLB, publishing events."""
        bus = self.bus
        hierarchy = self._hierarchy if bus.active else None
        if hierarchy is not None:
            hierarchy.begin_trace()
            try:
                result = hierarchy.translate(vpn, asid, self.walker)
            finally:
                records = hierarchy.pop_trace()
        else:
            result = self.tlb.translate(vpn, asid, self.walker)
        self.accesses += 1
        self.cycles += result.cycles
        if bus.active:
            bus.emit(
                AccessEvent(
                    vpn=vpn,
                    asid=asid,
                    hit=result.hit,
                    ppn=result.ppn,
                    cycles=result.cycles,
                    filled=result.filled,
                )
            )
            if hierarchy is not None:
                self._emit_hierarchy_events(bus, vpn, asid, result, records)
            else:
                if not result.hit:
                    hit_latency = self.tlb.config.hit_latency
                    bus.emit(
                        WalkEvent(
                            vpn=vpn,
                            asid=asid,
                            cycles=max(result.cycles - hit_latency, 0),
                        )
                    )
                    if result.filled:
                        bus.emit(
                            FillEvent(vpn=vpn, asid=asid, ppn=result.ppn)
                        )
                if result.evicted is not None:
                    evicted = result.evicted
                    bus.emit(
                        EvictEvent(
                            vpn=evicted.vpn,
                            asid=evicted.asid,
                            page_level=evicted.level,
                        )
                    )
        return result

    def _emit_hierarchy_events(
        self, bus: EventBus, vpn: int, asid: int, result: AccessResult, records
    ) -> None:
        """Turn one access's consult/walk records into level-tagged events.

        Records are appended innermost first (the walk, then each consulted
        level from deepest to the L2); only records for the requested page
        number are considered, so design-internal traffic such as RF random
        fills stays invisible -- the same opacity the single-level stream
        guarantees.  A miss with no walk record was served from a lower TLB
        level and becomes ``refill`` events instead of a walk.
        """
        if result.hit:
            return
        walk_record = next(
            (
                record
                for record in records
                if record[0] == "walk" and record[1] == vpn
            ),
            None,
        )
        # Consulted lower levels for this page, deepest first.
        consulted = [
            (record[1], record[3])
            for record in records
            if record[0] == "level" and record[2] == vpn
        ]
        if walk_record is not None:
            walk_result, cached = walk_record[2], walk_record[3]
            bus.emit(
                WalkEvent(
                    vpn=vpn,
                    asid=asid,
                    cycles=walk_result.cycles,
                    cached=cached,
                )
            )
        else:
            # Served by a lower TLB level: every level above it refills.
            hit_level = next(
                (number for number, level in consulted if level.hit), None
            )
            if hit_level is not None:
                for missed in range(hit_level - 1, 0, -1):
                    bus.emit(
                        RefillEvent(
                            vpn=vpn,
                            asid=asid,
                            level=missed,
                            hit_level=hit_level,
                        )
                    )
        # Fills and evictions, deepest level first (the order they happened).
        for number, level_result in consulted:
            if level_result.miss and level_result.filled:
                bus.emit(
                    FillEvent(
                        vpn=vpn,
                        asid=asid,
                        level=number,
                        ppn=level_result.ppn,
                    )
                )
        if result.filled:
            bus.emit(FillEvent(vpn=vpn, asid=asid, level=1, ppn=result.ppn))
        for number, level_result in consulted:
            if level_result.evicted is not None:
                evicted = level_result.evicted
                bus.emit(
                    EvictEvent(
                        vpn=evicted.vpn,
                        asid=evicted.asid,
                        page_level=evicted.level,
                        level=number,
                    )
                )
        if result.evicted is not None:
            evicted = result.evicted
            bus.emit(
                EvictEvent(
                    vpn=evicted.vpn,
                    asid=evicted.asid,
                    page_level=evicted.level,
                    level=1,
                )
            )

    # -- context switching --------------------------------------------------------

    def context_switch(self, asid: int) -> bool:
        """Make ``asid`` the running address space.

        Applies the configured :class:`repro.mmu.SwitchPolicy` when the
        address space actually changes (the first call only latches the
        initial ASID).  Returns True iff a switch occurred.
        """
        previous = self.current_asid
        if previous is None or previous == asid:
            self.current_asid = asid
            return False
        flushed = False
        if self.switch_policy is SwitchPolicy.FLUSH_ALL:
            self.tlb.flush_all()
            flushed = True
        elif self.switch_policy is SwitchPolicy.FLUSH_OUTGOING:
            self.tlb.flush_asid(previous)
            flushed = True
        self.current_asid = asid
        self.switches += 1
        bus = self.bus
        if bus.active:
            bus.emit(
                ContextSwitchEvent(
                    previous=previous,
                    asid=asid,
                    policy=self.switch_policy.value,
                    flushed=flushed,
                )
            )
            if flushed:
                scope = (
                    "all"
                    if self.switch_policy is SwitchPolicy.FLUSH_ALL
                    else "asid"
                )
                bus.emit(
                    FlushEvent(
                        scope=scope,
                        asid=(
                            previous
                            if self.switch_policy is SwitchPolicy.FLUSH_OUTGOING
                            else None
                        ),
                    )
                )
        return True

    # -- maintenance --------------------------------------------------------------

    def flush_all(self) -> None:
        """Full flush (``sfence.vma`` with no operands)."""
        self.tlb.flush_all()
        if self.bus.active:
            self.bus.emit(FlushEvent(scope="all"))

    def flush_asid(self, asid: int) -> None:
        """Flush one process's entries."""
        self.tlb.flush_asid(asid)
        if self.bus.active:
            self.bus.emit(FlushEvent(scope="asid", asid=asid))

    def invalidate_page(self, vpn: int, asid: int) -> AccessResult:
        """Targeted invalidation with Appendix B presence-dependent timing."""
        result = self.tlb.invalidate_page(vpn, asid)
        self.cycles += result.cycles
        if self.bus.active:
            self.bus.emit(
                FlushEvent(scope="page", asid=asid, vpn=vpn, present=result.hit)
            )
        return result

    # -- checkpoints ----------------------------------------------------------------

    def checkpoint(self) -> tuple:
        """The TLB's and the walker's checkpoints plus this facade's
        counters, for :meth:`rewind`."""
        return (
            self.tlb.checkpoint(),
            self.walker.checkpoint(),
            self.current_asid,
            self.switches,
            self.cycles,
            self.accesses,
        )

    def rewind(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`, in place."""
        (tlb, walker, self.current_asid, self.switches, self.cycles,
         self.accesses) = state
        self.tlb.rewind(tlb)
        self.walker.rewind(walker)

    # -- pass-throughs ------------------------------------------------------------

    def set_secure_region(
        self, sbase: int, ssize: int, victim_asid: Optional[int] = None
    ) -> None:
        """Program an RF TLB's region registers, if the design has them."""
        if hasattr(self.tlb, "set_secure_region"):
            self.tlb.set_secure_region(sbase, ssize, victim_asid=victim_asid)

    def resident(self, vpn: int, asid: int) -> bool:
        return self.tlb.resident(vpn, asid)

    @property
    def stats(self):
        """The underlying TLB's counters."""
        return self.tlb.stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MemorySystem tlb={self.tlb!r} policy={self.switch_policy.value}"
            f" accesses={self.accesses} switches={self.switches}>"
        )
