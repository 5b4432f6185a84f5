"""TLB statistics.

Mirrors the hardware counters the paper adds to Rocket Core: a TLB miss
counter readable from the micro security benchmarks (Figure 6 reads
``tlb_miss_count`` around the probe step), plus bookkeeping used by the
performance harness (MPKI) and the test suite (fills, evictions, the RF
TLB's random-fill/no-fill actions).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class TLBStats:
    """Event counters for one TLB instance."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Normal fills of the requested translation.
    fills: int = 0
    #: Valid entries displaced by fills.
    evictions: int = 0
    #: Full flushes (sfence.vma with no address).
    flushes: int = 0
    #: Targeted invalidations attempted / that found a valid entry.
    invalidations: int = 0
    invalidation_hits: int = 0
    #: Random-Fill TLB actions (Section 4.2): translations returned through
    #: the no-fill buffer, and random fills performed instead.
    no_fills: int = 0
    random_fills: int = 0
    #: Per-ASID miss breakdown (used by the multiprogrammed harness).
    misses_by_asid: Dict[int, int] = field(default_factory=dict)

    def record_access(self, hit: bool, asid: int) -> None:
        self.accesses += 1
        if hit:
            self.hits += 1
        else:
            self.misses += 1
            self.misses_by_asid[asid] = self.misses_by_asid.get(asid, 0) + 1

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def mpki(self, instructions: int) -> float:
        """Misses per kilo-instruction, the paper's Figure 7d-f metric."""
        if instructions <= 0:
            raise ValueError("instruction count must be positive")
        return 1000.0 * self.misses / instructions

    def snapshot(self) -> "TLBStats":
        """An independent copy (for before/after deltas in harnesses)."""
        copy = TLBStats(
            accesses=self.accesses,
            hits=self.hits,
            misses=self.misses,
            fills=self.fills,
            evictions=self.evictions,
            flushes=self.flushes,
            invalidations=self.invalidations,
            invalidation_hits=self.invalidation_hits,
            no_fills=self.no_fills,
            random_fills=self.random_fills,
        )
        copy.misses_by_asid = dict(self.misses_by_asid)
        return copy

    def restore(self, saved: "TLBStats") -> None:
        """Set every counter back to a :meth:`snapshot`'s, in place."""
        by_asid = self.misses_by_asid
        self.__dict__.update(saved.__dict__)
        self.misses_by_asid = by_asid
        by_asid.clear()
        by_asid.update(saved.misses_by_asid)

    def reset(self) -> None:
        self.accesses = 0
        self.hits = 0
        self.misses = 0
        self.fills = 0
        self.evictions = 0
        self.flushes = 0
        self.invalidations = 0
        self.invalidation_hits = 0
        self.no_fills = 0
        self.random_fills = 0
        self.misses_by_asid.clear()
