"""Set-profiling: recover *which TLB set* the victim's secret page uses.

TLBleed does not know the secret page up front; it first profiles every
TLB set in parallel to find the one whose activity correlates with the
victim's secret-dependent access.  This module reproduces that first
stage: the attacker Prime + Probes **all** sets around one victim access
and reports the set(s) that evicted -- recovering ``u``'s set index, i.e.
the low bits of the secret virtual page number.

Against the standard SA TLB one round suffices.  Against the RF TLB every
round's eviction lands in an RFE-chosen random set, so repeated rounds
vote for a page that is uniform over the secure region rather than ``u``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.mmu import make_walker
from repro.sim.events import EventBus
from repro.sim.probe import SetProber
from repro.sim.system import MemorySystem
from repro.tlb import RandomFillTLB, TLBConfig, TLBKind, make_tlb

VICTIM_ASID = 1
ATTACKER_ASID = 2
PROBE_BASE = 0x600


@dataclass(frozen=True)
class ProfilingResult:
    """Outcome of a set-profiling run."""

    true_set: int
    #: Per-round winning set indices (the set with the most probe misses).
    rounds: List[Optional[int]]
    kind: TLBKind

    @property
    def recovered_set(self) -> Optional[int]:
        """Majority vote over the rounds."""
        votes = Counter(index for index in self.rounds if index is not None)
        if not votes:
            return None
        return votes.most_common(1)[0][0]

    @property
    def correct(self) -> bool:
        return self.recovered_set == self.true_set

    def vote_distribution(self) -> Dict[int, int]:
        return dict(Counter(i for i in self.rounds if i is not None))


def profile_secret_set(
    kind: TLBKind = TLBKind.SA,
    secret_vpn: int = 0x102,
    region_base: int = 0x100,
    region_pages: int = 8,
    rounds: int = 15,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
    bus: Optional[EventBus] = None,
) -> ProfilingResult:
    """Run ``rounds`` of all-set Prime + Probe around one victim access."""
    if not region_base <= secret_vpn < region_base + region_pages:
        raise ValueError("the secret page must lie inside the region")
    nsets = config.sets
    tlb = make_tlb(
        kind,
        config,
        victim_asid=VICTIM_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    if isinstance(tlb, RandomFillTLB):
        tlb.set_secure_region(region_base, region_pages, victim_asid=VICTIM_ASID)
    memory = MemorySystem(tlb, make_walker(), bus=bus)
    probers = {
        set_index: SetProber.for_set(
            memory, PROBE_BASE, set_index, ATTACKER_ASID, nsets, config.ways
        )
        for set_index in range(nsets)
    }

    winners: List[Optional[int]] = []
    for _round in range(rounds):
        memory.flush_all()
        for prober in probers.values():
            prober.prime()
        memory.translate(secret_vpn, VICTIM_ASID)  # the V_u access
        misses_per_set = {
            set_index: prober.probe().misses
            for set_index, prober in probers.items()
        }
        best = max(misses_per_set.values())
        if best == 0:
            winners.append(None)
        else:
            winners.append(
                max(misses_per_set, key=misses_per_set.get)
            )
    return ProfilingResult(
        true_set=secret_vpn % nsets, rounds=winners, kind=kind
    )
