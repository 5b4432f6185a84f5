"""A Double-Page-Fault-style internal-collision attack.

Hund, Willems and Holz's attack (IEEE S&P 2013) exploits Table 2's
``TLB Internal Collision`` rows: a translation is cached by the first
(faulting) access, so a *second* access to the same page is fast iff the
first one really did install a translation -- revealing whether two
addresses collide in the TLB, and hence (scanned over candidates) where a
secret mapping lives.

The reproduction plays the ``A_d ~> V_u ~> V_a (fast)`` row: after the
victim's secret access, timing a victim access to candidate page ``a``
reveals whether ``u == a``.  Scanning all candidate pages of the secret
region recovers the victim's secret page on the standard and SP TLBs;
against the RF TLB the secret access installs a random region page, so the
scan's answer is decorrelated from ``u``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.mmu import PageTableWalker, make_walker
from repro.sim.events import EventBus
from repro.sim.system import MemorySystem
from repro.tlb import RandomFillTLB, TLBConfig, TLBKind, make_tlb
from repro.tlb.base import BaseTLB

VICTIM_ASID = 1
ATTACKER_ASID = 2


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one candidate scan."""

    secret_vpn: int
    #: Candidates whose post-access reload hit (the attacker's inference).
    hits: List[int]
    kind: TLBKind

    @property
    def recovered(self) -> Optional[int]:
        """The attacker's guess: the unique hitting candidate, if any."""
        if len(self.hits) == 1:
            return self.hits[0]
        return None

    @property
    def correct(self) -> bool:
        return self.recovered == self.secret_vpn


def probe_candidate(
    tlb: BaseTLB,
    walker: Optional[PageTableWalker] = None,
    secret_vpn: int = 0,
    candidate_vpn: int = 0,
    noise_vpn: int = 0x700,
    memory: Optional[MemorySystem] = None,
) -> bool:
    """One three-step round: returns True if the candidate reload was fast.

    Step 1 (``A_d``): the attacker touches an unrelated page, leaving the
    block without the candidate's translation.  Step 2 (``V_u``): the
    victim's secret access.  Step 3 (``V_a``): the victim reloads the
    candidate; a hit means the secret access installed it, i.e. u == a.

    Callers holding a bare TLB + walker may pass them directly; the round
    still runs through a (throwaway) :class:`repro.sim.MemorySystem`.
    """
    if memory is None:
        memory = MemorySystem(tlb, walker)
    memory.translate(noise_vpn, ATTACKER_ASID)  # A_d
    memory.translate(secret_vpn, VICTIM_ASID)  # V_u
    return memory.translate(candidate_vpn, VICTIM_ASID).hit  # V_a


def scan_secret_page(
    kind: TLBKind,
    secret_offset: int = 1,
    region_base: int = 0x100,
    region_pages: int = 3,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
    bus: Optional[EventBus] = None,
) -> ScanResult:
    """Scan every region page, flushing between rounds (fresh Step 1)."""
    if not 0 <= secret_offset < region_pages:
        raise ValueError("secret page must lie inside the region")
    secret_vpn = region_base + secret_offset
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

    hits = []
    for candidate in range(region_base, region_base + region_pages):
        memory.flush_all()  # independent rounds
        if probe_candidate(
            tlb, secret_vpn=secret_vpn, candidate_vpn=candidate, memory=memory
        ):
            hits.append(candidate)
    return ScanResult(secret_vpn=secret_vpn, hits=hits, kind=kind)
