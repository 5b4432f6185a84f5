"""Hierarchy-tagged events: refills, per-level fills, PWC-served walks.

The locked event schema threads the hierarchy through the bus: every
``fill`` / ``evict`` / ``flush`` carries the 1-based level it happened
at, an L1 miss served by a lower level emits a ``refill`` (and *no*
``walk``), and a walk served by the page-walk cache is flagged
``cached``.  These tests pin the derivation the
:class:`repro.sim.MemorySystem` performs from the hierarchy's trace
records.
"""

from __future__ import annotations

import random

from repro.mmu import make_walker
from repro.sim import EventBus, MemorySystem, StatsObserver
from repro.sim.events import (
    AccessEvent,
    EvictEvent,
    FillEvent,
    FlushEvent,
    RefillEvent,
    WalkEvent,
)
from repro.tlb import (
    HierarchySpec,
    LevelSpec,
    PWCSpec,
    TLBConfig,
    make_hierarchy,
)

L1 = TLBConfig(entries=4, ways=2, hit_latency=1)
L2 = TLBConfig(entries=32, ways=8, hit_latency=8)


def build(spec: HierarchySpec, bus: EventBus) -> MemorySystem:
    tlb = make_hierarchy(spec, victim_asid=1, rng=random.Random(7))
    return MemorySystem(tlb, walker=make_walker(), bus=bus)


def two_level(pwc: PWCSpec | None = None) -> HierarchySpec:
    return HierarchySpec.two_level("SA", "SA", L1, L2, pwc=pwc)


def subscribe_all(bus: EventBus):
    seen = []
    for event_type in (
        AccessEvent, WalkEvent, FillEvent, RefillEvent, EvictEvent,
        FlushEvent,
    ):
        bus.subscribe(event_type, seen.append)
    return seen


def spill_l1(memory: MemorySystem, asid: int = 1) -> int:
    """Touch same-set pages until one falls out of the L1 (L2 keeps it)."""
    tlb = memory.tlb
    nsets = tlb.l1.config.sets
    pages = [0x200 + i * nsets for i in range(tlb.l1.config.ways + 1)]
    for vpn in pages:
        memory.translate(vpn, asid)
    spilled = pages[0]
    assert not tlb.l1.resident(spilled, asid)
    assert tlb.l2.resident(spilled, asid)
    return spilled


class TestColdMiss:
    def test_fills_are_tagged_deepest_first(self):
        bus = EventBus()
        seen = subscribe_all(bus)
        build(two_level(), bus).translate(0x10, 1)
        assert [type(event) for event in seen] == [
            AccessEvent, WalkEvent, FillEvent, FillEvent,
        ]
        walk = seen[1]
        assert not walk.cached
        assert [event.level for event in seen[2:]] == [2, 1]
        assert all(event.vpn == 0x10 for event in seen[2:])

    def test_hit_emits_only_the_access(self):
        bus = EventBus()
        memory = build(two_level(), bus)
        memory.translate(0x10, 1)
        seen = subscribe_all(bus)
        memory.translate(0x10, 1)
        assert [type(event) for event in seen] == [AccessEvent]
        assert seen[0].hit


class TestRefill:
    def test_l2_hit_emits_refill_and_no_walk(self):
        bus = EventBus()
        memory = build(two_level(), bus)
        spilled = spill_l1(memory)
        seen = subscribe_all(bus)

        result = memory.translate(spilled, 1)

        assert result.miss  # an L1 miss, even though the L2 had it
        kinds = [type(event) for event in seen]
        assert WalkEvent not in kinds
        refills = [event for event in seen if isinstance(event, RefillEvent)]
        assert len(refills) == 1
        refill = refills[0]
        assert (refill.vpn, refill.asid) == (spilled, 1)
        assert (refill.level, refill.hit_level) == (1, 2)
        # The refill re-fills the L1 only; the L2 already has the page.
        fills = [event for event in seen if isinstance(event, FillEvent)]
        assert [event.level for event in fills] == [1]

    def test_three_level_refill_covers_every_missed_level(self):
        spec = HierarchySpec(
            levels=(
                LevelSpec(kind="SA", sets=2, ways=2),
                LevelSpec(kind="SA", sets=2, ways=2, hit_latency=4),
                LevelSpec(kind="SA", sets=16, ways=8, hit_latency=20),
            )
        )
        bus = EventBus()
        memory = build(spec, bus)
        # Thrash the two tiny outer levels; the big L3 keeps everything.
        pages = [0x200 + i * 2 for i in range(4)]
        for vpn in pages:
            memory.translate(vpn, 1)
        spilled = pages[0]
        assert memory.tlb.levels[2].resident(spilled, 1)
        if memory.tlb.levels[1].resident(spilled, 1):  # pragma: no cover
            raise AssertionError("workload failed to thrash the L2")
        seen = subscribe_all(bus)

        memory.translate(spilled, 1)

        refills = [event for event in seen if isinstance(event, RefillEvent)]
        assert [(event.level, event.hit_level) for event in refills] == [
            (2, 3), (1, 3),
        ]
        assert WalkEvent not in [type(event) for event in seen]


class TestCachedWalks:
    def test_pwc_served_walk_is_flagged_cached(self):
        spec = HierarchySpec(
            levels=(LevelSpec(kind="SA", sets=1, ways=1),),
            pwc=PWCSpec(entries=16, hit_latency=2),
        )
        bus = EventBus()
        memory = build(spec, bus)
        memory.translate(0x10, 1)
        memory.translate(0x11, 1)  # evicts 0x10 from the only L1 way
        seen = subscribe_all(bus)

        memory.translate(0x10, 1)

        walks = [event for event in seen if isinstance(event, WalkEvent)]
        assert len(walks) == 1
        assert walks[0].cached
        assert walks[0].cycles == 2  # PWC latency, not the radix walk's


class TestMaintenanceTags:
    def test_flush_asid_is_one_hierarchy_wide_event(self):
        bus = EventBus()
        memory = build(two_level(), bus)
        memory.translate(0x10, 1)
        seen = subscribe_all(bus)
        memory.flush_asid(1)
        flushes = [event for event in seen if isinstance(event, FlushEvent)]
        assert len(flushes) == 1
        assert flushes[0].level is None  # facade-wide, not per level

    def test_l1_eviction_is_tagged_level_1(self):
        bus = EventBus()
        memory = build(two_level(), bus)
        seen = subscribe_all(bus)
        spill_l1(memory)
        evicts = [event for event in seen if isinstance(event, EvictEvent)]
        assert evicts
        assert all(event.level == 1 for event in evicts)
        assert all(event.page_level == 0 for event in evicts)  # 4K pages


class TestStatsReconciliation:
    def test_observer_counters_reconcile_with_per_level_stats(self):
        bus = EventBus()
        stats = StatsObserver().subscribe(bus)
        memory = build(two_level(), bus)
        rng = random.Random(2019)
        for _ in range(400):
            memory.translate(rng.randrange(0x40), rng.choice((1, 2)))

        tlb = memory.tlb
        l1, l2 = tlb.levels
        # Every translation is one L1 access; the bus saw each exactly once.
        assert stats.accesses == l1.stats.accesses == 400
        assert stats.hits == l1.stats.hits
        assert stats.misses == l1.stats.misses
        # Walks are the innermost level's misses; refills are the L1
        # misses the L2 absorbed.
        assert stats.walks == l2.stats.misses == tlb.stats.misses
        assert stats.refills == l1.stats.misses - l2.stats.misses
        assert stats.refills > 0  # the workload must exercise the path
        # Fills: one per level on a walk, L1-only on a refill.
        assert stats.fills == l2.stats.misses * 2 + stats.refills
        assert stats.evictions == (
            sum(level.stats.evictions for level in tlb.levels)
        )
        assert stats.summary()["refills"] == stats.refills
