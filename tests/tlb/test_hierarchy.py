"""Tests for the N-level TLB hierarchy and its declarative factory."""

import random

import pytest

from repro.tlb import (
    HierarchySpec,
    IdentityTranslator,
    LevelSpec,
    PWCSpec,
    PageWalkCache,
    RandomFillTLB,
    SetAssociativeTLB,
    TLBConfig,
    TLBHierarchy,
)

L1 = TLBConfig(entries=8, ways=2, hit_latency=1)
L2 = TLBConfig(entries=32, ways=4, hit_latency=8)


def make_hierarchy():
    return TLBHierarchy((SetAssociativeTLB(L1), SetAssociativeTLB(L2)))


class TestAccessPath:
    def test_three_latency_classes(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator(cycles=30)
        cold = tlb.translate(5, 1, translator)  # L1 miss, L2 miss, walk
        assert cold.miss and cold.cycles == 1 + 8 + 30
        warm = tlb.translate(5, 1, translator)  # L1 hit
        assert warm.hit and warm.cycles == 1
        # Evict from L1 only: pages 5, 9, 13 share L1 set 1 (4 sets).
        tlb.translate(9, 1, translator)
        tlb.translate(13, 1, translator)
        l2_hit = tlb.translate(5, 1, translator)  # L1 miss, L2 hit
        assert l2_hit.cycles == 1 + 8
        assert tlb.l2.stats.misses == 3  # only the cold walks

    def test_walk_counter_counts_l2_misses(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        tlb.translate(5, 1, translator)
        assert tlb.stats.misses == 1  # the hierarchy's walk counter

    def test_inclusive_fill_on_walk(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        assert tlb.l1.resident(5, 1)
        assert tlb.l2.resident(5, 1)

    def test_asid_isolation_preserved(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        result = tlb.translate(5, 2, translator)
        assert result.miss and result.cycles == 1 + 8 + 30


class TestMaintenance:
    def test_flush_all_clears_both_levels(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        tlb.flush_all()
        assert not tlb.resident(5, 1)
        assert tlb.l1.occupancy() == 0 and tlb.l2.occupancy() == 0

    def test_flush_asid(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        tlb.translate(6, 2, translator)
        tlb.flush_asid(1)
        assert not tlb.resident(5, 1)
        assert tlb.resident(6, 2)

    def test_invalidate_page_covers_both_levels(self):
        tlb = make_hierarchy()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        result = tlb.invalidate_page(5, 1)
        assert result.hit
        assert not tlb.resident(5, 1)
        absent = tlb.invalidate_page(5, 1)
        assert not absent.hit

    def test_distinct_levels_required(self):
        l1 = SetAssociativeTLB(L1)
        with pytest.raises(ValueError):
            TLBHierarchy((l1, l1))


class TestSecureLevels:
    def test_rf_l1_no_fill_still_caches_in_l2(self):
        # The leak mechanism of the hierarchy ablation: the RF L1 refuses
        # to cache the secret, but the L2 on its walk path does.
        l1 = RandomFillTLB(
            L1, victim_asid=1, sbase=0x100, ssize=3, rng=random.Random(1)
        )
        tlb = TLBHierarchy((l1, SetAssociativeTLB(L2)))
        translator = IdentityTranslator()
        result = tlb.translate(0x100, 1, translator)
        assert result.miss and not result.filled  # the L1 no-fill path ran
        assert tlb.l2.resident(0x100, 1)  # ... but the L2 cached the secret

    def test_secure_region_forwarded_to_rf_levels(self):
        l1 = RandomFillTLB(L1, victim_asid=1, rng=random.Random(1))
        l2 = RandomFillTLB(L2, victim_asid=1, rng=random.Random(2))
        tlb = TLBHierarchy((l1, l2))
        tlb.set_secure_region(0x100, 3, victim_asid=1)
        assert l1.is_secure(0x101, 1)
        assert l2.is_secure(0x101, 1)

    def test_rf_l2_does_not_cache_the_secret(self):
        l1 = RandomFillTLB(
            L1, victim_asid=1, sbase=0x100, ssize=3, rng=random.Random(1)
        )
        l2 = RandomFillTLB(
            L2, victim_asid=1, sbase=0x100, ssize=3, rng=random.Random(2)
        )
        tlb = TLBHierarchy((l1, l2))
        translator = IdentityTranslator()
        cached_secret = 0
        for _ in range(20):
            tlb.translate(0x100, 1, translator)
            if any(e.vpn == 0x100 for e in tlb.l2.entries()):
                cached_secret += 1
            tlb.flush_all()
        # Only when the RFE randomly draws the requested page itself.
        assert cached_secret < 20


class TestFactory:
    """``make_hierarchy``: the spec-driven constructor."""

    def test_builds_matching_kinds_and_geometry(self):
        from repro.tlb import make_hierarchy
        from repro.tlb import StaticPartitionTLB

        spec = HierarchySpec.two_level("SP", "RF", L1, L2)
        tlb = make_hierarchy(spec, victim_asid=1, rng=random.Random(3))
        assert isinstance(tlb.levels[0], StaticPartitionTLB)
        assert isinstance(tlb.levels[1], RandomFillTLB)
        assert tlb.levels[0].config.entries == L1.entries
        assert tlb.levels[1].config.entries == L2.entries
        assert tlb.name == "SP+RF"

    def test_victim_ways_override_reaches_the_live_level(self):
        from repro.tlb import make_hierarchy

        spec = HierarchySpec(
            levels=(
                LevelSpec.from_config("SP", L2, victim_ways=1),
                LevelSpec.from_config("SA", L2),
            )
        )
        tlb = make_hierarchy(spec, victim_asid=1)
        assert tlb.levels[0].victim_ways == 1

    def test_sp_defaults_to_even_split(self):
        from repro.tlb import make_hierarchy

        spec = HierarchySpec.two_level("SP", "SA", L2, L2)
        tlb = make_hierarchy(spec, victim_asid=1)
        assert tlb.levels[0].victim_ways == L2.ways // 2

    def test_sec_bit_disabled_level_skips_secure_region(self):
        from repro.tlb import make_hierarchy

        spec = HierarchySpec(
            levels=(
                LevelSpec.from_config("RF", L1),
                LevelSpec.from_config("RF", L2, sec_bit=False),
            )
        )
        tlb = make_hierarchy(spec, victim_asid=1, rng=random.Random(5))
        tlb.set_secure_region(0x100, 3, victim_asid=1)
        assert tlb.levels[0].is_secure(0x101, 1)
        assert not tlb.levels[1].is_secure(0x101, 1)


class TestNLevel:
    """The hierarchy is generic over depth, not hard-coded to two."""

    L3 = TLBConfig(entries=64, ways=8, hit_latency=20)

    def make_three_level(self):
        from repro.tlb import make_hierarchy

        spec = HierarchySpec(
            levels=(
                LevelSpec.from_config("SA", L1),
                LevelSpec.from_config("SA", L2),
                LevelSpec.from_config("SA", self.L3),
            )
        )
        return make_hierarchy(spec)

    def test_cold_miss_sums_all_hit_latencies(self):
        tlb = self.make_three_level()
        translator = IdentityTranslator(cycles=30)
        cold = tlb.translate(5, 1, translator)
        assert cold.miss and cold.cycles == 1 + 8 + 20 + 30

    def test_walk_fills_every_level(self):
        tlb = self.make_three_level()
        tlb.translate(5, 1, IdentityTranslator())
        for level in tlb.levels:
            assert level.resident(5, 1)

    def test_stats_is_the_innermost_level(self):
        tlb = self.make_three_level()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        tlb.translate(5, 1, translator)
        assert tlb.stats is tlb.levels[-1].stats
        assert tlb.stats.misses == 1  # the true walk counter

    def test_flush_asid_reaches_every_level(self):
        tlb = self.make_three_level()
        translator = IdentityTranslator()
        tlb.translate(5, 1, translator)
        tlb.translate(6, 2, translator)
        tlb.flush_asid(1)
        for level in tlb.levels:
            assert not level.resident(5, 1)
        assert tlb.resident(6, 2)

    def test_invalidate_page_reaches_every_level(self):
        tlb = self.make_three_level()
        tlb.translate(5, 1, IdentityTranslator())
        assert tlb.invalidate_page(5, 1).hit
        for level in tlb.levels:
            assert not level.resident(5, 1)


class TestPageWalkCache:
    def test_hit_rewrites_latency(self):
        pwc = PageWalkCache(PWCSpec(entries=4, hit_latency=2))
        from repro.tlb.base import WalkResult

        pwc.insert(5, 1, WalkResult(ppn=50, cycles=30, level=0))
        hit = pwc.lookup(5, 1)
        assert hit is not None
        assert (hit.ppn, hit.cycles) == (50, 2)
        assert pwc.lookup(6, 1) is None
        assert pwc.stats.hits == 1 and pwc.stats.misses == 1

    def test_lru_eviction(self):
        pwc = PageWalkCache(PWCSpec(entries=2))
        from repro.tlb.base import WalkResult

        for vpn in (1, 2):
            pwc.insert(vpn, 1, WalkResult(ppn=vpn, cycles=30, level=0))
        pwc.lookup(1, 1)  # 2 becomes the LRU entry
        pwc.insert(3, 1, WalkResult(ppn=3, cycles=30, level=0))
        assert pwc.lookup(2, 1) is None
        assert pwc.lookup(1, 1) is not None
        assert pwc.stats.evictions == 1

    def test_maintenance(self):
        pwc = PageWalkCache(PWCSpec(entries=4))
        from repro.tlb.base import WalkResult

        pwc.insert(5, 1, WalkResult(ppn=50, cycles=30, level=0))
        pwc.insert(6, 2, WalkResult(ppn=60, cycles=30, level=0))
        pwc.flush_asid(1)
        assert pwc.lookup(5, 1) is None
        assert pwc.lookup(6, 2) is not None
        pwc.invalidate_page(6, 2)
        assert pwc.occupancy() == 0

    def test_hierarchy_serves_repeat_walks_from_the_pwc(self):
        from repro.tlb import make_hierarchy

        # A 1-entry L1 with no L2: the second access to 5 evicts nothing
        # from the PWC, so its walk is served at PWC latency.
        spec = HierarchySpec(
            levels=(
                LevelSpec(kind="SA", sets=1, ways=1, hit_latency=1),
            ),
            pwc=PWCSpec(entries=16, hit_latency=2),
        )
        tlb = make_hierarchy(spec)
        translator = IdentityTranslator(cycles=30)
        assert tlb.translate(5, 1, translator).cycles == 1 + 30
        tlb.translate(6, 1, translator)  # evicts 5 from the only way
        again = tlb.translate(5, 1, translator)
        assert again.miss and again.cycles == 1 + 2
        assert tlb.pwc.stats.hits == 1

    def test_hierarchy_flushes_reach_the_pwc(self):
        from repro.tlb import make_hierarchy

        spec = HierarchySpec(
            levels=(LevelSpec.from_config("SA", L1),),
            pwc=PWCSpec(),
        )
        tlb = make_hierarchy(spec)
        tlb.translate(5, 1, IdentityTranslator())
        assert tlb.pwc.occupancy() == 1
        tlb.flush_asid(1)
        assert tlb.pwc.occupancy() == 0
