"""Tests for the Dynamic-Partition TLB and tree-PLRU replacement."""

import pytest

from repro.tlb import (
    DynamicPartitionTLB,
    IdentityTranslator,
    ReplacementKind,
    SetAssociativeTLB,
    TLBConfig,
    TreePLRUPolicy,
)

VICTIM = 1
ATTACKER = 2


@pytest.fixture
def translator():
    return IdentityTranslator()


def make_dp(ways=4, victim_ways=None):
    return DynamicPartitionTLB(
        TLBConfig(entries=4 * ways, ways=ways),
        victim_asid=VICTIM,
        victim_ways=victim_ways,
    )


class TestRepartitioning:
    def test_grow_and_shrink(self, translator):
        tlb = make_dp()
        assert tlb.victim_ways == 2
        tlb.repartition(3)
        assert tlb.victim_ways == 3
        tlb.repartition(1)
        assert tlb.victim_ways == 1
        assert tlb.repartitions == 2

    def test_bounds_enforced(self, translator):
        tlb = make_dp()
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                tlb.repartition(bad)

    def test_noop_repartition_flushes_nothing(self, translator):
        tlb = make_dp()
        tlb.translate(0, VICTIM, translator)
        assert tlb.repartition(2) == 0
        assert tlb.resident(0, VICTIM)

    def test_safe_repartition_invalidates_reassigned_ways(self, translator):
        tlb = make_dp()
        tlb.translate(0, VICTIM, translator)
        tlb.translate(4, VICTIM, translator)  # fills victim ways 0 and 1
        invalidated = tlb.repartition(1)  # way 1 moves to the attacker side
        assert invalidated == 1
        assert tlb.misplaced_entries() == 0

    def test_naive_repartition_leaves_attackable_entries(self, translator):
        # The security pitfall: a stale victim entry in a now-attacker way
        # can be evicted by the attacker, reviving Evict + Time for it.
        tlb = make_dp()
        tlb.translate(0, VICTIM, translator)
        tlb.translate(4, VICTIM, translator)
        tlb.repartition(1, flush_reassigned=False)
        assert tlb.misplaced_entries() == 1
        stale_vpn = 4 if tlb.resident(4, VICTIM) else 0
        # The attacker now owns ways 1..3 and can evict the stale entry.
        for vpn in (8, 12, 16):
            tlb.translate(vpn, ATTACKER, translator)
        assert not tlb.resident(stale_vpn, VICTIM)

    def test_safe_repartition_prevents_that_eviction_signal(self, translator):
        # After a flushing repartition the victim simply re-misses; there
        # is no stale entry whose eviction the attacker controls.
        tlb = make_dp()
        tlb.translate(0, VICTIM, translator)
        tlb.translate(4, VICTIM, translator)
        tlb.repartition(1)
        assert tlb.misplaced_entries() == 0

    def test_partition_isolation_still_holds_after_repartition(self, translator):
        tlb = make_dp()
        tlb.repartition(3)
        tlb.translate(0, VICTIM, translator)
        tlb.translate(4, VICTIM, translator)
        tlb.translate(8, VICTIM, translator)
        for vpn in range(12, 60, 4):
            tlb.translate(vpn, ATTACKER, translator)
        for vpn in (0, 4, 8):
            assert tlb.resident(vpn, VICTIM)


class TestTreePLRU:
    def _filled(self, stamps):
        from repro.tlb import TLBEntry

        entries = []
        for index, stamp in enumerate(stamps):
            entry = TLBEntry()
            entry.fill(vpn=index, ppn=index, asid=0, now=stamp)
            entries.append(entry)
        return entries

    def test_victim_is_not_the_most_recently_used(self):
        policy = TreePLRUPolicy()
        entries = self._filled([1, 2, 3, 4])
        victim = policy.select(entries)
        assert victim is not entries[3]  # MRU is always protected

    def test_true_lru_order_picks_the_lru(self):
        # When accesses settle the tree fully, PLRU agrees with LRU.
        policy = TreePLRUPolicy()
        entries = self._filled([5, 1, 7, 3])
        victim = policy.select(entries)
        assert victim is entries[1]

    def test_requires_power_of_two(self):
        policy = TreePLRUPolicy()
        with pytest.raises(ValueError):
            policy.select(self._filled([1, 2, 3]))

    def test_works_inside_a_tlb(self):
        translator = IdentityTranslator()
        tlb = SetAssociativeTLB(
            TLBConfig(entries=8, ways=4, replacement=ReplacementKind.TREE_PLRU)
        )
        for vpn in (0, 2, 4, 6):
            tlb.translate(vpn, 1, translator)
        tlb.translate(0, 1, translator)  # protect way holding vpn 0
        result = tlb.translate(8, 1, translator)
        assert result.evicted is not None
        assert result.evicted.vpn != 0

    def test_prime_probe_still_works_under_plru(self):
        # The threat model's point: replacement-policy details do not
        # rescue the standard TLB.
        from repro.attacks import tlbleed_attack
        from repro.tlb import TLBKind
        from repro.workloads.rsa import generate_key

        config = TLBConfig(
            entries=32, ways=8, replacement=ReplacementKind.TREE_PLRU
        )
        result = tlbleed_attack(
            TLBKind.SA, key=generate_key(bits=48, seed=11), config=config
        )
        assert result.recovered_exactly
