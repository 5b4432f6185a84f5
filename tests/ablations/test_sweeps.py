"""Tests for the design-space sweeps."""

import pytest

from repro.ablations import (
    format_partition_sweep,
    format_region_sweep,
    replacement_policy_point,
    rf_region_point,
    sp_partition_point,
    walk_latency_point,
)
from repro.tlb import ReplacementKind, TLBConfig


class TestPartitionSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return [
            sp_partition_point(
                victim_ways, TLBConfig(entries=32, ways=4),
                instructions=40_000, rsa_runs=5,
            )
            for victim_ways in (1, 2, 3)
        ]

    def test_covers_all_proper_splits(self, points):
        assert [p.victim_ways for p in points] == [1, 2, 3]
        assert all(p.victim_ways + p.attacker_ways == 4 for p in points)

    def test_attacker_mpki_grows_as_its_share_shrinks(self, points):
        attacker_mpki = [p.attacker_mpki for p in points]
        assert attacker_mpki == sorted(attacker_mpki)
        assert attacker_mpki[-1] > attacker_mpki[0]

    def test_tiny_victim_fits_in_one_way(self, points):
        # RSA's 3-page working set maps to 3 different sets, so even a
        # single victim way per set suffices.
        assert points[0].victim_mpki < 1.0

    def test_formatting(self, points):
        text = format_partition_sweep(points)
        assert "victim ways" in text and text.count("\n") >= 4


class TestRegionSweep:
    @pytest.fixture(scope="class")
    def points(self):
        return [rf_region_point(pages, trials=60) for pages in (1, 3, 31)]

    def test_single_page_region_provides_no_randomness(self, points):
        # With a one-page region the "random" fill is deterministic: the
        # channel stays wide open.  The region must span several sets.
        assert points[0].prime_probe_capacity > 0.8

    def test_multi_page_regions_close_the_channel(self, points):
        for point in points[1:]:
            assert point.prime_probe_capacity < 0.15, point

    def test_capacity_shrinks_with_region_size(self, points):
        assert (
            points[2].prime_probe_capacity <= points[1].prime_probe_capacity + 0.02
        )

    def test_victim_overhead_is_modest(self, points):
        for point in points:
            assert point.victim_mpki < 5.0

    def test_formatting(self, points):
        assert "region pages" in format_region_sweep(points)


class TestReplacementPolicySweep:
    @pytest.fixture(scope="class")
    def points(self):
        return [
            replacement_policy_point(policy)
            for policy in (
                ReplacementKind.LRU,
                ReplacementKind.TREE_PLRU,
                ReplacementKind.FIFO,
                ReplacementKind.RANDOM,
            )
        ]

    def test_deterministic_policies_allow_full_recovery(self, points):
        by_policy = {p.policy: p for p in points}
        assert by_policy[ReplacementKind.LRU].recovered_exactly
        assert by_policy[ReplacementKind.FIFO].recovered_exactly

    def test_random_replacement_degrades_but_does_not_stop(self, points):
        # Random replacement is noise, not a defence: accuracy drops below
        # exact recovery but stays far above guessing -- motivating real
        # secure designs rather than policy tweaks.
        random_point = {p.policy: p for p in points}[ReplacementKind.RANDOM]
        assert not random_point.recovered_exactly
        assert 0.55 < random_point.accuracy < 1.0


class TestWalkLatencySweep:
    @pytest.fixture(scope="class")
    def points(self):
        return [
            walk_latency_point(cost, instructions=40_000)
            for cost in (2, 10, 40)
        ]

    def test_mpki_is_invariant_to_walk_cost(self, points):
        mpkis = {round(point.mpki, 6) for point in points}
        assert len(mpkis) == 1

    def test_ipc_degrades_monotonically(self, points):
        ipcs = [point.ipc for point in points]
        assert ipcs == sorted(ipcs, reverse=True)
        assert ipcs[0] > 2 * ipcs[-1]
