"""Tests for the Double-Page-Fault-style internal-collision scan."""

import pytest

from repro.attacks import probe_candidate, scan_secret_page
from repro.mmu import PageTableWalker
from repro.tlb import SetAssociativeTLB, TLBConfig, TLBKind


class TestProbePrimitive:
    def test_collision_detected(self):
        tlb = SetAssociativeTLB(TLBConfig(entries=32, ways=8))
        walker = PageTableWalker(auto_map=True)
        assert probe_candidate(tlb, walker, secret_vpn=0x101, candidate_vpn=0x101)

    def test_non_collision_not_detected(self):
        tlb = SetAssociativeTLB(TLBConfig(entries=32, ways=8))
        walker = PageTableWalker(auto_map=True)
        assert not probe_candidate(
            tlb, walker, secret_vpn=0x101, candidate_vpn=0x102
        )


class TestScan:
    @pytest.mark.parametrize("offset", [0, 1, 2])
    def test_sa_recovers_every_secret_position(self, offset):
        result = scan_secret_page(TLBKind.SA, secret_offset=offset)
        assert result.correct
        assert result.hits == [result.secret_vpn]

    def test_sp_does_not_stop_internal_collisions(self):
        # Section 5.3.1: internal hit-based rows defeat partitioning.
        result = scan_secret_page(TLBKind.SP, secret_offset=1)
        assert result.correct

    def test_rf_breaks_the_scan(self):
        # The secret access installs a *random* region page, so over seeds
        # the scan recovers the true page no better than chance.
        correct = sum(
            scan_secret_page(TLBKind.RF, secret_offset=1, seed=seed).correct
            for seed in range(30)
        )
        assert correct < 20  # chance is ~1/3 over a 3-page region

    def test_rf_answers_are_uniformly_spread(self):
        recovered = [
            scan_secret_page(TLBKind.RF, secret_offset=0, seed=seed).recovered
            for seed in range(45)
        ]
        observed = {page for page in recovered if page is not None}
        assert len(observed) >= 2  # not pinned to the secret

    def test_invalid_offset_rejected(self):
        with pytest.raises(ValueError):
            scan_secret_page(TLBKind.SA, secret_offset=5, region_pages=3)
