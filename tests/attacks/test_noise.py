"""Tests for the attack-under-noise study."""

import pytest

from repro.attacks import noisy_tlbleed_attack
from repro.tlb import TLBKind
from repro.workloads.rsa import generate_key

KEY = generate_key(bits=64, seed=11)


class TestNoiseRobustness:
    def test_no_noise_matches_the_clean_attack(self):
        result = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=0
        )
        assert result.recovered_exactly

    def test_noise_degrades_single_trace_accuracy(self):
        clean = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=0
        )
        light = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=1
        )
        heavy = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=4
        )
        assert clean.accuracy > light.accuracy > heavy.accuracy

    def test_voting_recovers_accuracy_under_light_noise(self):
        single = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=1, traces=1
        )
        voted = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=1, traces=9
        )
        assert voted.accuracy > single.accuracy
        assert voted.accuracy > 0.9

    def test_naive_voting_saturates_under_heavy_noise(self):
        # With a >=1-miss threshold detector, heavy noise pushes the
        # per-window false-positive rate toward 1/2 and voting stops
        # helping -- the reason the real TLBleed classifies traces with
        # machine learning instead of a fixed threshold.
        voted = noisy_tlbleed_attack(
            TLBKind.SA, key=KEY, noise_accesses_per_window=4, traces=9
        )
        assert not voted.recovered_exactly

    def test_rf_remains_safe_regardless_of_noise(self):
        result = noisy_tlbleed_attack(
            TLBKind.RF, key=KEY, noise_accesses_per_window=1, traces=5
        )
        assert not result.recovered_exactly

    def test_validation(self):
        with pytest.raises(ValueError):
            noisy_tlbleed_attack(TLBKind.SA, key=KEY, traces=2)
        with pytest.raises(ValueError):
            noisy_tlbleed_attack(
                TLBKind.SA, key=KEY, noise_accesses_per_window=-1
            )
