"""Tests for the TLBleed-style Prime + Probe key recovery."""

import pytest

from repro.attacks import AttackResult, tlbleed_attack
from repro.tlb import TLBKind
from repro.workloads.rsa import generate_key


@pytest.fixture(scope="module")
def key():
    return generate_key(bits=64, seed=11)


class TestAgainstStandardTLB:
    def test_full_key_recovery(self, key):
        result = tlbleed_attack(TLBKind.SA, key=key)
        assert result.recovered_exactly
        assert result.accuracy == 1.0

    def test_recovered_bits_cover_whole_exponent(self, key):
        result = tlbleed_attack(TLBKind.SA, key=key)
        assert len(result.recovered_bits) == key.d.bit_length()

    def test_recovery_works_for_other_keys(self):
        for seed in (21, 22, 23):
            key = generate_key(bits=48, seed=seed)
            result = tlbleed_attack(TLBKind.SA, key=key)
            assert result.recovered_exactly, f"key seed {seed}"


class TestAgainstSecureTLBs:
    def test_sp_tlb_defeats_the_attack(self, key):
        # Partitioning: the victim cannot evict the attacker's entries, so
        # the probe carries no signal and recovery degrades to guessing.
        result = tlbleed_attack(TLBKind.SP, key=key)
        assert not result.recovered_exactly
        assert result.accuracy < 0.75

    def test_rf_tlb_prevents_exact_recovery(self, key):
        result = tlbleed_attack(TLBKind.RF, key=key)
        assert not result.recovered_exactly
        # The per-access channel is closed (Table 4); a residual
        # access-count bias keeps single-trace accuracy above chance but
        # far below recovery (documented in EXPERIMENTS.md).
        assert result.accuracy < 0.9

    def test_rf_randomization_varies_with_seed(self, key):
        first = tlbleed_attack(TLBKind.RF, key=key, seed=1)
        second = tlbleed_attack(TLBKind.RF, key=key, seed=2)
        assert first.recovered_bits != second.recovered_bits


class TestResultType:
    def test_accuracy_computation(self):
        result = AttackResult(
            true_bits="1010", recovered_bits="1000", kind=TLBKind.SA
        )
        assert result.accuracy == 0.75
        assert not result.recovered_exactly

    def test_empty_bits(self):
        result = AttackResult(true_bits="", recovered_bits="", kind=TLBKind.SA)
        assert result.accuracy == 0.0
