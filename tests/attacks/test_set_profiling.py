"""Tests for the set-profiling (first-stage TLBleed) attack."""

import pytest

from repro.attacks import profile_secret_set
from repro.tlb import TLBKind


class TestStandardTLB:
    @pytest.mark.parametrize("secret", [0x100, 0x101, 0x102, 0x103])
    def test_every_set_index_recoverable(self, secret):
        result = profile_secret_set(TLBKind.SA, secret_vpn=secret)
        assert result.correct
        assert result.recovered_set == secret % 4

    def test_unanimous_votes_on_sa(self):
        result = profile_secret_set(TLBKind.SA, secret_vpn=0x101, rounds=10)
        assert result.vote_distribution() == {1: 10}


class TestSecureTLBs:
    def test_sp_votes_are_uncorrelated_with_the_secret(self):
        # The victim cannot evict the attacker's partition, so whatever
        # the profiler reads is self-interference, not the secret.
        results = [
            profile_secret_set(TLBKind.SP, secret_vpn=0x100 + offset)
            for offset in range(4)
        ]
        recovered = {result.recovered_set for result in results}
        # The same (secret-independent) answer for every secret position.
        assert len(recovered) == 1

    def test_rf_votes_spread_over_the_sets(self):
        result = profile_secret_set(
            TLBKind.RF, secret_vpn=0x102, rounds=40, seed=3
        )
        votes = result.vote_distribution()
        assert len(votes) >= 3  # randomized fills land everywhere
        # No set dominates the way SA's true set does.
        assert max(votes.values()) < 40 * 0.6

    def test_rf_accuracy_is_chance_over_seeds(self):
        correct = sum(
            profile_secret_set(
                TLBKind.RF, secret_vpn=0x102, rounds=5, seed=seed
            ).correct
            for seed in range(20)
        )
        assert correct <= 12  # chance is ~1/4 with 8 region pages over 4 sets


class TestValidation:
    def test_secret_outside_region_rejected(self):
        with pytest.raises(ValueError):
            profile_secret_set(TLBKind.SA, secret_vpn=0x50)
