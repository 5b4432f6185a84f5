"""Tests for the interval/significance treatment of channel estimates."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.model.capacity import ChannelEstimate
from repro.model.estimation import (
    capacity_bounds,
    significantly_leaky,
    two_proportion_z,
    wilson_interval,
)

counts = st.integers(min_value=0, max_value=200)


class TestWilsonInterval:
    def test_contains_the_point_estimate(self):
        low, high = wilson_interval(30, 100)
        assert low < 0.3 < high

    def test_degenerate_counts_have_width(self):
        # Unlike Wald, Wilson stays informative at 0/n and n/n.
        low, high = wilson_interval(0, 500)
        assert low == 0.0 and 0 < high < 0.02
        low, high = wilson_interval(500, 500)
        assert 0.98 < low < 1.0 and high == 1.0

    def test_narrows_with_trials(self):
        narrow = wilson_interval(50, 500)
        wide = wilson_interval(5, 50)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    @given(counts, st.integers(min_value=1, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_interval_properties(self, successes, trials):
        successes = min(successes, trials)
        low, high = wilson_interval(successes, trials)
        assert 0.0 <= low <= successes / trials <= high <= 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            wilson_interval(1, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)
        with pytest.raises(ValueError):
            wilson_interval(1, 10, z=0)


class TestCapacityBounds:
    def test_perfect_channel(self):
        estimate = ChannelEstimate(500, 0, 500)
        lower, upper = capacity_bounds(estimate)
        assert lower > 0.9
        assert upper == pytest.approx(1.0, abs=1e-6)
        assert significantly_leaky(estimate)

    def test_balanced_channel_is_not_leaky(self):
        estimate = ChannelEstimate(167, 158, 500)  # RF-style counts
        lower, _upper = capacity_bounds(estimate)
        assert lower == 0.0
        assert not significantly_leaky(estimate)

    def test_bounds_bracket_the_point_estimate(self):
        for n_mm, n_nm in [(500, 0), (343, 333), (126, 165), (0, 500)]:
            estimate = ChannelEstimate(n_mm, n_nm, 500)
            lower, upper = capacity_bounds(estimate)
            assert lower <= estimate.capacity <= upper + 1e-9

    @given(counts, counts, st.integers(min_value=10, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_bounds_are_ordered(self, n_mm, n_nm, trials):
        n_mm, n_nm = min(n_mm, trials), min(n_nm, trials)
        estimate = ChannelEstimate(n_mm, n_nm, trials)
        lower, upper = capacity_bounds(estimate)
        assert 0.0 <= lower <= upper <= 1.0 + 1e-9


class TestTwoProportionZ:
    def test_identical_counts_give_no_evidence(self):
        z, p_value = two_proportion_z(ChannelEstimate(100, 100, 500))
        assert z == 0.0 and p_value == 1.0

    def test_degenerate_equal_counts(self):
        z, p_value = two_proportion_z(ChannelEstimate(0, 0, 500))
        assert p_value == 1.0

    def test_full_separation_is_overwhelming(self):
        z, p_value = two_proportion_z(ChannelEstimate(500, 0, 500))
        assert abs(z) > 10
        assert p_value < 1e-12

    def test_small_imbalance_is_insignificant(self):
        _z, p_value = two_proportion_z(ChannelEstimate(52, 48, 500))
        assert p_value > 0.05


class TestAgainstTheHarness:
    def test_table4_verdicts_agree_with_significance(self):
        # The significance criterion reproduces the paper's defended
        # pattern on a real (reduced-trial) Table 4 run.
        from repro.runner import run_experiment
        from repro.security import TLBKind

        table = run_experiment("table4", {"table4_trials": 60})
        for kind, expected in (
            (TLBKind.SA, 10),
            (TLBKind.SP, 14),
            (TLBKind.RF, 24),
        ):
            results = table[kind]
            defended = sum(
                1
                for result in results
                if not significantly_leaky(result.estimate)
            )
            assert defended == expected, kind
