"""Unit tests for the shared retry-pacing helper.

Every executor backend (the multiprocessing pool and the work-stealing
lease protocol) computes its retry schedule through
:func:`repro.runner.policy.backoff_delay`; these tests pin the contract
both rely on: exponential growth, a hard cap, and jitter that is a pure
function of ``(seed, ident, attempt)`` so every host agrees exactly.
"""

import pytest

from repro.runner.policy import JITTER_FRACTION, backoff_delay


class TestBackoffDelay:
    def test_grows_exponentially_before_the_cap(self):
        base, cap = 0.1, 1000.0
        raws = [
            backoff_delay(attempt, base=base, cap=cap, ident="c", seed=1)
            for attempt in range(1, 6)
        ]
        for attempt, delay in enumerate(raws, start=1):
            raw = base * 2 ** (attempt - 1)
            # Jitter only ever adds, and never more than the fraction.
            assert raw <= delay < raw * (1.0 + JITTER_FRACTION)

    def test_cap_bounds_the_raw_delay(self):
        delay = backoff_delay(50, base=1.0, cap=2.0, ident="c", seed=1)
        assert 2.0 <= delay < 2.0 * (1.0 + JITTER_FRACTION)

    def test_deterministic_across_calls(self):
        args = dict(base=0.05, cap=5.0, ident="table2/SA/x", seed=2019)
        assert backoff_delay(3, **args) == backoff_delay(3, **args)

    def test_jitter_fans_distinct_cells_out(self):
        # Two cells failing together must not thunder back as one herd:
        # their jitters differ because their idents do.
        delays = {
            backoff_delay(1, base=1.0, cap=5.0, ident=f"cell-{i}", seed=7)
            for i in range(8)
        }
        assert len(delays) > 1

    def test_seed_changes_the_jitter_not_the_raw_delay(self):
        one = backoff_delay(2, base=1.0, cap=50.0, ident="c", seed=1)
        two = backoff_delay(2, base=1.0, cap=50.0, ident="c", seed=2)
        assert one != two
        for delay in (one, two):
            assert 2.0 <= delay < 2.0 * (1.0 + JITTER_FRACTION)

    def test_attempt_is_one_based(self):
        with pytest.raises(ValueError):
            backoff_delay(0)

    def test_negative_base_or_cap_rejected(self):
        with pytest.raises(ValueError):
            backoff_delay(1, base=-0.1)
        with pytest.raises(ValueError):
            backoff_delay(1, cap=-1.0)

    def test_zero_base_means_no_wait(self):
        assert backoff_delay(4, base=0.0, cap=5.0, ident="c", seed=3) == 0.0
