"""Unit tests for the token-bucket quota arithmetic (injected clock)."""

import pytest

from repro.serve.quotas import QuotaRegistry, TokenBucket


class TestTokenBucket:
    def test_burst_then_empty(self):
        bucket = TokenBucket(rate=1.0, burst=3.0, tokens=3.0, updated=0.0)
        assert all(bucket.try_acquire(0.0) for _ in range(3))
        assert not bucket.try_acquire(0.0)
        assert bucket.admitted == 3
        assert bucket.rejected == 1

    def test_refills_at_rate(self):
        bucket = TokenBucket(rate=2.0, burst=4.0, tokens=0.0, updated=0.0)
        assert not bucket.try_acquire(0.1)
        # 1 second at 2 tokens/s -> 2 tokens, minus the failed probe's refill.
        assert bucket.try_acquire(1.0)
        assert bucket.try_acquire(1.0)
        assert not bucket.try_acquire(1.0)

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, tokens=0.0, updated=0.0)
        bucket.try_acquire(1000.0)
        assert bucket.tokens == 1.0  # capped at 2, one spent

    def test_clock_going_backwards_is_harmless(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, tokens=1.0, updated=100.0)
        assert bucket.try_acquire(50.0)
        assert bucket.tokens == 0.0

    def test_retry_after(self):
        bucket = TokenBucket(rate=0.5, burst=2.0, tokens=0.0, updated=0.0)
        assert bucket.retry_after() == 2.0
        bucket.tokens = 2.0
        assert bucket.retry_after() == 0.0

    def test_retry_after_zero_rate_is_infinite(self):
        bucket = TokenBucket(rate=0.0, burst=1.0, tokens=0.0, updated=0.0)
        assert bucket.retry_after() == float("inf")


class TestQuotaRegistry:
    def test_disabled_admits_everything(self):
        registry = QuotaRegistry(rate=0.0)
        assert not registry.enabled
        for _ in range(100):
            admitted, retry_after = registry.admit("anyone", 0.0)
            assert admitted and retry_after == 0.0
        assert registry.buckets == {}

    def test_per_client_isolation(self):
        registry = QuotaRegistry(rate=0.001, burst=1.0)
        assert registry.admit("a", 0.0) == (True, 0.0)
        admitted, retry_after = registry.admit("a", 0.0)
        assert not admitted
        assert retry_after == 1000.0
        # Client b has a full bucket of its own.
        assert registry.admit("b", 0.0) == (True, 0.0)

    def test_usage_snapshot(self):
        registry = QuotaRegistry(rate=0.001, burst=1.0)
        registry.admit("a", 0.0)
        registry.admit("a", 0.0)
        usage = registry.usage()
        assert usage["a"]["admitted"] == 1
        assert usage["a"]["rejected"] == 1
        assert usage["a"]["tokens_left"] == 0.0

    @pytest.mark.parametrize("burst", [0.5, 0.0, -1.0])
    def test_a_burst_below_one_token_is_refused(self, burst):
        # Once, such a bucket refused every submission for ever: it held
        # at most `burst` tokens and a submission costs one.
        with pytest.raises(ValueError, match="at least 1"):
            QuotaRegistry(rate=5.0, burst=burst)

    def test_any_burst_is_accepted_while_quotas_are_off(self):
        assert not QuotaRegistry(rate=0.0, burst=0.5).enabled
