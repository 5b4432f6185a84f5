"""Per-client token-bucket quotas for job submission.

Every ``POST /v1/jobs`` costs one token from the submitting client's
bucket (identified by the ``X-Repro-Client`` header).  Buckets hold at
most ``burst`` tokens and refill continuously at ``rate`` tokens per
second, so a client can burst a batch of submissions and then settles to
the sustained rate; an empty bucket means HTTP 429 with a
``Retry-After`` hint.

Time is injected by the caller (the app passes its event loop's clock),
which keeps the bucket arithmetic trivially unit-testable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.options import BURST


@dataclass
class TokenBucket:
    """One client's allowance: ``tokens`` at ``updated``, refilling."""

    rate: float
    burst: float
    tokens: float
    updated: float
    #: Submissions admitted / rejected, for the metrics endpoint.
    admitted: int = 0
    rejected: int = 0

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        self._refill(now)
        if self.tokens >= cost:
            self.tokens -= cost
            self.admitted += 1
            return True
        self.rejected += 1
        return False

    def retry_after(self, cost: float = 1.0) -> float:
        """Seconds until ``cost`` tokens will be available (post-refill)."""
        deficit = max(0.0, cost - self.tokens)
        return deficit / self.rate if self.rate > 0 else float("inf")


@dataclass
class QuotaRegistry:
    """Token buckets by client id, created on first sight.

    ``rate <= 0`` disables quotas entirely (every request is admitted),
    which is the right default for a trusted single-tenant deployment;
    the CLI turns them on with ``--quota-rate``/``--quota-burst``.  With
    quotas on, ``burst`` must be at least 1.
    """

    rate: float = 0.0
    burst: float = 10.0
    buckets: Dict[str, TokenBucket] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # A bucket capped below the one token a submission costs would
        # refuse every submission for ever.
        if self.enabled and not BURST.admits(self.burst):
            raise ValueError(
                f"burst must be {BURST.noun} while quotas are on,"
                f" got {self.burst!r}"
            )

    @property
    def enabled(self) -> bool:
        return self.rate > 0

    def admit(self, client: str, now: float) -> Tuple[bool, float]:
        """Charge one submission; returns ``(admitted, retry_after)``."""
        if not self.enabled:
            return True, 0.0
        bucket = self.buckets.get(client)
        if bucket is None:
            bucket = TokenBucket(
                rate=self.rate, burst=self.burst,
                tokens=self.burst, updated=now,
            )
            self.buckets[client] = bucket
        if bucket.try_acquire(now):
            return True, 0.0
        return False, bucket.retry_after()

    def usage(self) -> Dict[str, Dict[str, float]]:
        """Per-client usage for ``/v1/metrics``."""
        return {
            client: {
                "admitted": bucket.admitted,
                "rejected": bucket.rejected,
                "tokens_left": round(bucket.tokens, 3),
                "burst": bucket.burst,
                "rate": bucket.rate,
            }
            for client, bucket in sorted(self.buckets.items())
        }
