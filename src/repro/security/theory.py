"""Theoretical p1/p2/capacity per TLB design (Section 5.3).

For the SA and SP TLBs the probabilities are deterministic 0/1 values
dictated by the designs' state machines; for the RF TLB the paper reduces
the 14 remaining rows to six combined patterns and derives the (equal)
probabilities of Section 5.3.1, parameterized by the TLB geometry, the
secure-region size (3 or 31 pages) and the number of priming pages.

A design *defends* a row iff the resulting channel capacity is zero.
The headline counts follow: SA defends 10 rows, SP 14, RF all 24.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.model.capacity import channel_capacity
from repro.model.patterns import Strategy, Vulnerability
from repro.model.states import Actor, AddressClass
from repro.tlb import TLBKind

from .benchgen import region_size_for

#: Rows the standard ASID-tagged SA TLB already defends: the final probe
#: belongs to the other process's address space, so it can never hit.
_SA_DEFENDED = {
    Strategy.FLUSH_RELOAD,
    Strategy.EVICT_PROBE,
    Strategy.PRIME_TIME,
}
#: Rows partitioning additionally defends: cross-partition eviction.
_SP_EXTRA_DEFENDED = {Strategy.EVICT_TIME, Strategy.PRIME_PROBE}


@dataclass(frozen=True)
class TheoreticalModel:
    """Closed-form probabilities for the Section 5.3 configuration."""

    nsets: int = 4
    nways: int = 8
    #: User pages available to prime the whole TLB (Section 5.3).
    prime_num: int = 28

    def probabilities(
        self, kind: TLBKind, vulnerability: Vulnerability
    ) -> Tuple[float, float]:
        """The (p1, p2) of Table 3 for one design and one Table 2 row."""
        if kind is TLBKind.SA:
            return self._sa(vulnerability)
        if kind is TLBKind.SP:
            return self._sp(vulnerability)
        if kind is TLBKind.RF:
            p = self._rf_probability(vulnerability)
            return (p, p)
        raise ValueError(f"unknown kind {kind}")  # pragma: no cover

    def capacity(self, kind: TLBKind, vulnerability: Vulnerability) -> float:
        p1, p2 = self.probabilities(kind, vulnerability)
        return channel_capacity(p1, p2)

    def defends(self, kind: TLBKind, vulnerability: Vulnerability) -> bool:
        return self.capacity(kind, vulnerability) < 1e-9

    def defended_count(self, kind: TLBKind, vulnerabilities) -> int:
        return sum(
            1 for vulnerability in vulnerabilities
            if self.defends(kind, vulnerability)
        )

    # -- the standard SA TLB -------------------------------------------------------

    def _sa(self, vulnerability: Vulnerability) -> Tuple[float, float]:
        strategy = vulnerability.strategy
        if strategy in _SA_DEFENDED:
            # The cross-process probe always misses: p1 = p2 = 1.
            return (1.0, 1.0)
        if strategy is Strategy.INTERNAL_COLLISION:
            # Mapped (u == a): the reload hits; unmapped: it misses.
            return (0.0, 1.0)
        # Evict + Time, Prime + Probe, Bernstein: mapped evicts -> miss.
        return (1.0, 0.0)

    # -- the Static-Partition TLB ----------------------------------------------------

    def _sp(self, vulnerability: Vulnerability) -> Tuple[float, float]:
        strategy = vulnerability.strategy
        if strategy in _SA_DEFENDED:
            return (1.0, 1.0)
        if strategy in _SP_EXTRA_DEFENDED:
            # Cross-partition eviction is impossible: the probe always hits.
            return (0.0, 0.0)
        if strategy is Strategy.INTERNAL_COLLISION:
            return (0.0, 1.0)
        return (1.0, 0.0)  # Bernstein: the victim's own contention remains.

    # -- the Random-Fill TLB ------------------------------------------------------------

    def _rf_probability(self, vulnerability: Vulnerability) -> float:
        """Section 5.3.1's six combined patterns (p1 == p2 for all)."""
        strategy = vulnerability.strategy
        if strategy in _SA_DEFENDED:
            return 1.0  # Unchanged from SA: cross-process probes miss.

        sec_range = region_size_for(vulnerability)
        signature = tuple(
            step.address for step in vulnerability.pattern.steps
        )
        u, a, alias, d = (
            AddressClass.U,
            AddressClass.A,
            AddressClass.A_ALIAS,
            AddressClass.D,
        )

        if signature == (u, d, u):
            # V_u ~> d ~> V_u (slow): the timed reload hits only if the
            # random fill drew u and it survived the eviction sweep.
            return (1.0 / sec_range) * (
                1.0 / (min(self.nsets, sec_range) * self.nways)
            )
        if signature[1:] == (u, a) and signature[0] in (
            d,
            AddressClass.NONE,
        ):
            # d/inv ~> V_u ~> a (fast): the reload hits iff the random fill
            # happened to draw a.
            return 1.0 - 1.0 / sec_range
        if signature == (d, u, d):
            # d ~> V_u ~> d (slow): the probe misses iff the random fill
            # landed in the primed set.
            return 1.0 / sec_range
        if signature == (u, a, u):
            # V_u ~> a ~> V_u (slow): all nways secure fills must land in
            # u's set to evict the (randomly cached) u.
            return (self.nways / sec_range) ** self.nways
        if signature == (alias, u, a):
            return 1.0 - 1.0 / sec_range
        if signature == (a, u, a):
            if vulnerability.pattern.step1.actor is Actor.ATTACKER:
                # A_a ~> V_u ~> A_a: the random fill lands among the
                # nways same-set region pages.
                return self.nways / sec_range
            # V_a ~> V_u ~> V_a: contention against the primed TLB.
            return (sec_range - self.prime_num) / sec_range
        raise ValueError(
            f"no RF closed form for {vulnerability.pretty()}"
        )  # pragma: no cover - the 24 rows are exhaustive
