"""The Static-Partition (SP) TLB (Section 4.1).

The SP TLB is a set-associative TLB whose ways are statically split between
a *victim* partition and an *attacker* partition (everything that is not the
designated victim process).  Hits are identical to the standard SA TLB --
page number and ASID must both match.  On a miss, the fill may only replace
a way inside the requesting process's own partition, each partition keeping
its own LRU order (Figure 1), so:

* the attacker can never evict the victim's translations (defeating TLB
  Prime + Probe and TLB Evict + Time, the external miss-based rows), and
* the victim can never evict the attacker's.

The victim's own internal interference (TLB Internal Collision, the TLB
version of Bernstein's Attack) is untouched -- partitioning cannot help
against contention among the victim's own pages, which is why the SP TLB
stops at 14 of the 24 rows (Section 5.3.1).

The partition split is configured at construction (the paper's default
gives the victim 50% of the ways).  The partition rule is written once, in
:meth:`StaticPartitionTLB._fill_ways`, which the base template's reference
miss, the run kernel's miss path and the oracle tier's fill universe all
read (see :mod:`repro.tlb.base`).
"""

from __future__ import annotations

from typing import List, Tuple

from .base import BaseTLB
from .config import TLBConfig
from .entry import TLBEntry


class StaticPartitionTLB(BaseTLB):
    """SA TLB with way-partitioning between victim and attacker processes."""

    def __init__(
        self,
        config: TLBConfig,
        victim_asid: int = 1,
        victim_ways: int | None = None,
        name: str = "sp-tlb",
    ) -> None:
        super().__init__(config, name)
        if victim_ways is None:
            victim_ways = max(config.ways // 2, 1)
        if not 0 < victim_ways < config.ways:
            raise ValueError(
                "the victim partition must hold between 1 and ways-1 ways "
                f"(got {victim_ways} of {config.ways}); a 0- or full-way "
                "partition would starve one side entirely"
            )
        self.victim_asid = victim_asid
        self.victim_ways = victim_ways
        self._build_partitions()

    def is_victim(self, asid: int) -> bool:
        return asid == self.victim_asid

    def checkpoint(self) -> tuple:
        # The partition views are rebuilt, never edited, when the
        # boundary moves, so keeping the lists keeps their contents.
        return (
            super().checkpoint(),
            self.victim_asid,
            self.victim_ways,
            self._victim_parts,
            self._other_parts,
        )

    def rewind(self, state: tuple) -> None:
        (base, self.victim_asid, self.victim_ways, self._victim_parts,
         self._other_parts) = state
        super().rewind(base)

    def _build_partitions(self) -> None:
        """Materialise each set's two partitions as persistent sublists.

        They alias the same :class:`TLBEntry` objects as ``_sets``, so
        fills through them are fills into the set; being persistent they
        make ``_fill_ways`` allocation-free and give the run kernel's
        victim queues a stable identity to key on.  Rebuilt (with the
        queues voided) whenever the boundary moves.
        """
        split = self.victim_ways
        self._victim_parts = [s[:split] for s in self._sets]
        self._other_parts = [s[split:] for s in self._sets]

    def _fill_ways(self, asid: int) -> Tuple[List[List[TLBEntry]], int]:
        """The requester's own partition of every set: the victim side
        (side 1) for the victim ASID, the attacker side (side 0) shared
        by every other ASID.

        The partition constrains only *where* a fill may land: hits are
        partition-blind, so the run kernel's proofs need nothing more.
        The oracle tier's universe narrows the same way and no further:
        from a cold start an ASID's entries all live on its own side and
        each side is plain per-set LRU over its own ways, so the victim
        has a universe of its own and every other ASID shares the
        attacker side's (the whole run when no victim is designated).
        DynamicPartitionTLB inherits this rule: ``repartition`` rebuilds
        the sublists, voids the cached victim orders and bumps the
        mutation epoch, which breaks active runs and fails the oracle's
        resume check before the old sublists could matter.
        """
        if asid == self.victim_asid:
            return self._victim_parts, 1
        return self._other_parts, 0
