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
gives the victim 50% of the ways).
"""

from __future__ import annotations

from typing import List

from .base import AccessResult, BaseTLB, Translator
from .config import TLBConfig
from .entry import TLBEntry
from .replacement import LRUPolicy


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
        make ``_partition`` allocation-free and give the run kernel's
        victim queues a stable identity to key on.  Rebuilt (with the
        queues voided) whenever the boundary moves.
        """
        split = self.victim_ways
        self._victim_parts = [s[:split] for s in self._sets]
        self._other_parts = [s[split:] for s in self._sets]

    def _partition(self, vpn: int, asid: int, level: int = 0) -> List[TLBEntry]:
        """The ways of ``vpn``'s set that ``asid`` is allowed to fill."""
        index = self.config.set_index_for_level(vpn, level)
        if asid == self.victim_asid:
            return self._victim_parts[index]
        return self._other_parts[index]

    def _oracle_universe(self, asid: int):
        # Partitioning narrows the oracle's fill universe, nothing more:
        # from a cold start each side is plain per-set LRU over its own
        # ways, and hits are partition-blind only in a way that cannot
        # matter -- an ASID's entries all live on its own side.  The
        # victim thus has a universe of its own, and every other ASID
        # shares the attacker side's (the whole run when no victim is
        # designated).  Also correct for DynamicPartitionTLB --
        # repartition bumps the mutation epoch, which fails the oracle's
        # resume check before the stale sublists could matter.
        if asid == self.victim_asid:
            return self.config.sets, self._victim_parts
        return self.config.sets, self._other_parts

    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        walk = translator.walk(vpn, asid)
        victim = self._policy.select(self._partition(vpn, asid, walk.level))
        evicted = self._fill_entry(
            victim, vpn, walk.ppn, asid, level=walk.level
        )
        return AccessResult(
            hit=False,
            ppn=walk.ppn,
            cycles=self.config.hit_latency + walk.cycles,
            evicted=evicted,
            filled=True,
        )

    def _run_miss_fast(
        self, vpn: int, asid: int, translator: Translator, wcache=None
    ) -> int:
        # The partition constrains only *where* the fill may land; hits
        # (and so the run proofs) are partition-blind, so restricting the
        # victim scan to the requester's own ways is the entire
        # design-specific run-safety predicate.  DynamicPartitionTLB
        # inherits this: _partition reads victim_ways live, and its
        # repartition flushes go through _invalidate_entry (which breaks
        # active runs via the mutation epoch).
        if wcache is not None:
            packed_walk = wcache.get(vpn, -1)
            if packed_walk >= 0:
                translator.walks += 1
                level = packed_walk & 3
                cycles = (packed_walk >> 2) & 0x3FFFF
                ppn = packed_walk >> 20
            else:
                walk = translator.walk(vpn, asid)
                level = walk.level
                cycles = walk.cycles
                ppn = walk.ppn
                if cycles < 1 << 18:
                    wcache[vpn] = (ppn << 20) | (cycles << 2) | level
        else:
            walk = translator.walk(vpn, asid)
            level = walk.level
            cycles = walk.cycles
            ppn = walk.ppn
        if level:
            index = (vpn >> (9 * level)) % self._nsets
        else:
            index = vpn % self._nsets
        if asid == self.victim_asid:
            candidates = self._victim_parts[index]
            set_key = (index << 3) | (level << 1) | 1
        else:
            candidates = self._other_parts[index]
            set_key = (index << 3) | (level << 1)
        # Victim choice and fill: _victim_fast's queue pop and _fill_fast,
        # inlined (once per architectural miss; the frames matter).
        # Narrow partitions scan directly -- intervening hits stale a
        # tiny queue faster than its pops repay the rebuild sort.
        victim = None
        if type(self._policy) is LRUPolicy:
            if len(candidates) <= 8:
                oldest = None
                for entry in candidates:
                    if not entry.valid:
                        victim = entry
                        break
                    lu = entry.last_used
                    if oldest is None or lu < oldest:
                        oldest = lu
                        victim = entry
            else:
                queue = self._victim_queues.get(set_key)
                if queue is not None and queue[0] == self._inval_epoch:
                    k = queue[1]
                    n = len(queue)
                    while k < n:
                        entry = queue[k]
                        if entry.valid and entry.last_used == queue[k + 1]:
                            queue[1] = k + 2
                            victim = entry
                            break
                        k += 2
                if victim is None:
                    victim = self._rebuild_victim_queue(candidates, set_key)
        else:
            victim = self._policy.select(candidates)
        tlb_index = self._index
        action = 0
        if victim.valid:
            self.stats.evictions += 1
            self._mutations += 1
            old_level = victim.level
            tlb_index.pop(
                (victim.vpn >> (9 * old_level), victim.asid, old_level), None
            )
            if old_level:
                self._super_entries -= 1
            if victim.sec:
                self._sec_resident -= 1
            self._evicted_vpn = victim.vpn
            self._evicted_asid = victim.asid
            self._evicted_level = old_level
            action = 3
        if level:
            mask = (1 << (9 * level)) - 1
            victim.vpn = vpn & ~mask
            victim.ppn = ppn & ~mask
            self._super_entries += 1
            tlb_index[(vpn >> (9 * level), asid, level)] = victim
        else:
            victim.vpn = vpn
            victim.ppn = ppn
            tlb_index[(vpn, asid, 0)] = victim
        victim.asid = asid
        victim.valid = True
        victim.level = level
        victim.sec = False
        now = self._clock
        victim.last_used = now
        victim.filled_at = now
        self.stats.fills += 1
        return ((self._hit_latency + cycles) << 2) | action
