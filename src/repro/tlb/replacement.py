"""Replacement policies.

A policy chooses which way of a set to evict when a fill finds no invalid
slot.  The paper's TLBs use per-set (or, in the SP TLB, per-partition) LRU;
FIFO and random policies are provided for ablation studies.
"""

from __future__ import annotations

import abc
import random
from typing import Optional, Sequence

from .config import ReplacementKind
from .entry import TLBEntry


class ReplacementPolicy(abc.ABC):
    """Strategy for picking an eviction victim among candidate ways."""

    @abc.abstractmethod
    def choose_victim(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        """Pick the entry to evict.  ``candidates`` is non-empty and contains
        only valid entries (invalid slots are always preferred upstream)."""

    def checkpoint(self) -> object:
        """The policy's own state, for :meth:`rewind` (none by default)."""
        return None

    def rewind(self, state: object) -> None:
        """Return to a :meth:`checkpoint`."""

    def select(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        """Prefer an invalid slot; otherwise defer to the policy."""
        if not candidates:
            raise ValueError("no candidate ways to replace")
        for entry in candidates:
            if not entry.valid:
                return entry
        return self.choose_victim(candidates)


class LRUPolicy(ReplacementPolicy):
    """Evict the least recently used entry (the paper's policy)."""

    def choose_victim(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        return min(candidates, key=lambda entry: entry.last_used)


class FIFOPolicy(ReplacementPolicy):
    """Evict the oldest fill regardless of use."""

    def choose_victim(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        return min(candidates, key=lambda entry: entry.filled_at)


class TreePLRUPolicy(ReplacementPolicy):
    """Tree pseudo-LRU, the policy real TLBs/caches actually implement.

    A binary tree of direction bits over the ways; every access flips the
    bits along its path away from the touched way, and the victim is found
    by following the bits.  Needs a power-of-two candidate count; this
    implementation reconstructs the tree state from the entries' use
    timestamps, which reproduces PLRU's victim choice without threading
    per-set tree state through the TLB designs.
    """

    def choose_victim(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        count = len(candidates)
        if count & (count - 1):
            raise ValueError("tree PLRU needs a power-of-two way count")
        ways = list(candidates)
        # Replay accesses in age order to settle the direction bits.
        bits = [0] * max(count - 1, 1)
        order = sorted(range(count), key=lambda i: ways[i].last_used)
        for way_index in order:
            node, low, high = 0, 0, count
            while high - low > 1:
                middle = (low + high) // 2
                if way_index < middle:
                    bits[node] = 1  # point away: toward the upper half
                    node, high = 2 * node + 1, middle
                else:
                    bits[node] = 0
                    node, low = 2 * node + 2, middle
        node, low, high = 0, 0, count
        while high - low > 1:
            middle = (low + high) // 2
            if bits[node]:
                node, low = 2 * node + 2, middle
            else:
                node, high = 2 * node + 1, middle
        return ways[low]


class RandomPolicy(ReplacementPolicy):
    """Evict a uniformly random way (seeded for reproducibility)."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0)

    def choose_victim(self, candidates: Sequence[TLBEntry]) -> TLBEntry:
        return self._rng.choice(list(candidates))

    def checkpoint(self) -> object:
        return self._rng.getstate()

    def rewind(self, state: object) -> None:
        self._rng.setstate(state)


def make_policy(
    kind: ReplacementKind, rng: Optional[random.Random] = None
) -> ReplacementPolicy:
    """Instantiate the policy selected by a :class:`TLBConfig`."""
    if kind is ReplacementKind.LRU:
        return LRUPolicy()
    if kind is ReplacementKind.FIFO:
        return FIFOPolicy()
    if kind is ReplacementKind.RANDOM:
        return RandomPolicy(rng)
    if kind is ReplacementKind.TREE_PLRU:
        return TreePLRUPolicy()
    raise ValueError(f"unknown replacement kind {kind}")  # pragma: no cover
