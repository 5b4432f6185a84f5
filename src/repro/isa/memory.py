"""Flat physical memory, 64-bit word granular.

The simulators only ever move aligned 64-bit words (the benchmark dialect's
``ld``/``sd``); a sparse dictionary keyed by physical word index keeps even
page-spread benchmark arrays cheap.  Unwritten memory reads as zero, like
the zero-filled pages a real OS would hand out.
"""

from __future__ import annotations

from typing import Dict

WORD = 8


class MisalignedAccess(Exception):
    """Raised on a non-8-byte-aligned word access."""


class Memory:
    """Sparse word-addressed physical memory."""

    def __init__(self) -> None:
        self._words: Dict[int, int] = {}

    @staticmethod
    def _index(address: int) -> int:
        if address % WORD:
            raise MisalignedAccess(f"unaligned 64-bit access at {address:#x}")
        if address < 0:
            raise ValueError(f"negative physical address {address:#x}")
        return address // WORD

    def load(self, address: int) -> int:
        return self._words.get(self._index(address), 0)

    def store(self, address: int, value: int) -> None:
        self._words[self._index(address)] = value % (1 << 64)

    def __len__(self) -> int:
        return len(self._words)

    def checkpoint(self) -> dict:
        """A copy of every written word, for :meth:`rewind`."""
        return dict(self._words)

    def rewind(self, state: dict) -> None:
        """Return to a :meth:`checkpoint`, in place."""
        self._words.clear()
        self._words.update(state)
