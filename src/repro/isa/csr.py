"""The control-and-status registers the benchmarks use.

The paper's modified Rocket Core exposes (Section 5.3 / Figure 6):

* ``process_id`` -- which process the subsequent memory operations belong
  to.  Real attacks span two processes; the micro benchmarks emulate both
  sides from one program by switching this register, exactly as Figure 6's
  ``csrw process_id, 0`` does ("Set current process for simulation").
* ``sbase`` / ``ssize`` -- the RF TLB's secure-region registers (in pages).
* ``tlb_miss_count`` -- the added TLB miss performance counter, read before
  and after the probe step to classify it fast or slow.
* ``cycle`` / ``instret`` -- the standard performance counters, enabled in
  user mode for the performance evaluation (Section 6.2).
"""

from __future__ import annotations

from typing import Callable, Dict

#: CSR name -> simulated address (addresses follow RISC-V conventions where
#: one exists; the custom registers take custom-CSR space numbers).
CSR_ADDRESSES = {
    "cycle": 0xC00,
    "instret": 0xC02,
    "tlb_miss_count": 0xC03,
    "process_id": 0x800,
    "sbase": 0x801,
    "ssize": 0x802,
}

READ_ONLY_CSRS = {"cycle", "instret", "tlb_miss_count"}


class CSRError(Exception):
    """Unknown CSR name or a write to a read-only counter."""


class CSRFile:
    """CSR storage with hooks for the counters and the TLB registers.

    Reads of the counters are delegated to callables supplied by the CPU;
    writes to ``process_id``/``sbase``/``ssize`` invoke callbacks so the CPU
    can retag subsequent accesses and program the RF TLB's registers.
    """

    def __init__(self) -> None:
        self._values: Dict[str, int] = {
            "process_id": 1,
            "sbase": 0,
            "ssize": 0,
        }
        self._readers: Dict[str, Callable[[], int]] = {}
        self._write_hooks: Dict[str, Callable[[int], None]] = {}

    def bind_counter(self, name: str, reader: Callable[[], int]) -> None:
        if name not in READ_ONLY_CSRS:
            raise CSRError(f"{name} is not a counter CSR")
        self._readers[name] = reader

    def on_write(self, name: str, hook: Callable[[int], None]) -> None:
        self._check_known(name)
        self._write_hooks[name] = hook

    def read(self, name: str) -> int:
        self._check_known(name)
        if name in READ_ONLY_CSRS:
            reader = self._readers.get(name)
            if reader is None:
                raise CSRError(f"counter {name} is not bound")
            return reader()
        return self._values[name]

    def write(self, name: str, value: int) -> None:
        self._check_known(name)
        if name in READ_ONLY_CSRS:
            raise CSRError(f"{name} is read-only")
        if value < 0:
            raise CSRError(f"CSR {name} cannot hold negative value {value}")
        self._values[name] = value
        hook = self._write_hooks.get(name)
        if hook is not None:
            hook(value)

    def checkpoint(self) -> dict:
        """The writable registers' values, for :meth:`rewind`."""
        return dict(self._values)

    def rewind(self, state: dict) -> None:
        """Return to a :meth:`checkpoint`, in place and without running
        the write hooks: their effects are rewound by their owners."""
        self._values.clear()
        self._values.update(state)

    @staticmethod
    def _check_known(name: str) -> None:
        if name not in CSR_ADDRESSES:
            raise CSRError(f"unknown CSR {name!r}")
