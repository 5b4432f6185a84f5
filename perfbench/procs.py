"""Process-tree helpers: child processes and peak resident sets (Linux /proc)."""

from __future__ import annotations

import os
import threading
from typing import Dict, List


def children(pid: int) -> List[int]:
    found = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return found
    for task in tasks:
        try:
            with open(f"/proc/{pid}/task/{task}/children") as handle:
                found.extend(int(field) for field in handle.read().split())
        except OSError:
            pass
    return found


def vm_hwm_kb(pid: int) -> int:
    """A process's peak resident set (``VmHWM``), 0 once it is gone."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class DescendantPeaks(threading.Thread):
    """Polls the peak resident set of a process's descendants."""

    def __init__(self, pid: int) -> None:
        super().__init__(daemon=True)
        self.pid = pid
        self.peaks: Dict[int, int] = {}
        self._halt = threading.Event()

    def run(self) -> None:
        while not self._halt.wait(0.1):
            pending = children(self.pid)
            while pending:
                pid = pending.pop()
                peak = vm_hwm_kb(pid)
                if peak:
                    self.peaks[pid] = peak
                pending.extend(children(pid))

    def stop(self) -> int:
        """Stop polling; returns the summed peaks in KiB."""
        self._halt.set()
        self.join()
        return sum(self.peaks.values())
