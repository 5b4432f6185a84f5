"""Trace-driven timing model: IPC and MPKI per workload (Figure 7 metrics).

The model matches the CPU of :mod:`repro.isa`: one cycle per instruction,
plus the TLB latency (hit latency, or hit latency + page-table walk) for
every memory access.  Multiprogrammed scenarios interleave the processes
round-robin with an instruction quantum, applying the OS's context-switch
TLB policy, exactly like the paper's Linux runs where RSA decrypts
continuously while a SPEC benchmark runs in the background.

All translations and the switch-policy flushing go through one shared
:class:`repro.sim.MemorySystem`; pass a ``bus`` to observe the run.

Two interchangeable drive loops exist: the reference :class:`_Runner`
(per-event generator dispatch, ``AccessResult`` objects) and the
:class:`_FastRunner` (the :mod:`repro.sim.kernel` fast path: traces
compiled to flat arrays and shared through the process's
:data:`~repro.sim.kernel.TRACE_STORE`, replayed by the run kernel).  They
are counter-for-counter equivalent --
``tests/sim/test_fastpath_equivalence.py`` and ``repro bench`` enforce
it -- and ``fastpath=False`` selects the reference loop.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Sequence, Tuple

from repro.mmu import PageTableWalker, SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.sim.kernel import (
    KERNEL_TELEMETRY,
    TRACE_STORE,
    RunState,
    supports_fastpath,
)
from repro.sim.system import MemorySystem
from repro.tlb.base import BaseTLB
from repro.workloads.trace import Workload

@dataclass
class PerfResult:
    """Per-process (or aggregate) performance counters."""

    name: str
    instructions: int = 0
    cycles: int = 0
    memory_accesses: int = 0
    misses: int = 0
    #: Context switches charged to this result.  Zero for per-process
    #: results; the ``"total"`` aggregate reports the run's switch count.
    switches: int = 0

    @property
    def ipc(self) -> float:
        """Instructions per cycle (Figure 7a-c)."""
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def mpki(self) -> float:
        """TLB misses per kilo-instruction (Figure 7d-f)."""
        if self.instructions == 0:
            return 0.0
        return 1000.0 * self.misses / self.instructions

    def absorb(self, other: "PerfResult") -> None:
        self.instructions += other.instructions
        self.cycles += other.cycles
        self.memory_accesses += other.memory_accesses
        self.misses += other.misses
        self.switches += other.switches


@dataclass(frozen=True)
class ScheduledProcess:
    """One process of a multiprogrammed run."""

    workload: Workload
    asid: int
    #: Instruction budget; None runs until the workload's trace ends.
    instructions: Optional[int] = None


def simulate(
    tlb: BaseTLB,
    processes: Sequence[ScheduledProcess],
    walker: Optional[PageTableWalker] = None,
    quantum: int = 10_000,
    switch_policy: SwitchPolicy = SwitchPolicy.KEEP,
    seed: int = 0,
    bus: Optional[EventBus] = None,
    fastpath: bool = True,
) -> Dict[str, PerfResult]:
    """Run the processes to completion, returning per-process results plus
    a ``"total"`` aggregate (which also reports the context-switch count).

    ``fastpath`` selects the compiled :class:`_FastRunner` loop, which
    drives quanta through :meth:`BaseTLB.translate_runs`, when the TLB
    supports it.  Results are identical either way (differentially
    verified), so it is purely a speed knob.
    """
    if not processes:
        raise ValueError("need at least one process")
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    memory = MemorySystem(
        tlb,
        walker or make_walker(),
        switch_policy=switch_policy,
        bus=bus,
    )

    stream_seeds = [seed * 1000003 + index for index in range(len(processes))]
    if fastpath and supports_fastpath(tlb):
        runners = [
            _FastRunner(process, memory, stream_seed)
            for process, stream_seed in zip(processes, stream_seeds)
        ]
    else:
        runners = [
            _Runner(process, memory, random.Random(stream_seed))
            for process, stream_seed in zip(processes, stream_seeds)
        ]
    if len(runners) == 1:
        # Single-process runs need no per-quantum rescheduling: latch the
        # ASID once (repeat same-ASID switches are no-ops anyway) and spin
        # the one runner to completion.
        runner = runners[0]
        memory.context_switch(runner.process.asid)
        while not runner.done:
            runner.run_quantum(quantum)
    else:
        while any(not runner.done for runner in runners):
            for runner in runners:
                if runner.done:
                    continue
                memory.context_switch(runner.process.asid)
                runner.run_quantum(quantum)

    results = {runner.process.workload.name: runner.result for runner in runners}
    total = PerfResult(name="total")
    for runner in runners:
        total.absorb(runner.result)
        if isinstance(runner, _FastRunner):
            KERNEL_TELEMETRY.record(runner._run_state)
    total.switches = memory.switches
    results["total"] = total
    return results


class _Runner:
    """Drives one process's trace against the shared memory system."""

    def __init__(
        self,
        process: ScheduledProcess,
        memory: MemorySystem,
        rng: random.Random,
    ) -> None:
        self.process = process
        self._memory = memory
        self._events: Iterator = process.workload.events(rng)
        self._pending: Optional[Tuple[int, int]] = None
        self.result = PerfResult(name=process.workload.name)
        self.done = False

    def run_quantum(self, quantum: int) -> None:
        budget = quantum
        limit = self.process.instructions
        result = self.result
        while budget > 0:
            if limit is not None and result.instructions >= limit:
                self.done = True
                return
            event = self._pending or next(self._events, None)
            self._pending = None
            if event is None:
                self.done = True
                return
            gap, vpn = event
            cost_instructions = gap + 1
            if cost_instructions > budget and cost_instructions > quantum:
                # An event larger than a whole quantum: execute it anyway
                # (it cannot be split), charging it to this slice.
                pass
            elif cost_instructions > budget:
                self._pending = event
                return
            access = self._memory.translate(vpn, self.process.asid)
            result.instructions += cost_instructions
            result.cycles += gap + access.cycles
            result.memory_accesses += 1
            if access.miss:
                result.misses += 1
            budget -= cost_instructions


class _FastRunner:
    """:class:`_Runner` over a compiled trace and the run kernel.

    The trace comes complete from :data:`TRACE_STORE`: compiled through
    the first event whose cumulative cost reaches the process's
    instruction limit (or to exhaustion without a limit), which is as
    far as any quantum can read, and structured.

    Same quantum semantics as the reference runner -- an event costing more
    than the whole quantum executes anyway (provided budget remains); one
    merely exceeding the remaining budget pends (here: the cursor simply
    does not advance).  The quantum's slice boundary is found with one
    binary search over the trace's cumulative-cost array, and the slice is
    translated in one batched :meth:`BaseTLB.translate_runs` call with a
    persistent cross-quantum :class:`RunState`, so neither budget
    arithmetic nor a Python call is paid per event.  With observers
    subscribed to the bus, quanta fall back to a per-event loop through
    the reference ``MemorySystem.translate``, so the event stream stays
    complete; the run kernel's resume checks notice the skipped positions
    and rebuild their proofs, so mixing is safe.
    """

    def __init__(
        self,
        process: ScheduledProcess,
        memory: MemorySystem,
        stream_seed: int,
    ) -> None:
        self.process = process
        self._memory = memory
        self._trace = TRACE_STORE.get(
            process.workload, stream_seed, process.instructions
        )
        self._cursor = 0
        self._run_state = RunState()
        self.result = PerfResult(name=process.workload.name)
        self.done = False

    def run_quantum(self, quantum: int) -> None:
        memory = self._memory
        if memory.bus.active:
            self._run_quantum_evented(quantum)
            return
        result = self.result
        limit = self.process.instructions
        remaining = None if limit is None else limit - result.instructions
        if remaining is not None and remaining <= 0:
            self.done = True
            return
        trace = self._trace
        cum = trace.cum
        compiled = len(cum)
        cursor = self._cursor
        if cursor >= compiled:
            self.done = True
            return
        base = cum[cursor - 1] if cursor else 0
        reach = base + quantum
        # Largest prefix of events fitting the budget...
        stop = bisect_right(cum, reach, cursor, compiled)
        # ...extended by one oversized event (cost > quantum) if budget
        # remains when it is reached, exactly like the reference loop.
        if (
            stop < compiled
            and (stop == cursor or cum[stop - 1] < reach)
            and trace.gaps[stop] + 1 > quantum
        ):
            stop += 1
        if remaining is not None:
            # The instruction limit is checked *before* each event: events
            # run while the pre-event instruction count is below it.
            stop = min(stop, bisect_left(cum, base + remaining, cursor, compiled) + 1)
        # stop >= cursor + 1 always: the first event either fits the full
        # budget, is an oversized execute-anyway, and passes the limit
        # pre-check (remaining > 0 was verified above).
        count = stop - cursor
        cycles, misses = memory.tlb.translate_runs(
            trace, cursor, stop, self.process.asid, memory.walker,
            self._run_state,
        )
        cost = cum[stop - 1] - base
        self._cursor = stop
        memory.accesses += count
        memory.cycles += cycles
        result.instructions += cost
        result.cycles += (cost - count) + cycles
        result.memory_accesses += count
        result.misses += misses
        # The reference loop marks itself done *within* a quantum when,
        # with budget left over, the limit pre-check fails or the trace
        # ends; mirror that here so multiprogrammed scheduling (and hence
        # the context-switch count) is identical.  (A trace cut short at
        # its need ends on the event that spends the limit.)
        if quantum - cost > 0:
            if (remaining is not None and remaining - cost <= 0) or (
                stop >= compiled
            ):
                self.done = True

    def _run_quantum_evented(self, quantum: int) -> None:
        budget = quantum
        limit = self.process.instructions
        result = self.result
        trace = self._trace
        gaps = trace.gaps
        vpns = trace.vpns
        compiled = len(gaps)
        cursor = self._cursor
        translate = self._memory.translate
        asid = self.process.asid
        instructions = result.instructions
        cycles = result.cycles
        accesses = result.memory_accesses
        misses = result.misses
        while budget > 0:
            if limit is not None and instructions >= limit:
                self.done = True
                break
            if cursor >= compiled:
                self.done = True
                break
            gap = gaps[cursor]
            cost = gap + 1
            if cost > budget and cost <= quantum:
                break  # Pend: the event runs in the next quantum.
            access = translate(vpns[cursor], asid)
            cursor += 1
            instructions += cost
            cycles += gap + access.cycles
            accesses += 1
            if not access.hit:
                misses += 1
            budget -= cost
        self._cursor = cursor
        result.instructions = instructions
        result.cycles = cycles
        result.memory_accesses = accesses
        result.misses = misses
