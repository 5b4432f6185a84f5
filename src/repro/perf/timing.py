"""Trace-driven timing model: IPC and MPKI per workload (Figure 7 metrics).

The model matches the CPU of :mod:`repro.isa`: one cycle per instruction,
plus the TLB latency (hit latency, or hit latency + page-table walk) for
every memory access.  Multiprogrammed scenarios interleave the processes
round-robin with an instruction quantum, applying the OS's context-switch
TLB policy, exactly like the paper's Linux runs where RSA decrypts
continuously while a SPEC benchmark runs in the background.

All translations and the switch-policy flushing go through one shared
:class:`repro.sim.MemorySystem`; pass a ``bus`` to observe the run.

The reference :class:`_Runner` loop is the specification: it dispatches
generator events one at a time, spending each quantum's budget as it
goes.  The fast path (``fastpath=True``, the :mod:`repro.sim.kernel`
machinery) notices that no quantum's extent depends on the TLB -- only on
the trace, the quantum and the instruction limit -- so it plans the whole
round-robin schedule once (:func:`_plan`), over traces compiled to flat
arrays and shared through the process's
:data:`~repro.sim.kernel.TRACE_STORE`, and then replays the planned
segments through the run kernel, whose oracle tier can retire the shared
TLB's merged stream in O(misses).  The two paths are counter-for-counter
equivalent -- ``tests/sim/test_fastpath_equivalence.py`` and ``repro
bench`` enforce it -- and ``fastpath=False`` selects the reference loop.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.mmu import PageTableWalker, SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.sim.kernel import (
    TRACE_STORE,
    OracleTier,
    RunState,
    count_run_state,
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
    """Run the processes to completion, returning per-process results
    keyed by workload name, plus a ``"total"`` aggregate (which also
    reports the context-switch count).

    Names must be unique and none may be ``"total"``, or a result would
    be lost; instruction limits may not be negative.

    ``fastpath`` selects the planned replay through
    :meth:`BaseTLB.translate_runs`, when the TLB supports it.  Results
    are identical either way (differentially verified), so it is purely
    a speed knob.
    """
    if not processes:
        raise ValueError("need at least one process")
    if quantum <= 0:
        raise ValueError("quantum must be positive")
    names = [process.workload.name for process in processes]
    if len(set(names)) != len(names):
        raise ValueError(
            f"process names must be unique (got {names}): results are keyed"
            " by workload name"
        )
    if "total" in names:
        raise ValueError('no process may be named "total": the aggregate is')
    for process in processes:
        if process.instructions is not None and process.instructions < 0:
            raise ValueError(
                f"{process.workload.name}: instruction limit"
                f" {process.instructions} is negative"
            )
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
        plan = _plan(runners, quantum)
        if (
            switch_policy is SwitchPolicy.KEEP
            or len({process.asid for process in processes}) == 1
        ):
            tier = OracleTier(
                [
                    (runner._trace, runner.process.asid, runner._run_state)
                    for runner in runners
                ],
                plan,
            )
        else:
            # A flushing switch between ASIDs empties the TLB under every
            # schedule: no runner engages the oracle tier.
            tier = OracleTier()
        for runner in runners:
            runner._run_state.o_tier = tier
        for number, start, stop in plan:
            runner = runners[number]
            memory.context_switch(runner.process.asid)
            runner.replay(start, stop)
    else:
        runners = [
            _Runner(process, memory, random.Random(stream_seed))
            for process, stream_seed in zip(processes, stream_seeds)
        ]
        if len(runners) == 1:
            # Single-process runs need no per-quantum rescheduling: latch
            # the ASID once (repeat same-ASID switches are no-ops anyway)
            # and spin the one runner to completion.
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
            count_run_state(runner._run_state)
    total.switches = memory.switches
    results["total"] = total
    return results


def _plan(
    runners: Sequence["_FastRunner"], quantum: int
) -> List[Tuple[int, int, int]]:
    """Every quantum of a fast-path run, as ``(runner number, start,
    stop)`` trace slices in the order the reference loop schedules them.

    No slice depends on the TLB: each is fixed by its trace's ``cum``
    column, the quantum and the runner's instruction limit.  So the
    whole round-robin interleaving is known once the traces compile.
    An empty slice is the quantum in which a runner finds itself done
    before its first event; it still costs a context switch, as in the
    reference loop, which ends a runner's turns exactly when it does.
    """
    plan: List[Tuple[int, int, int]] = []
    cursors = [0] * len(runners)
    live = list(range(len(runners)))
    while live:
        running = []
        for number in live:
            runner = runners[number]
            start = cursors[number]
            stop, done = _quantum(
                runner._trace, runner.process.instructions, start, quantum
            )
            plan.append((number, start, stop))
            cursors[number] = stop
            if not done:
                running.append(number)
        live = running
    return plan


def _quantum(
    trace, limit: Optional[int], cursor: int, quantum: int
) -> Tuple[int, bool]:
    """One quantum's slice ``[cursor, stop)`` of a compiled trace, and
    whether its runner is done after it; returns ``(stop, done)``.

    Same semantics as the reference runner -- an event costing more
    than the whole quantum executes anyway (provided budget remains);
    one merely exceeding the remaining budget pends (here: the slice
    simply ends before it).  One binary search over the trace's
    cumulative-cost column finds the boundary, so no budget arithmetic
    is paid per event.
    """
    cum = trace.cum
    compiled = len(cum)
    base = cum[cursor - 1] if cursor else 0
    remaining = None if limit is None else limit - base
    if (remaining is not None and remaining <= 0) or cursor >= compiled:
        return cursor, True
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
    cost = cum[stop - 1] - base
    # The reference loop marks itself done *within* a quantum when, with
    # budget left over, the limit pre-check fails or the trace ends;
    # mirror that so the schedule (and hence the context-switch count)
    # is identical.  (A trace cut short at its need ends on the event
    # that spends the limit.)
    done = quantum - cost > 0 and (
        (remaining is not None and remaining - cost <= 0) or stop >= compiled
    )
    return stop, done


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
    """One process's side of the planned replay: a compiled trace, the
    run kernel's :class:`RunState`, and the result its slices add up to.

    The trace comes complete from :data:`TRACE_STORE`: compiled through
    the first event whose cumulative cost reaches the process's
    instruction limit (or to exhaustion without a limit), which is as
    far as any quantum can read, and structured.  Each planned slice is
    translated in one batched :meth:`BaseTLB.translate_runs` call with a
    persistent cross-quantum :class:`RunState`.  With observers
    subscribed to the bus, a slice is translated event by event through
    the reference ``MemorySystem.translate`` instead, so the event
    stream stays complete; the run kernel's resume checks notice the
    positions it did not see and rebuild their proofs, so mixing is
    safe.
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
        self._run_state = RunState()
        self.result = PerfResult(name=process.workload.name)

    def replay(self, start: int, stop: int) -> None:
        """Translate the planned slice ``[start, stop)`` of the trace."""
        if start == stop:
            return
        memory = self._memory
        trace = self._trace
        asid = self.process.asid
        count = stop - start
        if memory.bus.active:
            translate = memory.translate
            cycles = 0
            misses = 0
            for vpn in trace.vpns[start:stop]:
                access = translate(vpn, asid)
                cycles += access.cycles
                if not access.hit:
                    misses += 1
        else:
            cycles, misses = memory.tlb.translate_runs(
                trace, start, stop, asid, memory.walker, self._run_state,
            )
            memory.accesses += count
            memory.cycles += cycles
        cum = trace.cum
        cost = cum[stop - 1] - (cum[start - 1] if start else 0)
        result = self.result
        result.instructions += cost
        result.cycles += (cost - count) + cycles
        result.memory_accesses += count
        result.misses += misses
