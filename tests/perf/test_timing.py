"""Tests for the trace-driven timing model and the scheduler."""


import pytest

from repro.mmu import SwitchPolicy
from repro.perf.timing import PerfResult, ScheduledProcess, simulate
from repro.tlb import SetAssociativeTLB, TLBConfig


class FixedTrace:
    """A workload replaying a fixed (gap, vpn) list."""

    def __init__(self, events, name="fixed"):
        self._events = list(events)
        self.name = name

    def events(self, rng):
        return iter(self._events)


def make_tlb(entries=8, ways=2):
    return SetAssociativeTLB(TLBConfig(entries=entries, ways=ways))


class TestSingleProcess:
    def test_counts_instructions_and_cycles(self):
        # Two events: (gap 4, page 1), (gap 0, page 1): 6 instructions.
        trace = FixedTrace([(4, 1), (0, 1)])
        results = simulate(make_tlb(), [ScheduledProcess(trace, asid=1)])
        total = results["total"]
        assert total.instructions == 6
        assert total.memory_accesses == 2
        assert total.misses == 1
        # gap(4) + miss(31) + gap(0) + hit(1).
        assert total.cycles == 4 + 31 + 0 + 1

    def test_ipc_and_mpki(self):
        trace = FixedTrace([(9, 1)] * 100)
        results = simulate(make_tlb(), [ScheduledProcess(trace, asid=1)])
        total = results["total"]
        assert total.mpki == pytest.approx(1000 * total.misses / 1000)
        assert 0 < total.ipc <= 1.0

    def test_instruction_budget_truncates(self):
        trace = FixedTrace([(0, vpn) for vpn in range(1000)])
        results = simulate(
            make_tlb(), [ScheduledProcess(trace, asid=1, instructions=100)]
        )
        assert results["total"].instructions == 100

    def test_all_hits_give_unit_ipc(self):
        trace = FixedTrace([(0, 1)] * 50)
        tlb = make_tlb()
        results = simulate(tlb, [ScheduledProcess(trace, asid=1)])
        total = results["total"]
        assert total.misses == 1  # only the cold miss
        assert total.ipc == pytest.approx(50 / (49 + 31))


class TestMultiprogramming:
    def test_per_process_results_reported(self):
        a = FixedTrace([(0, 1)] * 10, name="a")
        b = FixedTrace([(0, 100)] * 10, name="b")
        results = simulate(
            make_tlb(),
            [ScheduledProcess(a, asid=1), ScheduledProcess(b, asid=2)],
        )
        assert set(results) == {"a", "b", "total"}
        assert (
            results["total"].instructions
            == results["a"].instructions + results["b"].instructions
        )

    def test_quantum_interleaves_processes(self):
        # With a small quantum, process B's pages evict A's in a shared set.
        a = FixedTrace([(0, 0)] * 40, name="a")
        b = FixedTrace([(0, 4), (0, 8), (0, 12), (0, 16)] * 10, name="b")
        tlb = make_tlb(entries=4, ways=1)  # 4 sets, direct-mapped
        results = simulate(
            tlb,
            [ScheduledProcess(a, asid=1), ScheduledProcess(b, asid=2)],
            quantum=5,
        )
        # A's page is evicted by B's set-0 conflicts every switch.
        assert results["a"].misses > 1

    def test_flush_policy_increases_misses(self):
        a = FixedTrace([(0, 1)] * 60, name="a")
        b = FixedTrace([(0, 100)] * 60, name="b")

        def run(policy):
            tlb = make_tlb()
            return simulate(
                tlb,
                [ScheduledProcess(a, asid=1), ScheduledProcess(b, asid=2)],
                quantum=10,
                switch_policy=policy,
            )["total"].misses

        assert run(SwitchPolicy.FLUSH_ALL) > run(SwitchPolicy.KEEP)

    def test_empty_process_list_rejected(self):
        with pytest.raises(ValueError):
            simulate(make_tlb(), [])

    def test_bad_quantum_rejected(self):
        trace = FixedTrace([(0, 1)])
        with pytest.raises(ValueError):
            simulate(make_tlb(), [ScheduledProcess(trace, asid=1)], quantum=0)


class Untouchable(FixedTrace):
    """A workload whose trace must never be generated."""

    def events(self, rng):
        raise AssertionError("compiled a process simulate() should refuse")


class TestRejectedProcesses:
    """Processes whose results ``simulate()`` could not report refuse
    before anything compiles, on both paths."""

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_repeated_name_rejected(self, fastpath):
        # One workload twice: its first result would be overwritten.
        omnetpp = Untouchable([], name="omnetpp")
        with pytest.raises(ValueError, match="unique"):
            simulate(
                make_tlb(),
                [ScheduledProcess(omnetpp, 1, 20_000),
                 ScheduledProcess(omnetpp, 2, 20_000)],
                fastpath=fastpath,
            )

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_total_name_rejected(self, fastpath):
        # The aggregate would overwrite it.
        with pytest.raises(ValueError, match="total"):
            simulate(
                make_tlb(),
                [ScheduledProcess(Untouchable([], name="total"), 1)],
                fastpath=fastpath,
            )

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_negative_limit_rejected(self, fastpath):
        with pytest.raises(ValueError, match="negative"):
            simulate(
                make_tlb(),
                [ScheduledProcess(Untouchable([], name="a"), 1, -1)],
                fastpath=fastpath,
            )

    @pytest.mark.parametrize("fastpath", [True, False])
    def test_zero_limit_runs_nothing(self, fastpath):
        trace = FixedTrace([(0, 1)] * 10, name="a")
        results = simulate(
            make_tlb(), [ScheduledProcess(trace, 1, 0)], fastpath=fastpath
        )
        assert results["a"] == PerfResult(name="a")


class TestPerfResult:
    def test_absorb_accumulates(self):
        first = PerfResult("a", instructions=10, cycles=20, memory_accesses=3, misses=1)
        second = PerfResult("b", instructions=5, cycles=10, memory_accesses=2, misses=2)
        first.absorb(second)
        assert first.instructions == 15
        assert first.misses == 3

    def test_zero_division_guards(self):
        empty = PerfResult("x")
        assert empty.ipc == 0.0
        assert empty.mpki == 0.0
