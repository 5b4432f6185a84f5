"""The compiled-trace store behind ``simulate()``'s fast path.

Every fast-path ``simulate()`` takes its traces from the process-wide
:data:`repro.sim.kernel.TRACE_STORE`; these tests pin down what may
enter it (frozen-dataclass workloads, complete traces only), its LRU
bound, and that threads sharing its entries get the serial results.
"""

import os
import sys
import threading
from dataclasses import dataclass

import pytest

import repro.sim.kernel as kernel
from repro.ablations.sweeps import walk_latency_point
from repro.perf.harness import PerfSettings, run_cell, scenario_by_label
from repro.perf.timing import ScheduledProcess, simulate
from repro.sim.kernel import (
    CHUNK,
    MERGED_ORACLE,
    TRACE_STORE,
    TraceStore,
    compile_trace,
    kernel_count,
    store_key,
)
from repro.tlb import TLBKind, make_tlb
from repro.tlb.config import TLBConfig
from repro.workloads.ecc import ECCWorkload, random_scalar
from repro.workloads.rsa import RSAWorkload, generate_key
from repro.workloads.spec import by_name


@dataclass(frozen=True)
class Steps:
    """``length`` events cycling over ``pages`` pages."""

    length: int
    pages: int = 7
    name: str = "steps"

    def events(self, rng):
        for index in range(self.length):
            yield (rng.randrange(4), 0x100 + index % self.pages)


@dataclass(frozen=True)
class Broken:
    """A workload whose generator raises at event ``fail_at``."""

    fail_at: int
    name: str = "broken"

    def events(self, rng):
        for index in range(self.fail_at):
            yield (1, 0x100 + index % 7)
        raise RuntimeError("generator broke")


@dataclass(frozen=True)
class Unhashable:
    pages: list
    name: str = "unhashable"

    def events(self, rng):
        return iter([(0, page) for page in self.pages])


@pytest.fixture(autouse=True)
def empty_store():
    TRACE_STORE.clear()
    yield
    TRACE_STORE.clear()


@pytest.fixture
def compiles(monkeypatch):
    """Records the ``(workload, stream_seed, need)`` of every compile."""
    calls = []
    original = kernel.compile_trace

    def counting(workload, stream_seed, need=None):
        calls.append((workload, stream_seed, need))
        return original(workload, stream_seed, need)

    monkeypatch.setattr(kernel, "compile_trace", counting)
    return calls


def sa_tlb():
    return make_tlb(TLBKind.SA, TLBConfig(entries=32, ways=4))


def run(processes, fastpath=True):
    return simulate(sa_tlb(), processes, fastpath=fastpath)


def columns(trace):
    return (
        list(trace.gaps), list(trace.vpns), list(trace.cum),
        list(trace.prev), list(trace.nxt),
        list(trace.sub_min_prev), list(trace.blk_min_prev),
        {vpn: list(chain) for vpn, chain in trace.occ.items()},
    )


class TestKeys:
    def test_frozen_dataclasses_key_by_value(self):
        key = generate_key(bits=64, seed=3)
        first = store_key(RSAWorkload(key=key, runs=2), 5)
        assert first == store_key(RSAWorkload(key=key, runs=2), 5)
        assert hash(first) == hash(store_key(RSAWorkload(key=key, runs=2), 5))
        assert first != store_key(RSAWorkload(key=key, runs=3), 5)
        assert first != store_key(RSAWorkload(key=key, runs=2), 6)
        assert store_key(by_name("povray"), 1) is not None

    def test_other_workloads_bypass_the_store(self):
        class Plain:
            name = "plain"

            def events(self, rng):
                return iter([(0, 1)])

        assert store_key(Plain(), 0) is None
        assert store_key(ECCWorkload(scalar=random_scalar(16)), 0) is None
        assert store_key(Unhashable(pages=[1, 2]), 0) is None

    def test_bypassed_workloads_are_never_stored(self, compiles):
        workload = ECCWorkload(scalar=random_scalar(16), runs=2)
        process = [ScheduledProcess(workload, asid=1)]
        assert run(process) == run(process, fastpath=False)
        run(process)
        assert len(compiles) == 2
        assert len(TRACE_STORE) == 0


class TestSharing:
    def test_equal_workloads_share_one_compile(self, compiles):
        key = generate_key(bits=64, seed=3)
        results = [
            run([ScheduledProcess(RSAWorkload(key=key, runs=2), asid=1)])
            for _ in range(3)
        ]
        assert len(compiles) == 1
        assert results[0] == results[1] == results[2]
        assert results[0] == run(
            [ScheduledProcess(RSAWorkload(key=key, runs=2), asid=1)],
            fastpath=False,
        )

    def test_entries_are_complete_and_structured(self):
        povray = by_name("povray")
        budgeted = compile_trace(povray, 1, need=50_000)
        assert not budgeted.exhausted and budgeted.cum[-1] >= 50_000
        finite = compile_trace(Steps(length=CHUNK + 5), 0)
        assert finite.exhausted and len(finite) == CHUNK + 5
        for trace in (budgeted, finite):
            assert len(trace.prev) == len(trace.nxt) == len(trace)

    def test_budgeted_entry_is_replaced_by_a_longer_one(self, compiles):
        def povray(instructions):
            return [ScheduledProcess(by_name("povray"), asid=1,
                                     instructions=instructions)]

        short = run(povray(5_000))
        short_trace = TRACE_STORE.get(by_name("povray"), 0, 5_000)
        long = run(povray(60_000))
        assert len(compiles) == 2
        long_trace = TRACE_STORE.get(by_name("povray"), 0, 5_000)
        assert long_trace is not short_trace
        assert len(long_trace) > len(short_trace)
        assert len(TRACE_STORE) == 1
        assert TRACE_STORE.events == len(long_trace)
        assert run(povray(5_000)) == short
        assert len(compiles) == 2
        assert short == run(povray(5_000), fastpath=False)
        assert long == run(povray(60_000), fastpath=False)


class TestPartialTraces:
    @pytest.mark.parametrize("fail_at", [10, CHUNK + 10])
    def test_a_failed_compile_never_enters_the_store(self, fail_at):
        good = ScheduledProcess(Steps(length=500), asid=1)
        broken = ScheduledProcess(Broken(fail_at=fail_at), asid=2)
        for _ in range(3):
            with pytest.raises(RuntimeError, match="generator broke"):
                run([good, broken])
            with pytest.raises(RuntimeError, match="generator broke"):
                run([broken])
        assert TRACE_STORE.keys() == [store_key(good.workload, 0)]


class TestBound:
    def test_evicts_least_recently_used_first(self, monkeypatch):
        monkeypatch.setattr(kernel, "STORE_EVENTS", 300)
        store = TraceStore()
        a, b, c, d = (Steps(length=100, pages=pages) for pages in (2, 3, 4, 5))
        for workload in (a, b, c):
            store.get(workload, 0)
        assert store.events == 300
        store.get(a, 0)  # A hit makes A the most recently used.
        store.get(d, 0)
        assert store.keys() == [store_key(w, 0) for w in (c, a, d)]
        assert store.events == 300
        store.get(Steps(length=250), 0)
        assert store.keys() == [store_key(Steps(length=250), 0)]
        assert store.events == 250
        # A trace larger than the bound is returned, never kept, and
        # evicts nothing.
        assert len(store.get(Steps(length=301), 0)) == 301
        assert store.keys() == [store_key(Steps(length=250), 0)]
        assert store.events == 250

    def test_evicted_key_recompiles_identically(self, monkeypatch):
        monkeypatch.setattr(kernel, "STORE_EVENTS", CHUNK * 40)
        store = TraceStore()
        povray = by_name("povray")
        first = store.get(povray, 1, 60_000)
        first.reuse_oracle(8, 4)
        store.get(Steps(length=CHUNK * 40), 0)
        assert store_key(povray, 1) not in store.keys()
        second = store.get(povray, 1, 60_000)
        assert second is not first
        assert columns(second) == columns(first)


class TestMergedOracles:
    """One merged oracle per distinct stream: a run of the same traces
    under the same plan takes it from the store, and any change to what
    the stream holds -- or to who owns its slots -- builds a new one."""

    KEY = generate_key(bits=64, seed=3)

    def processes(self, limit=4_000, asids=(1, 2), order=(0, 1)):
        workloads = (RSAWorkload(key=self.KEY, runs=2), by_name("omnetpp"))
        return [
            ScheduledProcess(workloads[index], asid=asid,
                             instructions=limit if index else None)
            for index, asid in zip(order, asids)
        ]

    def built(self, processes, quantum=1_000):
        """(oracles built, traces compiled) by one fast run, which must
        match the reference."""
        with kernel_count() as counts:
            fast = simulate(sa_tlb(), processes, quantum=quantum)
        assert fast == simulate(
            sa_tlb(), processes, quantum=quantum, fastpath=False
        )
        return counts.oracles_built, counts.traces_compiled

    def test_a_repeated_stream_takes_its_oracle_from_the_store(self):
        assert self.built(self.processes()) == (1, 2)
        assert self.built(self.processes()) == (0, 0)
        merged = [key for key in TRACE_STORE.keys() if key[0] == MERGED_ORACLE]
        assert len(merged) == 1 and len(TRACE_STORE) == 3
        # The bound counts the oracle by its miss entries.
        rsa, omnetpp = (process.workload for process in self.processes())
        traces = [TRACE_STORE.get(rsa, 0), TRACE_STORE.get(omnetpp, 1, 4_000)]
        oracle = TRACE_STORE.merged_oracle(merged[0], build=None)
        assert TRACE_STORE.events == sum(map(len, traces)) + len(oracle)

    @pytest.mark.parametrize("change", [
        {"quantum": 700},
        {"limit": 3_000},
        {"order": (1, 0)},
        {"asids": (2, 1)},
    ], ids=lambda change: next(iter(change)))
    def test_another_stream_builds_its_own_oracle(self, change):
        assert self.built(self.processes()) == (1, 2)
        quantum = change.pop("quantum", 1_000)
        assert self.built(self.processes(**change), quantum=quantum)[0] == 1
        # The first stream's oracle is still there.
        assert self.built(self.processes()) == (0, 0)

    def test_a_bypassed_lane_builds_per_call(self):
        processes = [
            ScheduledProcess(ECCWorkload(scalar=random_scalar(16), runs=2),
                             asid=1),
            ScheduledProcess(by_name("omnetpp"), asid=2, instructions=4_000),
        ]
        # The ECC trace compiles for each run, and so does their oracle.
        assert [self.built(processes) for _ in range(2)] == [(1, 2), (1, 1)]
        assert not [key for key in TRACE_STORE.keys() if key[0] == MERGED_ORACLE]


class TestThreads:
    #: Figure 7 cells sharing the RSA trace and, pairwise, a SPEC trace
    #: and a merged stream, plus walk-latency sweep points sharing an
    #: omnetpp trace: its first process starts on an empty TLB, so the
    #: points race to build the same reuse oracle over a miss-heavy
    #: trace.
    CELLS = [
        (kind, scenario)
        for kind in (TLBKind.SA, TLBKind.SP, TLBKind.RF)
        for scenario in ("RSA", "SecRSA", "RSA+povray", "SecRSA+omnetpp")
    ] + [("walk", 2), ("walk", 20)]
    SETTINGS = PerfSettings(spec_instructions=20_000)

    def measure(self, cell):
        kind, point = cell
        if kind == "walk":
            return walk_latency_point(point, instructions=20_000)
        return run_cell(
            kind, "4W 32", scenario_by_label(point), 10, self.SETTINGS
        ).results

    def test_concurrent_cells_match_serial_results(self):
        serial = {cell: self.measure(cell) for cell in self.CELLS}
        keys = set(TRACE_STORE.keys())
        events = TRACE_STORE.events
        # Four traces, and the merged oracles of SA and plain RF over
        # RSA+povray (one stream, one geometry), SP with no victim over
        # it, and SA over RSA+omnetpp.
        merged = [key for key in keys if key[0] == MERGED_ORACLE]
        assert (len(keys) - len(merged), len(merged)) == (4, 3)
        TRACE_STORE.clear()
        workers = 2 * (os.cpu_count() or 1) + 2
        # Every thread starts each cell together, so each trace's first
        # compile and each oracle's first build is raced by all of them.
        barrier = threading.Barrier(workers)
        outcomes = [None] * workers

        def work(slot):
            try:
                results = {}
                for cell in self.CELLS:
                    barrier.wait(timeout=60)
                    results[cell] = self.measure(cell)
                outcomes[slot] = results
            except Exception as error:  # Reported by the assertions.
                barrier.abort()
                outcomes[slot] = error

        threads = [
            threading.Thread(target=work, args=(slot,))
            for slot in range(workers)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        for thread in threads:
            assert not thread.is_alive()
        for outcome in outcomes:
            assert outcome == serial
        assert set(TRACE_STORE.keys()) == keys
        assert len(TRACE_STORE) == len(keys)
        assert TRACE_STORE.events == events
