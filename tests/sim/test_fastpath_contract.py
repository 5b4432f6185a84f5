"""A generated contract for the fast path: whole ``simulate()`` runs of
random multiprogrammed workloads equal the reference model, machine for
machine.

The hand-listed cases of ``test_fastpath_equivalence.py`` replay the
Figure 7 workloads; here Hypothesis draws the runs instead: two or three
small frozen-dataclass workloads over one shared pool of pages (so pages
repeat within a process and recur across processes, and processes may
share an ASID), a random quantum, random instruction limits and ASIDs,
against SA, SP with and without a victim, and plain RF of random
geometry.  The fast path runs twice in one process -- the second run
finds its traces and every oracle, merged-stream ones included, already
built and builds nothing -- and both runs must leave exactly the machine
the reference loop leaves: results, statistics, every way's entry with its
LRU and fill stamps, walker counters and every page's frame.

A fresh TLB under ``SwitchPolicy.KEEP`` retires whole runs on the oracle
tier, so the draws also reach the ledger tier's miss path: a TLB
prewarmed through the reference ``translate`` (the oracle tier never
engages on a TLB holding entries) and the flushing switch policies.  The
widest geometries hold more than 8 ways per fill set -- 16 ways in each
SP side of a 32-entry fully associative TLB -- where the miss path pops
a cached LRU victim order instead of scanning the set, and their page
pools are large enough to fill them.

The settings are the CI profile: a fixed seed (``derandomize``) and a
bounded number of examples, 40 per design.
"""

import random
from dataclasses import dataclass
from typing import Iterator, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.mmu import SwitchPolicy, make_walker
from repro.perf.harness import NO_VICTIM_ASID
from repro.perf.timing import ScheduledProcess, simulate
from repro.sim.kernel import kernel_count
from repro.tlb import TLBKind, make_tlb
from repro.tlb.config import TLBConfig

#: First page of the shared pool every generated workload draws from.
POOL_BASE = 0x400


@dataclass(frozen=True)
class PageTrace:
    """A finite workload: its ``(gap, vpn)`` events, whatever the seed."""

    name: str
    trace: Tuple[Tuple[int, int], ...]

    def events(self, rng: random.Random) -> Iterator[Tuple[int, int]]:
        return iter(self.trace)


#: (entries, ways): direct-mapped, set-associative and fully associative.
GEOMETRIES = [(1, 1), (4, 1), (4, 2), (8, 2), (8, 4), (16, 4), (8, 8), (32, 4)]

#: Geometries whose sets (and SP sides) hold more than 8 ways, drawn as
#: often as all the others together.
WIDE_GEOMETRIES = [(64, 16), (32, 32)]


@st.composite
def runs(draw, entries):
    """``(processes, quantum, switch policy, prewarm)`` of one
    multiprogrammed run on a TLB of ``entries`` entries."""
    pool = draw(st.integers(min_value=2, max_value=max(40, 2 * entries)))
    processes = []
    for index in range(draw(st.integers(min_value=2, max_value=3))):
        events = draw(st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=5),
                st.integers(min_value=0, max_value=pool - 1).map(
                    POOL_BASE.__add__
                ),
            ),
            min_size=1,
            max_size=60,
        ))
        processes.append(ScheduledProcess(
            workload=PageTrace(f"p{index}", tuple(events)),
            asid=draw(st.integers(min_value=1, max_value=3)),
            instructions=draw(
                st.none() | st.integers(min_value=0, max_value=250)
            ),
        ))
    quantum = draw(st.integers(min_value=1, max_value=40))
    if draw(st.booleans()):
        # A fresh TLB keeping its entries across switches: the oracle tier.
        return processes, quantum, SwitchPolicy.KEEP, 0
    # A prewarmed TLB, under any switch policy: the ledger tier.
    return (
        processes,
        quantum,
        draw(st.sampled_from(list(SwitchPolicy))),
        draw(st.sampled_from((entries, 2 * entries))),
    )


@st.composite
def designs(draw, kind):
    """``(kind, config, victim ASID)``: SA, SP with a victim among the
    ASIDs or with none, or RF with no secure region."""
    narrow = [
        geometry for geometry in GEOMETRIES
        if kind is not TLBKind.SP or geometry[1] >= 2
    ]
    entries, ways = draw(
        st.sampled_from(narrow) | st.sampled_from(WIDE_GEOMETRIES)
    )
    victim = NO_VICTIM_ASID
    if kind is TLBKind.SP:
        victim = draw(st.sampled_from([NO_VICTIM_ASID, 1, 2, 3]))
    return kind, TLBConfig(entries=entries, ways=ways), victim


def run_machine(design, run, fastpath):
    """One ``simulate()`` after ``prewarm`` reference translations (page
    ``POOL_BASE + i`` for each ``i`` below it, the processes' ASIDs in
    turn); returns everything the run leaves behind."""
    kind, config, victim = design
    processes, quantum, switch_policy, prewarm = run
    tlb = make_tlb(
        kind,
        config,
        victim_asid=victim,
        victim_ways=config.ways // 2 if kind is TLBKind.SP else None,
        rng=random.Random(7),
    )
    walker = make_walker()
    asids = sorted({process.asid for process in processes})
    for i in range(prewarm):
        tlb.translate(POOL_BASE + i, asids[i % len(asids)], walker)
    results = simulate(
        tlb, processes, walker=walker, quantum=quantum,
        switch_policy=switch_policy, fastpath=fastpath,
    )
    assert tlb.audit() == []
    return {
        "results": results,
        "stats": tlb.stats,
        "ways": [
            [entry.snapshot() for entry in tlb_set] for tlb_set in tlb._sets
        ],
        "walker": (walker.walks, walker.faults),
        "mappings": {
            asid: sorted(
                (vpn, walker.peek(vpn, asid))
                for vpn in walker.table_for(asid).mapped_pages()
            )
            for asid in asids
        },
    }


@pytest.mark.parametrize("kind", [TLBKind.SA, TLBKind.SP, TLBKind.RF])
@given(data=st.data())
@settings(max_examples=40, derandomize=True, deadline=None, database=None)
def test_fast_runs_leave_the_reference_machine(kind, data):
    design = data.draw(designs(kind))
    run = data.draw(runs(design[1].entries))
    reference = run_machine(design, run, fastpath=False)
    first = run_machine(design, run, fastpath=True)
    with kernel_count() as counts:
        second = run_machine(design, run, fastpath=True)
    assert first == reference
    assert second == reference
    # The second run found every trace and oracle built.
    assert counts.traces_compiled == counts.oracles_built == 0
