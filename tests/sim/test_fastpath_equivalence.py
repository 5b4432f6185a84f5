"""Differential verification of the repro.sim.kernel fast path.

The reference model (``translate`` returning ``AccessResult`` objects) is
the specification; the run-granular ``translate_runs`` must produce
identical hit/miss/cycle counters and identical TLB state for every
design, including the RF TLB's no-fill buffer path and superpage entries
(which exercise the level>0 index probes).  Shared traces are replayed
through both paths on twin instances; any divergence is a fast-path bug
by definition.

The run-kernel cases additionally pin down its *tier* behaviour: the
reuse-oracle tier must engage on clean replays, refuse prewarmed TLBs /
Sec regions / superpage tables outright, and hand off to the ledger tier
(staying bit-equal) when a flush, sfence, Sec-region update, foreign
process or remap lands between quanta; over whole multiprogrammed
``simulate()`` runs it must engage every runner or none.
"""

import random
from itertools import islice

import pytest

from repro.mmu import SwitchPolicy, make_walker
from repro.perf.configs import config_by_label
from repro.perf.harness import (
    NO_VICTIM_ASID,
    RSA_ASID,
    SPEC_ASID,
    PerfSettings,
    Scenario,
    run_cell,
)
from repro.perf.timing import ScheduledProcess, simulate
from repro.sim import AccessEvent, EventBus
from repro.sim.kernel import (
    INF_HORIZON,
    RUN_BLOCK,
    SUB_BLOCK,
    CompiledTrace,
    ReuseOracle,
    RunState,
    kernel_count,
    supports_fastpath,
)
from repro.tlb import TLBKind, make_hierarchy, make_tlb
from repro.tlb.config import TLBConfig
from repro.tlb.spec import HierarchySpec, LevelSpec, PWCSpec
from repro.workloads.rsa import RSAWorkload, generate_key
from repro.workloads.spec import by_name


def make_pair(kind, **kwargs):
    """Twin TLB instances (identical construction, independent state)."""
    config = kwargs.pop("config", TLBConfig(entries=32, ways=4))
    return (
        make_tlb(kind, config, rng=random.Random(7), **kwargs),
        make_tlb(kind, config, rng=random.Random(7), **kwargs),
    )


DESIGNS = [TLBKind.SA, TLBKind.SP, TLBKind.RF]

# The run-kernel differential cases replay this many povray accesses in
# quantum-sized chunks (perturbations land between chunks, exactly where
# the timing model would apply them between quanta).
RUN_COUNT = 20_000
RUN_STEP = 2_048


@pytest.fixture(scope="module")
def povray_trace():
    trace = CompiledTrace(by_name("povray").events(random.Random(11)))
    assert trace.ensure(RUN_COUNT) >= RUN_COUNT
    trace.ensure_structure(RUN_COUNT)
    return trace


def make_case(kind, entries=32, ways=4):
    """One TLB instance per replay leg (fresh rng, identical construction);
    an SP case gives the victim (ASID 1) half the ways."""
    return make_tlb(
        kind,
        TLBConfig(entries=entries, ways=ways),
        victim_asid=1,
        victim_ways=ways // 2 if kind is TLBKind.SP else None,
        rng=random.Random(7),
    )


#: A 2 MiB superpage (512 base pages, so the vpn is 512-aligned).
SUPERPAGE_VPN = 0x4000


@pytest.fixture(scope="module")
def superpage_trace():
    """6,000 accesses: 35% inside the superpage at :data:`SUPERPAGE_VPN`,
    the rest over 200 4 KiB pages at 0x8000."""
    rng = random.Random(3)
    events = []
    for _ in range(6_000):
        if rng.random() < 0.35:
            vpn = SUPERPAGE_VPN + rng.randrange(512)
        else:
            vpn = 0x8000 + rng.randrange(200)
        events.append((0, vpn))
    trace = CompiledTrace(events)
    trace.ensure_structure(trace.ensure(len(events)))
    return trace


def entry_state(tlb):
    """The full architecturally-visible entry state, LRU metadata included."""
    return sorted(
        (e.vpn, e.ppn, e.asid, e.sec, e.level, e.last_used)
        for e in tlb.entries()
    )


def two_way(build, trace, asid, count=RUN_COUNT, step=RUN_STEP,
            perturb=None, prewarm=None, extras=None):
    """Replay ``[0, count)`` through reference and run-kernel legs.

    Each leg constructs its own TLB via ``build`` and its own walker;
    ``perturb(tlb, walker, pos)`` fires after every chunk boundary on
    both legs identically.  Asserts statistics, cycles, misses, walker
    counters, entry state (and any ``extras(tlb)`` observables) are
    equal across the legs at every chunk end, then returns the run leg's
    :class:`RunState` so callers can assert on tier engagement.
    """
    legs = []
    for mode in ("reference", "run"):
        tlb = build()
        walker = make_walker()
        if prewarm is not None:
            prewarm(tlb, walker)
        legs.append((mode, tlb, walker, RunState()))
    totals = {"reference": [0, 0], "run": [0, 0]}
    vpns = trace.vpns
    for begin in range(0, count, step):
        end = min(begin + step, count)
        summaries = []
        for mode, tlb, walker, state in legs:
            total = totals[mode]
            if mode == "reference":
                translate = tlb.translate
                for index in range(begin, end):
                    result = translate(vpns[index], asid, walker)
                    total[0] += result.cycles
                    total[1] += 0 if result.hit else 1
            else:
                cycles, misses = tlb.translate_runs(
                    trace, begin, end, asid, walker, state
                )
                total[0] += cycles
                total[1] += misses
            if perturb is not None:
                perturb(tlb, walker, end)
            assert tlb.audit() == []
            summaries.append((
                tlb.stats, total[0], total[1], walker.walks, walker.faults,
                entry_state(tlb), extras(tlb) if extras is not None else None,
            ))
        assert summaries[0] == summaries[1], f"run kernel diverged by {end}"
    return legs[1][3]


def oracle_engaged(state):
    """Whether the run kernel's reuse-oracle tier ever bound this state."""
    return state.o_universe is not None


def oracle_active(state):
    """Whether this state's oracle tier is still engaged."""
    return state.o_tier is not None and state.o_tier.active


#: Figure 7's designs as the whole-machine cases configure them:
#: (case label, kind, victim ASID, RF secure region over RSA's buffers).
MACHINE_DESIGNS = [
    ("SA", TLBKind.SA, NO_VICTIM_ASID, False),
    ("SP-victim", TLBKind.SP, RSA_ASID, False),
    ("SP-no-victim", TLBKind.SP, NO_VICTIM_ASID, False),
    ("RF-region", TLBKind.RF, RSA_ASID, True),
    ("RF", TLBKind.RF, NO_VICTIM_ASID, False),
]
MACHINE_ORGANIZATIONS = ["1E", "FA 32", "2W 32", "4W 32", "4W 128"]
#: RSA alone, or beside one of these SPEC workloads.
MACHINE_SPECS = [None, "omnetpp", "cactusADM"]
MACHINE_KEY = generate_key(bits=64, seed=7)


def machine_cases():
    for label, kind, victim_asid, region in MACHINE_DESIGNS:
        for organization in MACHINE_ORGANIZATIONS:
            if kind is TLBKind.SP and organization == "1E":
                continue  # One way cannot be partitioned.
            for spec in MACHINE_SPECS:
                yield pytest.param(
                    kind, victim_asid, region, organization, spec,
                    id=f"{label}-{organization}-{spec or 'RSA'}",
                )


def run_machine(kind, victim_asid, region, organization, spec, fastpath,
                switch_policy=SwitchPolicy.KEEP, prepare=None, bus=None):
    """One small Figure 7-style ``simulate()``; returns everything the
    run leaves behind: results, TLB statistics, every way's entry, the
    walker's counters and each ASID's page-table mappings.
    ``prepare(tlb, walker)`` runs first."""
    config = config_by_label(organization)
    tlb = make_tlb(
        kind,
        config,
        victim_asid=victim_asid,
        victim_ways=max(config.ways // 2, 1) if kind is TLBKind.SP else None,
        rng=random.Random(7),
    )
    rsa = RSAWorkload(key=MACHINE_KEY, runs=2)
    if region:
        tlb.set_secure_region(*rsa.secure_region(), victim_asid=RSA_ASID)
    processes = [ScheduledProcess(workload=rsa, asid=RSA_ASID)]
    if spec is not None:
        processes.append(ScheduledProcess(
            workload=by_name(spec), asid=SPEC_ASID, instructions=20_000,
        ))
    walker = make_walker()
    if prepare is not None:
        prepare(tlb, walker)
    results = simulate(
        tlb, processes, walker=walker, quantum=1_000,
        switch_policy=switch_policy, bus=bus, fastpath=fastpath,
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
            process.asid: sorted(
                (vpn, walker.peek(vpn, process.asid))
                for vpn in walker.table_for(process.asid).mapped_pages()
            )
            for process in processes
        },
    }


class TestSupportsFastpath:
    def test_all_designs_support_it(self):
        for kind in DESIGNS:
            tlb, _ = make_pair(kind)
            assert supports_fastpath(tlb)

    def test_two_level_supports_it(self):
        tlb = make_hierarchy(HierarchySpec.two_level(
            "SA", "SA",
            TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
        ))
        assert supports_fastpath(tlb)

    def test_duck_typing(self):
        assert not supports_fastpath(object())


class TestRunEquivalence:
    """Two-way reference / run-kernel differentials."""

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_two_way_counters_match(self, kind, povray_trace):
        state = two_way(lambda: make_case(kind), povray_trace, asid=2)
        # Every access is either proven inside a run or probed; the run
        # tier actually did the heavy lifting.
        assert state.run_hits + state.probed == RUN_COUNT
        assert state.run_hits > state.probed

    def test_refuses_an_incomplete_trace(self):
        """Structure short of the slice, or events compiled after the
        structure, raise instead of replaying past the proofs."""
        trace = CompiledTrace(by_name("povray").events(random.Random(11)))
        trace.ensure(RUN_STEP)
        tlb = make_case(TLBKind.SA)
        with pytest.raises(ValueError, match="complete trace"):
            tlb.translate_runs(
                trace, 0, RUN_STEP, 2, make_walker(), RunState()
            )
        structured = trace.ensure_structure(RUN_STEP)
        trace.ensure(structured + 1)
        with pytest.raises(ValueError, match="complete trace"):
            tlb.translate_runs(
                trace, 0, RUN_STEP, 2, make_walker(), RunState()
            )

    def test_sp_victim_partition(self, povray_trace):
        state = two_way(
            lambda: make_case(TLBKind.SP), povray_trace, asid=1
        )
        assert state.run_hits > 0

    def test_rf_secure_region_no_fill_runs(self, povray_trace):
        """A programmed Sec region forces the trace-independent random
        paths; the run kernel must stay bit-equal with no_fills > 0,
        down to the no-fill buffer at every chunk end."""
        def build():
            tlb = make_case(TLBKind.RF)
            tlb.set_secure_region(
                int(povray_trace.vpns[0]), 0x40, victim_asid=1
            )
            return tlb

        for step in (7, 300, RUN_STEP):
            two_way(
                build, povray_trace, asid=1, step=step,
                extras=lambda tlb: (tlb.stats.no_fills, tlb.buffer),
            )
        reference = build()
        walker = make_walker()
        for index in range(RUN_COUNT):
            reference.translate(int(povray_trace.vpns[index]), 1, walker)
        assert reference.stats.no_fills > 0

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_superpage_eviction_from_position_zero(
        self, kind, superpage_trace
    ):
        """Evicting a superpage entry un-residents every page it covers.
        A replay from position 0 must stop proving hits for those pages
        (SP replays in its one-way victim partition)."""
        def prewarm(tlb, walker):
            walker.table_for(1).map_page(
                SUPERPAGE_VPN, SUPERPAGE_VPN, level=1
            )

        count = len(superpage_trace)
        state = two_way(
            lambda: make_case(kind, entries=8, ways=2), superpage_trace,
            asid=1, count=count, step=count, prewarm=prewarm,
        )
        assert state.run_hits > 0

    def test_mid_run_sfence_breaks_active_run(self, povray_trace):
        """An sfence.vma between quanta invalidates the cross-quantum
        proof; the kernel must revalidate and stay equal."""
        target = int(povray_trace.vpns[0])

        def sfence(tlb, walker, pos):
            if pos in (RUN_STEP * 2, RUN_STEP * 6):
                tlb.invalidate_page(target, 2)

        two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=sfence,
        )

    def test_mid_run_secure_region_breaks_active_run(self, povray_trace):
        """Programming the Sec region mid-trace must disengage the oracle
        (random fills are trace-independent) yet remain bit-equal."""
        target = int(povray_trace.vpns[0])

        def program(tlb, walker, pos):
            if pos == RUN_STEP * 2:
                tlb.set_secure_region(target, 0x40, victim_asid=2)

        state = two_way(
            lambda: make_case(TLBKind.RF), povray_trace, asid=2,
            perturb=program,
        )
        assert oracle_engaged(state)  # It did engage before the update.
        assert not oracle_active(state)  # ...and is no longer in oracle mode.

    def test_mid_run_flush_all(self, povray_trace):
        def flush(tlb, walker, pos):
            if pos == RUN_STEP * 4:
                tlb.flush_all()

        two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=flush,
        )

    def test_foreign_process_between_quanta(self, povray_trace):
        """Another process's evictions between quanta move the shared
        counters; the resume check must catch it."""
        def foreign(tlb, walker, pos):
            if pos == RUN_STEP * 2:
                for vpn in range(900_000, 900_040):
                    tlb.translate(vpn, 9, walker)

        two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=foreign,
        )

    def test_remap_between_quanta(self, povray_trace):
        """A page remap (mapping-version bump + sfence) between quanta:
        the run kernel's walk cache (keyed by the walker's memo token)
        and the proof state must both revalidate."""
        target = int(povray_trace.vpns[0])

        def remap(tlb, walker, pos):
            if pos == RUN_STEP * 5:
                walker.table_for(2).map_page(target, 0xDEAD)
                tlb.invalidate_page(target, 2)

        two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=remap,
        )


class TestRunKernelOracleTier:
    """Engage / refuse / hand-off behaviour of the reuse-oracle tier."""

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_engages_on_clean_replay(self, kind, povray_trace):
        state = two_way(lambda: make_case(kind), povray_trace, asid=2)
        assert oracle_engaged(state)
        assert oracle_active(state)  # Still engaged at trace end.

    def test_refuses_prewarmed_tlb(self, povray_trace):
        """The oracle models a cold LRU array; a non-empty TLB at first
        engagement must be refused (the ledger tier takes over)."""
        def prewarm(tlb, walker):
            for vpn in range(700_000, 700_008):
                tlb.translate(vpn, 2, walker)

        state = two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            prewarm=prewarm,
        )
        assert not oracle_engaged(state)

    def test_refuses_programmed_secure_region(self, povray_trace):
        def build():
            tlb = make_case(TLBKind.RF)
            tlb.set_secure_region(
                int(povray_trace.vpns[0]), 16, victim_asid=2
            )
            return tlb

        state = two_way(build, povray_trace, asid=2)
        assert not oracle_engaged(state)

    def test_refuses_superpage_table(self, povray_trace):
        """A superpage mapping makes fills non-uniform; refused."""
        def prewarm(tlb, walker):
            walker.table_for(2).map_page(1 << 18, 1 << 18, level=1)

        state = two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            prewarm=prewarm,
        )
        assert not oracle_engaged(state)

    def test_hands_off_to_ledger_after_flush(self, povray_trace):
        def flush(tlb, walker, pos):
            if pos == RUN_STEP * 4:
                tlb.flush_all()

        state = two_way(
            lambda: make_case(TLBKind.SA), povray_trace, asid=2,
            perturb=flush,
        )
        assert oracle_engaged(state)  # Engaged up to the flush...
        assert not oracle_active(state)  # ...then permanently handed off.
        assert state.run_hits > 0  # And the ledger tier still ran runs.


@pytest.fixture
def run_states(monkeypatch):
    """Every :class:`RunState` the timing model makes, in runner order."""
    states = []

    class Recorded(RunState):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            states.append(self)

    monkeypatch.setattr("repro.perf.timing.RunState", Recorded)
    return states


def handoff_bus(count):
    """A bus whose one access subscriber leaves after ``count``
    accesses, handing the rest of the run to the kernel."""
    bus = EventBus()
    seen = []

    def watch(event):
        seen.append(event)
        if len(seen) == count:
            bus.unsubscribe(AccessEvent, watch)

    bus.on_access(watch)
    return bus


def superpage_in(asid):
    def prepare(tlb, walker):
        walker.table_for(asid).map_page(1 << 18, 1 << 18, level=1)
    return prepare


#: Runs the oracle tier must refuse outright: (kind, RF secure region,
#: fresh simulate() options per run).
REFUSALS = {
    "rf-region": (TLBKind.RF, True, dict),
    "flush-all": (
        TLBKind.SA, False,
        lambda: {"switch_policy": SwitchPolicy.FLUSH_ALL},
    ),
    "prewarmed": (
        TLBKind.SA, False,
        lambda: {"prepare": lambda tlb, walker: tlb.translate(
            700_000, 3, walker
        )},
    ),
    "superpage-rsa": (
        TLBKind.SA, False, lambda: {"prepare": superpage_in(RSA_ASID)}
    ),
    "superpage-spec": (
        TLBKind.SA, False, lambda: {"prepare": superpage_in(SPEC_ASID)}
    ),
    "bus-from-start": (
        TLBKind.SA, False, lambda: {"bus": handoff_bus(500)}
    ),
}


class TestMultiprogrammedOracleTier:
    """Engage / refuse behaviour of the oracle tier over whole
    RSA+omnetpp ``simulate()`` runs: every runner engages or none does,
    and either way the run leaves the reference's machine behind."""

    @staticmethod
    def both_paths(run_states, kind, victim_asid, region, options=dict):
        fast = run_machine(
            kind, victim_asid, region, "4W 32", "omnetpp", True, **options()
        )
        states = list(run_states)
        assert len(states) == 2
        assert fast == run_machine(
            kind, victim_asid, region, "4W 32", "omnetpp", False, **options()
        )
        return states

    @pytest.mark.parametrize(
        "kind,victim_asid,shared",
        [
            (TLBKind.SA, NO_VICTIM_ASID, True),
            (TLBKind.SP, RSA_ASID, False),
            (TLBKind.SP, NO_VICTIM_ASID, True),
            (TLBKind.RF, NO_VICTIM_ASID, True),
        ],
        ids=["SA", "SP-victim", "SP-no-victim", "RF"],
    )
    def test_engages_every_runner(self, run_states, kind, victim_asid,
                                  shared):
        rsa, spec = self.both_paths(run_states, kind, victim_asid, False)
        assert oracle_engaged(rsa) and oracle_engaged(spec)
        assert oracle_active(rsa) and oracle_active(spec)  # To the end.
        assert rsa.o_tier is spec.o_tier
        # One merged stream for a shared fill universe, the traces' own
        # oracles for the SP victim's partition and the attacker side's.
        assert (rsa.o_universe is spec.o_universe) is shared
        assert (rsa.o_universe.segments is not None) is shared

    @pytest.mark.parametrize("case", list(REFUSALS))
    def test_refuses_every_runner(self, run_states, case):
        kind, region, options = REFUSALS[case]
        states = self.both_paths(
            run_states, kind, RSA_ASID if region else NO_VICTIM_ASID,
            region, options,
        )
        assert not any(oracle_engaged(state) for state in states)
        assert any(state.run_hits for state in states)  # The ledger ran.


class TestHierarchyRunEquivalence:
    """The run kernel over multi-level hierarchies: the L1 proof engine
    with L2/PWC side effects flowing through the adapter chain."""

    def test_rf_sa_two_level(self, povray_trace):
        def build():
            spec = HierarchySpec.two_level(
                "RF", "SA",
                TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
            )
            return make_hierarchy(spec, rng=random.Random(7))

        two_way(
            build, povray_trace, asid=2,
            extras=lambda tlb: (tlb.l1.stats, tlb.l2.stats),
        )

    def test_sa_sa_pwc_hierarchy(self, povray_trace):
        spec = HierarchySpec(
            levels=(
                LevelSpec(kind="SA", sets=8, ways=4),
                LevelSpec(kind="SA", sets=16, ways=8, hit_latency=4),
            ),
            pwc=PWCSpec(),
        )

        def build():
            return make_hierarchy(spec)

        def extras(tlb):
            return (
                tuple(level.stats for level in tlb.levels),
                tlb.pwc.stats.hits,
                tlb.pwc.stats.misses,
            )

        two_way(build, povray_trace, asid=2, extras=extras)

    def test_hierarchy_walk_cache_never_engages(self, povray_trace):
        """Level adapters have walk side effects (L2/PWC fills), so the
        cross-quantum walk memo must refuse to cache through them."""
        tlb = make_hierarchy(HierarchySpec.two_level(
            "SA", "SA",
            TLBConfig(entries=16, ways=4), TLBConfig(entries=64, ways=8),
        ))
        walker = make_walker()
        state = RunState()
        for begin in range(0, RUN_COUNT, RUN_STEP):
            tlb.translate_runs(
                povray_trace, begin, min(begin + RUN_STEP, RUN_COUNT),
                2, walker, state,
            )
        assert not state.walk_cache
        assert not oracle_engaged(state)


class TestSimulateEquivalence:
    """Whole timing-model runs: fastpath=True vs fastpath=False."""

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_single_process_identical(self, kind):
        results = {}
        for fastpath in (False, True):
            tlb, _ = make_pair(kind)
            results[fastpath] = simulate(
                tlb,
                [ScheduledProcess(workload=by_name("povray"), asid=1,
                                  instructions=40_000)],
                quantum=1_000,
                fastpath=fastpath,
            )
        assert results[True] == results[False]

    @pytest.mark.parametrize(
        "policy", [SwitchPolicy.KEEP, SwitchPolicy.FLUSH_ALL]
    )
    def test_multiprogrammed_identical(self, policy):
        results = {}
        for fastpath in (False, True):
            tlb, _ = make_pair(TLBKind.SA)
            results[fastpath] = simulate(
                tlb,
                [
                    ScheduledProcess(workload=by_name("povray"), asid=1,
                                     instructions=30_000),
                    ScheduledProcess(workload=by_name("omnetpp"), asid=2,
                                     instructions=30_000),
                ],
                quantum=2_000,
                switch_policy=policy,
                fastpath=fastpath,
            )
        # Includes total.switches: done-flag timing must match exactly.
        assert results[True] == results[False]

    @pytest.mark.parametrize(
        "kind,victim_asid,region,organization,spec", list(machine_cases())
    )
    def test_whole_machine_identical(
        self, kind, victim_asid, region, organization, spec
    ):
        """Beyond the results: both paths leave the same statistics
        (``misses_by_asid``, fills, evictions), the same entry in every
        way (LRU and fill timestamps included), the same walker counters
        and the same frame behind every mapped page."""
        fast, reference = (
            run_machine(
                kind, victim_asid, region, organization, spec, fastpath
            )
            for fastpath in (True, False)
        )
        assert fast == reference

    def test_figure7_cell_identical(self):
        cells = {}
        for fastpath in (False, True):
            cells[fastpath] = run_cell(
                TLBKind.RF,
                "4W 32",
                Scenario(secure=True, spec=by_name("omnetpp")),
                rsa_runs=3,
                settings=PerfSettings(
                    spec_instructions=20_000, key_bits=64, fastpath=fastpath
                ),
            )
        assert cells[True].results == cells[False].results

    @staticmethod
    def secrsa_omnetpp(kind, fastpath=True, bus=None):
        return run_cell(
            kind,
            "4W 32",
            Scenario(secure=True, spec=by_name("omnetpp")),
            rsa_runs=3,
            settings=PerfSettings(
                spec_instructions=20_000, key_bits=64, quantum=1_000,
                fastpath=fastpath,
            ),
            bus=bus,
        ).results

    @pytest.mark.parametrize("kind", DESIGNS)
    def test_evented_quanta_match_reference(self, kind):
        """With an access subscriber every quantum runs evented, one
        AccessEvent per memory access, and the run kernel never runs."""
        bus = EventBus()
        events = []
        bus.on_access(events.append)
        with kernel_count() as counts:
            evented = self.secrsa_omnetpp(kind, bus=bus)
        assert counts.run_hits == counts.fallback_accesses == 0
        assert evented == self.secrsa_omnetpp(kind, fastpath=False)
        assert len(events) == evented["total"].memory_accesses == 10_618

    @pytest.mark.parametrize("handoff", [1, 500, 3_000, 7_000])
    def test_unsubscribing_hands_off_to_the_run_kernel(self, handoff):
        """A subscriber leaving after ``handoff`` accesses moves the run
        from evented quanta to the run kernel mid-trace."""
        for kind in DESIGNS:
            bus = EventBus()
            seen = []

            def watch(event, bus=bus, seen=seen):
                seen.append(event)
                if len(seen) == handoff:
                    bus.unsubscribe(AccessEvent, watch)

            bus.on_access(watch)
            with kernel_count() as counts:
                results = self.secrsa_omnetpp(kind, bus=bus)
            assert len(seen) == handoff
            # Everything past the handoff quantum went through the kernel.
            kernel_accesses = counts.run_hits + counts.fallback_accesses
            total = results["total"].memory_accesses
            assert 0 < kernel_accesses <= total - handoff
            assert results == self.secrsa_omnetpp(kind, fastpath=False)


class TestStructurePrePass:
    """The numpy pre-passes against references written out here."""

    def test_columns_match_their_definitions(self):
        events = list(islice(by_name("povray").events(random.Random(3)),
                             6_000))
        trace = CompiledTrace(events)
        # Two extensions, so the second stitches onto the first's chains.
        trace.ensure_structure(trace.ensure(1))
        limit = trace.ensure(6_000)
        assert 0 < len(trace.prev) < limit
        trace.ensure_structure(limit)

        positions = {}
        for position, vpn in enumerate(trace.vpns):
            positions.setdefault(vpn, []).append(position)
        prev = [-1] * limit
        nxt = [INF_HORIZON] * limit
        for chain in positions.values():
            for earlier, later in zip(chain, chain[1:]):
                prev[later] = earlier
                nxt[earlier] = later
        assert list(trace.prev) == prev
        assert list(trace.nxt) == nxt
        assert {
            vpn: list(chain) for vpn, chain in trace.occ.items()
        } == positions
        for minima, block in ((trace.sub_min_prev, SUB_BLOCK),
                              (trace.blk_min_prev, RUN_BLOCK)):
            assert minima == [
                min(prev[base:base + block])
                for base in range(0, limit - block + 1, block)
            ]

    def test_oracle_matches_an_lru_loop_over_every_access(self):
        """The pre-pass skips MRU re-touches, so the miss schedule must
        match a plain per-set LRU over every access, across chunks and
        key offsets."""
        trace = CompiledTrace(by_name("omnetpp").events(random.Random(3)))
        trace.ensure_structure(trace.ensure(20_000))
        vpns = trace.vpns
        for nsets, ways in ((1, 32), (1, 1), (8, 4), (8, 2), (6, 3)):
            chunks = [
                (vpns[:5_000], 0),
                (vpns[5_000:9_000], nsets << 30),
                (vpns[9_000:], 0),
            ]
            oracle = ReuseOracle(nsets, ways)
            oracle.extend(chunks)

            sets = [[] for _ in range(nsets)]  # Least recently used first.
            seen = set()
            misses = []
            keys = (page + offset for column, offset in chunks
                    for page in column)
            for position, key in enumerate(keys):
                lru = sets[key % nsets]
                if key in lru:
                    lru.remove(key)
                else:
                    victim = lru.pop(0) if len(lru) == ways else -1
                    misses.append((position, key, victim, int(key not in seen)))
                    seen.add(key)
                lru.append(key)
            assert misses
            assert list(zip(oracle.miss_pos, oracle.miss_key,
                            oracle.miss_evict, oracle.miss_first)) == misses


class TestCompiledTrace:
    def test_chunked_materialisation_of_infinite_stream(self):
        def stream():
            value = 0
            while True:
                yield (value % 5, 0x100 + value % 64)
                value += 1

        trace = CompiledTrace(stream())
        assert len(trace) == 0
        available = trace.ensure(10)
        assert available >= 10
        assert not trace.exhausted
        # cum[i] accumulates gap + 1 per event.
        assert trace.cum[0] == trace.gaps[0] + 1
        assert trace.cum[3] - trace.cum[2] == trace.gaps[3] + 1

    def test_finite_stream_exhausts(self):
        trace = CompiledTrace([(1, 0x10), (0, 0x11)])
        assert trace.ensure(100) == 2
        assert trace.exhausted
        assert list(trace.vpns) == [0x10, 0x11]
        assert list(trace.cum) == [2, 3]
