"""The Figure 7 performance harness.

Reproduces the evaluation grid of Section 6: for each of the 19 TLB
configurations, run the RSA decryption series (50/100/150 decryptions)
alone and alongside each TLB-intensive SPEC workload, with and without the
secure TLBs' protection enabled (the RSA vs SecRSA configurations), and
report IPC and MPKI.

* **SecRSA on the SP TLB** designates RSA's ASID as the victim, giving it
  half the ways; everything else lives in the attacker partition.  Plain
  RSA leaves no victim designated, so all processes share the attacker
  partition -- the paper's observation that the effective TLB size halves.
* **SecRSA on the RF TLB** programs the secure region over the three MPI
  buffer pages (``tp``/``rp``/``xp``); plain RSA leaves the region empty,
  making the RF TLB behave like the standard one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.mmu import SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.tlb import RandomFillTLB, TLBKind, make_tlb
from repro.workloads.rsa import RSAKey, RSAWorkload, generate_key
from repro.workloads.spec import SPEC_BENCHMARKS, SpecProfile, by_name

from .configs import config_by_label, labels_for
from .timing import PerfResult, ScheduledProcess, simulate

RSA_ASID = 1
SPEC_ASID = 2
#: ASID that matches no process: used to disable SP protection for the
#: plain-RSA configurations (everything shares the attacker partition).
NO_VICTIM_ASID = -1


@dataclass(frozen=True)
class PerfSettings:
    """Knobs trading fidelity for runtime (the defaults suit test runs)."""

    key_bits: int = 128
    key_seed: int = 7
    spec_instructions: int = 150_000
    quantum: int = 10_000
    seed: int = 0
    switch_policy: SwitchPolicy = SwitchPolicy.KEEP
    #: Drive the run through the :mod:`repro.sim.kernel` fast path.
    #: Results are identical either way (differentially verified); False
    #: selects the reference loop (``repro run-all --no-fastpath``).
    fastpath: bool = True


@dataclass(frozen=True)
class Scenario:
    """One bar group of Figure 7: RSA (secured or not) +- a SPEC workload."""

    secure: bool
    spec: Optional[SpecProfile] = None

    @property
    def label(self) -> str:
        rsa = "SecRSA" if self.secure else "RSA"
        if self.spec is None:
            return rsa
        return f"{rsa}+{self.spec.name}"


def all_scenarios() -> List[Scenario]:
    """The paper's ten scenarios (Section 6.2)."""
    scenarios = []
    for secure in (False, True):
        scenarios.append(Scenario(secure=secure))
        for spec in SPEC_BENCHMARKS:
            scenarios.append(Scenario(secure=secure, spec=spec))
    return scenarios


def scenario_by_label(label: str) -> Scenario:
    """Parse a :attr:`Scenario.label` back into a :class:`Scenario`.

    The label is the scenario's serialized form in sharded runs
    (:mod:`repro.runner` ships plain strings to its workers).
    """
    rsa, _, spec_name = label.partition("+")
    if rsa not in ("RSA", "SecRSA"):
        raise ValueError(f"unknown scenario label {label!r}")
    return Scenario(
        secure=(rsa == "SecRSA"),
        spec=by_name(spec_name) if spec_name else None,
    )


@dataclass(frozen=True)
class Figure7Cell:
    """One measurement: a design, an organization, a scenario, a run count."""

    kind: TLBKind
    config_label: str
    scenario: Scenario
    rsa_runs: int
    results: Dict[str, PerfResult]

    @property
    def rsa(self) -> PerfResult:
        return self.results["RSA"]

    @property
    def total(self) -> PerfResult:
        return self.results["total"]


def run_cell(
    kind: TLBKind,
    config_label: str,
    scenario: Scenario,
    rsa_runs: int = 50,
    settings: PerfSettings = PerfSettings(),
    key: Optional[RSAKey] = None,
    bus: Optional["EventBus"] = None,
) -> Figure7Cell:
    """Run one Figure 7 measurement."""
    key = key or generate_key(bits=settings.key_bits, seed=settings.key_seed)
    rsa = RSAWorkload(key=key, runs=rsa_runs)
    config = config_by_label(config_label)

    victim_asid = RSA_ASID if scenario.secure else NO_VICTIM_ASID
    tlb = make_tlb(
        kind,
        config,
        victim_asid=victim_asid,
        victim_ways=(max(config.ways // 2, 1) if kind is TLBKind.SP else None),
    )
    if kind is TLBKind.RF and scenario.secure:
        assert isinstance(tlb, RandomFillTLB)
        sbase, ssize = rsa.secure_region()
        tlb.set_secure_region(sbase, ssize, victim_asid=RSA_ASID)

    processes = [ScheduledProcess(workload=rsa, asid=RSA_ASID)]
    if scenario.spec is not None:
        processes.append(
            ScheduledProcess(
                workload=scenario.spec,
                asid=SPEC_ASID,
                instructions=settings.spec_instructions,
            )
        )
    results = simulate(
        tlb,
        processes,
        walker=make_walker(),
        quantum=settings.quantum,
        switch_policy=settings.switch_policy,
        seed=settings.seed,
        bus=bus,
        fastpath=settings.fastpath,
    )
    return Figure7Cell(
        kind=kind,
        config_label=config_label,
        scenario=scenario,
        rsa_runs=rsa_runs,
        results=results,
    )


@dataclass(frozen=True)
class Figure7Unit:
    """One cell's coordinates: the shardable unit of the Figure 7 grid.

    Cells are mutually independent -- :func:`run_cell` builds its own TLB,
    key and schedule from the coordinates and settings -- so the grid can
    be executed in any order (or in parallel by :mod:`repro.runner`) and
    reassembled in enumeration order.
    """

    kind: TLBKind
    config_label: str
    scenario: Scenario
    rsa_runs: int

    def run(
        self,
        settings: PerfSettings = PerfSettings(),
        key: Optional[RSAKey] = None,
    ) -> Figure7Cell:
        return run_cell(
            self.kind, self.config_label, self.scenario, self.rsa_runs,
            settings, key,
        )


def figure7_units(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
    scenarios: Optional[Sequence[Scenario]] = None,
    rsa_runs: Sequence[int] = (50,),
    config_labels: Optional[Sequence[str]] = None,
) -> List[Figure7Unit]:
    """Enumerate the grid's cells in the canonical (plot) order."""
    scenarios = list(scenarios) if scenarios is not None else all_scenarios()
    units = []
    for kind in kinds:
        labels = config_labels or labels_for(kind)
        for label in labels:
            if label not in labels_for(kind):
                continue
            for scenario in scenarios:
                for runs in rsa_runs:
                    units.append(Figure7Unit(kind, label, scenario, runs))
    return units


def figure7(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
    scenarios: Optional[Sequence[Scenario]] = None,
    rsa_runs: Sequence[int] = (50,),
    settings: PerfSettings = PerfSettings(),
    config_labels: Optional[Sequence[str]] = None,
) -> List[Figure7Cell]:
    """Run the evaluation grid (the full paper grid with default args to
    ``scenarios`` and ``rsa_runs=(50, 100, 150)``)."""
    key = generate_key(bits=settings.key_bits, seed=settings.key_seed)
    return [
        unit.run(settings, key)
        for unit in figure7_units(kinds, scenarios, rsa_runs, config_labels)
    ]


def format_figure7(cells: Sequence[Figure7Cell]) -> str:
    """Render cells as the Figure 7 series (IPC and MPKI per bar)."""
    lines = [
        f"{'TLB':4} {'config':8} {'scenario':22} {'runs':>4} "
        f"{'IPC':>6} {'MPKI':>8}  (total IPC / MPKI; RSA-only in parens)"
    ]
    lines.append("-" * 96)
    for cell in cells:
        total = cell.total
        rsa = cell.rsa
        lines.append(
            f"{cell.kind.value:4} {cell.config_label:8} "
            f"{cell.scenario.label:22} {cell.rsa_runs:>4} "
            f"{total.ipc:>6.3f} {total.mpki:>8.3f}  "
            f"(RSA {rsa.ipc:.3f} / {rsa.mpki:.3f})"
        )
    return "\n".join(lines)


def headline_ratios(cells: Sequence[Figure7Cell]) -> Dict[str, float]:
    """The Section 6 headline comparisons, computed over matching cells.

    Returns the SP/SA and RF/SA MPKI ratios and the 1E/SA-best IPC ratio
    (geometric means over the scenarios present in ``cells``).
    """
    def mean_metric(kind: TLBKind, label: str, metric: str) -> Optional[float]:
        values = [
            getattr(cell.total, metric)
            for cell in cells
            if cell.kind is kind and cell.config_label == label
        ]
        if not values:
            return None
        product = 1.0
        for value in values:
            product *= max(value, 1e-9)
        return product ** (1.0 / len(values))

    ratios: Dict[str, float] = {}
    for label in ("4W 32", "2W 32", "FA 32", "4W 128", "2W 128", "FA 128"):
        sa_mpki = mean_metric(TLBKind.SA, label, "mpki")
        sp_mpki = mean_metric(TLBKind.SP, label, "mpki")
        rf_mpki = mean_metric(TLBKind.RF, label, "mpki")
        if sa_mpki and sp_mpki:
            ratios[f"sp_over_sa_mpki:{label}"] = sp_mpki / sa_mpki
        if sa_mpki and rf_mpki:
            ratios[f"rf_over_sa_mpki:{label}"] = rf_mpki / sa_mpki
    one_entry_ipc = mean_metric(TLBKind.SA, "1E", "ipc")
    baseline_ipc = mean_metric(TLBKind.SA, "4W 32", "ipc")
    if one_entry_ipc and baseline_ipc:
        ratios["one_entry_over_sa_ipc"] = one_entry_ipc / baseline_ipc
    return ratios
