"""The Section 5.3 security evaluation: one trial loop for every design.

For a Table 2 (or Table 7) vulnerability and a design described by a
:class:`repro.tlb.HierarchySpec`, run the generated micro security
benchmark with the victim's secret page mapped to the tested block and
unmapped, count Step-3 misses (n_{M,M} and n_{N,M}), estimate p1*/p2* and
the channel capacity C*, and, for the paper's flat designs, compare
against the theoretical values.  Table 4 (500 trials per behaviour: the
paper's 24 x 1000 protocol), Table 7, the mitigation ladder, the large
pages, the hierarchy study, the hierarchy sweep and both dynamic legs of
the certify gate all run through
:meth:`SecurityEvaluator.evaluate_vulnerability`.

The reference trial, :meth:`SecurityEvaluator.run_trial`, runs on a
fresh processor, TLB and walker; the row's RNG is shared across its
trials so a Random-Fill level's randomization varies trial to trial, and
is seeded from the row's label so every result is reproducible.  The
evaluator gives the estimates of that trial repeated ``trials`` times
without repeating what the trials share: a behaviour whose first trial
draws nothing from the RNG runs once, and one that draws rewinds a
machine checkpointed just before its first drawing step for every later
trial (see :meth:`SecurityEvaluator.evaluate_vulnerability`).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.isa import CPU, ExecutionStatus, Program, assemble
from repro.isa.cpu import MAX_STEPS, ExecutionLimitExceeded
from repro.model.capacity import ChannelEstimate
from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.mmu import PageTableWalker, SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.sim.system import MemorySystem
from repro.tlb import HierarchySpec, LevelSpec, TLBConfig

from .benchgen import BenchmarkLayout, generate, layout_for_spec
from .kinds import TLBKind, make_hierarchy, make_tlb
from .theory import TheoreticalModel

#: The Section 5.3 TLB the paper's flat designs are evaluated on: 32
#: entries, 8 ways (4 sets).
TABLE4_TLB = TLBConfig(entries=32, ways=8)

_VICTIM_PID = BenchmarkLayout().victim_pid


def table4_spec(kind: TLBKind) -> HierarchySpec:
    """One of the paper's flat designs over the Section 5.3 TLB."""
    return HierarchySpec.flat(kind.value, TABLE4_TLB)


def bare_level(spec: HierarchySpec) -> Optional[LevelSpec]:
    """The level of a one-level design with no page-walk cache and its
    Sec bit set, else ``None``.

    Such a design is exactly one of the paper's flat designs: the
    evaluator builds it as the bare level TLB, and Section 5.3's closed
    forms describe it.  A one-level :class:`repro.tlb.TLBHierarchy`
    gives the same estimates but ran Table 4's 72 rows 8-12% slower in
    three of four paired runs on a shared 2-vCPU host.
    """
    if len(spec.levels) == 1 and spec.pwc is None and spec.levels[0].sec_bit:
        return spec.levels[0]
    return None


@dataclass(frozen=True)
class EvaluationConfig:
    """Parameters of the Section 5.3 evaluation."""

    trials: int = 500
    seed: int = 2019
    #: Emulate the Sanctum / Intel SGX software mitigation (Section 2.3):
    #: flush the whole TLB on every process switch.
    flush_on_switch: bool = False
    #: Builds the walker for each machine; override to pre-map pages
    #: (e.g. the large-page mitigation backs the secure region with a
    #: superpage).  It must build a fresh walker on every call: the
    #: evaluator counts a trial that draws no randomness for every trial
    #: and replays a drawing trial's draw-free prefix only once, which
    #: holds only if every machine starts from the same state.
    walker_factory: Optional[Callable[[], PageTableWalker]] = None
    #: Narrow an SP last level's prime/evict steps to each actor's
    #: partition (see :func:`repro.security.benchgen.layout_for_spec`):
    #: the Table 4 family's rule.  The hierarchy study and sweep turn it
    #: off and prime whole sets.
    partitioned_primes: bool = True


@dataclass(frozen=True)
class VulnerabilityResult:
    """One Table 4 cell group: a design's behaviour on one row.

    The theoretical columns are ``None`` for extended-model (Appendix B)
    rows, for which the paper gives no closed forms, and for designs
    other than the paper's flat ones (see :func:`bare_level`).
    """

    vulnerability: Vulnerability
    #: The evaluated design's :meth:`HierarchySpec.label`.
    design: str
    estimate: ChannelEstimate
    theoretical_p1: Optional[float]
    theoretical_p2: Optional[float]
    theoretical_capacity: Optional[float]

    @property
    def defended(self) -> bool:
        """The paper's bold criterion: measured capacity "about 0"."""
        return self.estimate.defends()

    @property
    def theory_defends(self) -> Optional[bool]:
        if self.theoretical_capacity is None:
            return None
        return self.theoretical_capacity < 1e-9


class SecurityEvaluator:
    """Runs the micro security benchmarks against any TLB design."""

    def __init__(self, config: EvaluationConfig = EvaluationConfig()) -> None:
        self.config = config

    # -- single trials ------------------------------------------------------------

    def _machine(
        self,
        program: Program,
        spec: HierarchySpec,
        rng: random.Random,
        bus: Optional[EventBus] = None,
    ) -> CPU:
        """A fresh CPU, TLB and walker with ``program`` loaded."""
        level = bare_level(spec)
        if level is None:
            tlb = make_hierarchy(spec, victim_asid=_VICTIM_PID, rng=rng)
        else:
            tlb = make_tlb(
                TLBKind(level.kind),
                level.config(),
                victim_asid=_VICTIM_PID,
                victim_ways=level.effective_victim_ways(),
                rng=rng,
            )
        if self.config.walker_factory is not None:
            walker = self.config.walker_factory()
        else:
            walker = make_walker()
        memory = MemorySystem(
            tlb,
            walker,
            switch_policy=(
                SwitchPolicy.FLUSH_ALL
                if self.config.flush_on_switch
                else SwitchPolicy.KEEP
            ),
            bus=bus,
        )
        cpu = CPU(memory_system=memory)
        cpu.load(program)
        return cpu

    def run_trial(
        self,
        program: Program,
        spec: HierarchySpec,
        rng: random.Random,
        bus: Optional[EventBus] = None,
    ) -> bool:
        """Run one benchmark once on a fresh CPU; True iff Step 3 missed."""
        return _missed(self._machine(program, spec, rng, bus).run().status)

    # -- per-vulnerability evaluation ------------------------------------------------

    def evaluate_vulnerability(
        self,
        vulnerability: Vulnerability,
        spec: HierarchySpec,
        trials: Optional[int] = None,
    ) -> VulnerabilityResult:
        """Run one row against one design, ``trials`` times per behaviour.

        The benchmark targets the design's last level
        (:func:`repro.security.benchgen.layout_for_spec`), and the RNG is
        derived from the row's own label, ``seed/design/row``, so rows
        are order-independent and shard cleanly.

        Each behaviour's results equal those of :meth:`run_trial` called
        ``trials`` times on that RNG, without repeating the work every
        such trial shares.  The first trial runs one step at a time,
        watching the RNG.  The steps before the first one that draws are
        a pure function of the program, the design and this config, so
        every trial passes through the same machine state there:

        * if no step draws, the whole trial is pure, and its outcome
          counts ``trials`` times;
        * otherwise a second machine is advanced to that step and
          checkpointed once, and every later trial rewinds it in place
          and runs from there, drawing from the RNG exactly as a fresh
          trial would.
        """
        trials = trials if trials is not None else self.config.trials
        if trials < 1:
            raise ValueError(
                f"need at least one trial per behaviour, got {trials}"
            )
        # zlib.crc32 is stable across interpreter runs (str.__hash__ is
        # salted per process).
        label = f"{self.config.seed}/{spec.label()}/{vulnerability.pretty()}"
        rng = random.Random(zlib.crc32(label.encode()))
        layout = layout_for_spec(spec, self.config.partitioned_primes)
        programs = {
            mapped: assemble(generate(vulnerability, layout, mapped=mapped))
            for mapped in (True, False)
        }
        # The mapped behaviour first: both draw from the one RNG.
        misses = {
            mapped: self._behaviour_misses(program, spec, rng, trials)
            for mapped, program in programs.items()
        }
        estimate = ChannelEstimate(
            misses_mapped=misses[True],
            misses_unmapped=misses[False],
            trials_per_behaviour=trials,
        )
        level = bare_level(spec)
        if level is None or vulnerability.pattern.uses_extended_states():
            p1 = p2 = capacity = None
        else:
            kind = TLBKind(level.kind)
            theory = TheoreticalModel(nsets=level.sets, nways=level.ways)
            p1, p2 = theory.probabilities(kind, vulnerability)
            capacity = theory.capacity(kind, vulnerability)
        return VulnerabilityResult(
            vulnerability=vulnerability,
            design=spec.label(),
            estimate=estimate,
            theoretical_p1=p1,
            theoretical_p2=p2,
            theoretical_capacity=capacity,
        )

    def _behaviour_misses(
        self,
        program: Program,
        spec: HierarchySpec,
        rng: random.Random,
        trials: int,
    ) -> int:
        """Step-3 misses over ``trials`` trials of one program (see
        :meth:`evaluate_vulnerability`)."""
        missed, prefix = _first_trial(self._machine(program, spec, rng), rng)
        if prefix is None:
            return missed * trials
        misses = int(missed)
        if trials > 1:
            cpu = self._machine(program, spec, rng)
            for _ in range(prefix):
                cpu.step()
            start = cpu.checkpoint()
            for _ in range(trials - 1):
                cpu.rewind(start)
                misses += _missed(cpu.run().status)
        return misses

    # -- the paper's flat designs (Tables 4 and 7) ---------------------------------

    def evaluate_kind(
        self,
        kind: TLBKind,
        vulnerabilities: Optional[Sequence[Vulnerability]] = None,
        trials: Optional[int] = None,
    ) -> List[VulnerabilityResult]:
        """Every Table 2 row (or ``vulnerabilities``) on one flat design."""
        spec = table4_spec(kind)
        if vulnerabilities is None:
            vulnerabilities = table2_vulnerabilities()
        return [
            self.evaluate_vulnerability(vulnerability, spec, trials)
            for vulnerability in vulnerabilities
        ]

    def evaluate_table4(
        self,
        kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
        trials: Optional[int] = None,
    ) -> Dict[TLBKind, List[VulnerabilityResult]]:
        return {kind: self.evaluate_kind(kind, trials=trials) for kind in kinds}

    def evaluate_extended(
        self,
        kind: TLBKind,
        trials: Optional[int] = None,
    ) -> List[VulnerabilityResult]:
        """Appendix B: run the targeted-invalidation rows (Table 7).

        The generated benchmarks realize targeted invalidations as
        per-page ``sfence.vma`` with Appendix B's presence-dependent
        timing; invalidation probes measure the cycle counter instead of
        the miss counter.
        """
        from repro.model.extended import invalidation_only_vulnerabilities

        return self.evaluate_kind(
            kind, invalidation_only_vulnerabilities(), trials
        )


def _missed(status: ExecutionStatus) -> bool:
    """A finished benchmark's verdict: True iff Step 3 missed."""
    if status is ExecutionStatus.HALTED:  # pragma: no cover
        raise RuntimeError("benchmark ended without a pass/fail verdict")
    return status is ExecutionStatus.PASSED


def _first_trial(cpu: CPU, rng: random.Random) -> Tuple[bool, Optional[int]]:
    """Run a loaded machine's trial one step at a time, watching ``rng``.

    Returns the verdict and the number of steps before the first step
    that drew from ``rng``, or ``None`` if no step did.
    """
    state = rng.getstate()
    for steps in range(MAX_STEPS):
        status = cpu.step()
        if rng.getstate() != state:
            if status is None:
                status = cpu.run().status
            return _missed(status), steps
        if status is not None:
            return _missed(status), None
    raise ExecutionLimitExceeded(
        f"no terminator within {MAX_STEPS} steps (pc={cpu.pc})"
    )


def table4_cells(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
    vulnerabilities: Optional[Sequence[Vulnerability]] = None,
) -> List[Tuple[TLBKind, Vulnerability]]:
    """The Table 4 work-list, one entry per (design, vulnerability) cell.

    Every cell is independent -- :meth:`SecurityEvaluator.evaluate_vulnerability`
    derives its RNG from the cell's own label -- so this enumeration is the
    unit of sharding for :mod:`repro.runner` as well as the serial iteration
    order of :meth:`SecurityEvaluator.evaluate_table4`.
    """
    rows = (
        list(vulnerabilities)
        if vulnerabilities is not None
        else table2_vulnerabilities()
    )
    return [(kind, vulnerability) for kind in kinds for vulnerability in rows]


def extended_cells(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
) -> List[Tuple[TLBKind, Vulnerability]]:
    """The Appendix B work-list (Table 7 rows), at cell granularity."""
    from repro.model.extended import invalidation_only_vulnerabilities

    rows = invalidation_only_vulnerabilities()
    return [(kind, vulnerability) for kind in kinds for vulnerability in rows]


def defended_counts(
    table: Dict[TLBKind, List[VulnerabilityResult]]
) -> Dict[TLBKind, int]:
    """How many of the 24 rows each design defends (measured C* ~ 0)."""
    return {
        kind: sum(1 for result in results if result.defended)
        for kind, results in table.items()
    }


def format_table4(table: Dict[TLBKind, List[VulnerabilityResult]]) -> str:
    """Render results in the layout of the paper's Table 4."""
    lines: List[str] = []
    for kind, results in table.items():
        lines.append(f"== {kind.value} TLB ==")
        lines.append(
            f"{'Strategy':34} {'Vulnerability':30} "
            f"{'n_MM':>5} {'p1*':>6} {'p1':>6} "
            f"{'n_NM':>5} {'p2*':>6} {'p2':>6} {'C*':>6} {'C':>6}  defended"
        )
        lines.append("-" * 130)
        ordered = sorted(
            results,
            key=lambda r: (r.vulnerability.strategy.value, r.vulnerability.pattern.pretty()),
        )
        for result in ordered:
            estimate = result.estimate
            theory_p1 = (
                f"{result.theoretical_p1:>6.2f}"
                if result.theoretical_p1 is not None
                else f"{'--':>6}"
            )
            theory_p2 = (
                f"{result.theoretical_p2:>6.2f}"
                if result.theoretical_p2 is not None
                else f"{'--':>6}"
            )
            theory_capacity = (
                f"{result.theoretical_capacity:>6.2f}"
                if result.theoretical_capacity is not None
                else f"{'--':>6}"
            )
            lines.append(
                f"{result.vulnerability.strategy.value:34} "
                f"{result.vulnerability.pretty():30} "
                f"{estimate.misses_mapped:>5} {estimate.p1:>6.2f} "
                f"{theory_p1} "
                f"{estimate.misses_unmapped:>5} {estimate.p2:>6.2f} "
                f"{theory_p2} "
                f"{estimate.capacity:>6.2f} {theory_capacity}  "
                f"{'yes' if result.defended else 'NO'}"
            )
        lines.append("")
    counts = defended_counts(table)
    lines.append(
        "defended rows: "
        + ", ".join(
            f"{kind.value}={count}/{len(table[kind])}"
            for kind, count in counts.items()
        )
    )
    return "\n".join(lines)
