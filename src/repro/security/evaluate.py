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
without repeating what the trials share.  The row RNG is a
:class:`RecordingRandom`, so the evaluator sees each draw through the
call that made it and what that call returned.  A trial's verdict is a
function of those values, so each behaviour simulates each distinct
sequence of them once: a behaviour whose first trial draws nothing runs
once, and a later trial that draws a value no earlier trial drew
rewinds a machine checkpointed just before the first drawing step (see
:meth:`SecurityEvaluator.channel_estimate`).
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.isa import CPU, ExecutionStatus, Program, assemble
from repro.isa.cpu import MAX_STEPS, ExecutionLimitExceeded
from repro.model.capacity import ChannelEstimate
from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.mmu import PageTableWalker, SwitchPolicy, make_walker
from repro.sim.events import EventBus
from repro.sim.system import MemorySystem
from repro.tlb import (
    HierarchySpec,
    LevelSpec,
    TLBConfig,
    TLBKind,
    make_hierarchy,
    make_tlb,
)

from .benchgen import BenchmarkLayout, generate, layout_for_spec
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
    #: evaluator simulates each distinct sequence of draws once and
    #: replays a drawing trial's draw-free prefix only once, which holds
    #: only if every machine starts from the same state.
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
        """
        trials = trials if trials is not None else self.config.trials
        # zlib.crc32 is stable across interpreter runs (str.__hash__ is
        # salted per process).
        label = f"{self.config.seed}/{spec.label()}/{vulnerability.pretty()}"
        layout = layout_for_spec(spec, self.config.partitioned_primes)
        mapped, unmapped = (
            assemble(generate(vulnerability, layout, mapped=mapped))
            for mapped in (True, False)
        )
        estimate = self.channel_estimate(
            mapped, unmapped, spec, zlib.crc32(label.encode()), trials
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

    def channel_estimate(
        self,
        mapped: Program,
        unmapped: Program,
        spec: HierarchySpec,
        seed: int,
        trials: int,
    ) -> ChannelEstimate:
        """Section 5.3's estimate from a benchmark's two programs.

        It equals the plain loop's: :meth:`run_trial` called ``trials``
        times on ``mapped``, then ``trials`` times on ``unmapped``, all
        drawing from one RNG seeded with ``seed``.  Each behaviour gets
        there without repeating the work such trials share.  The first
        trial runs one step at a time, logging the RNG's calls.  The
        steps before the first one that draws are a pure function of the
        program, the design and this config, so every trial passes
        through the same machine state there; from there on, a trial is
        a function of what its draws return:

        * if no step draws, the whole trial is pure, and its outcome
          counts ``trials`` times;
        * otherwise a second machine is advanced to that step and
          checkpointed once, and the first trial's calls and verdict
          seed a trie keyed by what each call returned.  Every later
          trial walks the trie, making each node's call on the RNG, and
          counts the verdict at the leaf it reaches.  Only a trial that
          draws a value the trie has not seen rewinds the checkpoint and
          runs from there, taking back the values the walk drew, and its
          calls and verdict join the trie.

        A walk makes exactly the calls a simulated trial would, so the
        RNG advances as in the plain loop, and the unmapped behaviour
        starts from the state the plain loop leaves.
        """
        if trials < 1:
            raise ValueError(
                f"need at least one trial per behaviour, got {trials}"
            )
        rng = RecordingRandom(seed)
        # The mapped behaviour first: both draw from the one RNG.
        return ChannelEstimate(
            misses_mapped=self._behaviour_misses(mapped, spec, rng, trials),
            misses_unmapped=self._behaviour_misses(
                unmapped, spec, rng, trials
            ),
            trials_per_behaviour=trials,
        )

    def _behaviour_misses(
        self,
        program: Program,
        spec: HierarchySpec,
        rng: RecordingRandom,
        trials: int,
    ) -> int:
        """Step-3 misses over ``trials`` trials of one program (see
        :meth:`channel_estimate`)."""
        rng.log = []
        missed, prefix = _first_trial(self._machine(program, spec, rng), rng)
        if prefix is None:
            return missed * trials
        misses = int(missed)
        if trials > 1:
            root = _chain(rng.log, missed)
            cpu = self._machine(program, spec, rng)
            for _ in range(prefix):
                cpu.step()
            start = cpu.checkpoint()
            for _ in range(trials - 1):
                rng.log = []
                node: Optional[_Trie] = root
                while isinstance(node, _Call):
                    call, value = node, getattr(rng, node.name)(*node.args)
                    node = call.after.get(value)
                if node is not None:
                    misses += node
                    continue
                # A value no earlier trial drew: simulate this trial.
                drawn = len(rng.log)
                rng.hand_back(rng.log)
                cpu.rewind(start)
                missed = _missed(cpu.run().status)
                if rng.pending:
                    raise RuntimeError(
                        "a trial made fewer RNG calls than an earlier "
                        "trial that drew the same values"
                    )
                call.after[value] = _chain(rng.log[drawn:], missed)
                misses += missed
        return misses


def _missed(status: ExecutionStatus) -> bool:
    """A finished benchmark's verdict: True iff Step 3 missed."""
    if status is ExecutionStatus.HALTED:  # pragma: no cover
        raise RuntimeError("benchmark ended without a pass/fail verdict")
    return status is ExecutionStatus.PASSED


def _first_trial(
    cpu: CPU, rng: RecordingRandom
) -> Tuple[bool, Optional[int]]:
    """Run a loaded machine's trial one step at a time, watching the log
    of ``rng``, the machine's RNG: a draw is seen by the call that made
    it, never by comparing the RNG's state.

    Returns the verdict and the number of steps before the first step
    that drew from ``rng`` (made a call that grew its log), or ``None``
    if no step did.
    """
    log = rng.log
    drawn = len(log)
    for steps in range(MAX_STEPS):
        status = cpu.step()
        if len(log) != drawn:
            if status is None:
                status = cpu.run().status
            return _missed(status), steps
        if status is not None:
            return _missed(status), None
    raise ExecutionLimitExceeded(
        f"no terminator within {MAX_STEPS} steps (pc={cpu.pc})"
    )


#: One logged RNG call: the method's name, its arguments and its result.
Draw = Tuple[str, Tuple[Any, ...], Any]


class RecordingRandom(random.Random):
    """A :class:`random.Random` that logs each draw made of it.

    Each ``randrange``, ``getrandbits`` or ``random`` call made from
    outside appends ``(name, args, result)`` to :attr:`log`; the
    ``getrandbits`` calls inside a ``randrange`` are not logged.  Every
    other :class:`random.Random` method draws through ``getrandbits`` or
    ``random``, so no draw escapes the log.  After :meth:`hand_back`,
    the next calls return the values handed back, in order, instead of
    drawing, and each must be the call logged with its value.  The
    stream advances only on a live draw, exactly as a
    :class:`random.Random` with the same seed would.
    """

    def __init__(self, seed: int) -> None:
        self.log: List[Draw] = []
        #: Handed-back draws not yet returned, the next one last.
        self.pending: List[Draw] = []
        self._drawing = False
        super().__init__(seed)

    def hand_back(self, draws: Sequence[Draw]) -> None:
        """Return ``draws``' values from the next calls; start a new log."""
        self.pending = list(reversed(draws))
        self.log = []

    def _call(self, name: str, args: Tuple[Any, ...], draw: Callable) -> Any:
        if self._drawing:
            return draw(*args)
        if self.pending:
            logged, logged_args, value = self.pending.pop()
            if (logged, logged_args) != (name, args):
                raise RuntimeError(
                    f"a trial called {name}{args} where an earlier trial "
                    f"that drew the same values called "
                    f"{logged}{logged_args}: it is not a function of its "
                    f"draws"
                )
        else:
            self._drawing = True
            try:
                value = draw(*args)
            finally:
                self._drawing = False
        self.log.append((name, args, value))
        return value

    def randrange(
        self, start: int, stop: Optional[int] = None, step: int = 1
    ) -> int:
        return self._call("randrange", (start, stop, step), super().randrange)

    def getrandbits(self, k: int) -> int:
        return self._call("getrandbits", (k,), super().getrandbits)

    def random(self) -> float:
        return self._call("random", (), super().random)


class _Call:
    """A trie node: the RNG call a behaviour's trials make next, given
    what their earlier calls returned.  ``after`` maps each value the
    call returned to the next node, or to the verdict of a trial that
    made no further call."""

    __slots__ = ("name", "args", "after")

    def __init__(self, name: str, args: Tuple[Any, ...]) -> None:
        self.name = name
        self.args = args
        self.after: Dict[Any, _Trie] = {}


#: A node of a behaviour's draw trie, or its leaf: a trial's verdict.
_Trie = Union[_Call, bool]


def _chain(draws: Sequence[Draw], verdict: bool) -> _Trie:
    """A trie path: ``draws`` in order, ending in ``verdict``."""
    node: _Trie = verdict
    for name, args, value in reversed(draws):
        call = _Call(name, args)
        call.after[value] = node
        node = call
    return node


def table4_cells(
    kinds: Iterable[TLBKind] = (TLBKind.SA, TLBKind.SP, TLBKind.RF),
    vulnerabilities: Optional[Sequence[Vulnerability]] = None,
) -> List[Tuple[TLBKind, Vulnerability]]:
    """The Table 4 work-list, one entry per (design, vulnerability) cell.

    Every cell is independent -- :meth:`SecurityEvaluator.evaluate_vulnerability`
    derives its RNG from the cell's own label -- so this enumeration is the
    unit of sharding for :mod:`repro.runner`, whose ``table4`` experiment
    runs one cell per entry, in this order, under ``run-all``, ``serve``
    and ``python -m repro table4`` alike.
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
