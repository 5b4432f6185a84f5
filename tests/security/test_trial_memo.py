"""The evaluator's trial loop is the plain loop, without its repeats.

``SecurityEvaluator.evaluate_vulnerability`` runs a behaviour's first
trial step by step, watching the row's RNG.  If no step draws, the
trial's outcome counts for every trial; otherwise later trials rewind
a machine checkpointed just before the first drawing step.  The
reference below is the loop without either shortcut: the row-label RNG
and ``run_trial`` called ``trials`` times per behaviour.  Every design
family the evaluator serves must give equal estimates under both, and a
rewound machine must be indistinguishable from a fresh one advanced to
the same step.
"""

import enum
import random
import zlib
from dataclasses import replace

import pytest

from repro.ablations import (
    HIERARCHY_EVALUATION,
    MITIGATION_SPECS,
    study_spec,
    sweep_specs,
)
from repro.ablations.large_pages import _superpage_walker_factory
from repro.isa import CPU, assemble
from repro.model.capacity import ChannelEstimate
from repro.model.extended import invalidation_only_vulnerabilities
from repro.model.table2 import table2_vulnerabilities
from repro.security import (
    BenchmarkLayout,
    EvaluationConfig,
    SecurityEvaluator,
    TLBKind,
    generate,
    layout_for_spec,
    table4_spec,
)
from repro.security import evaluate

TRIALS = 6

#: A few Table 2 rows (an internal collision, flush + reload, prime +
#: probe, a Bernstein row) and one Table 7 row (reload + time).
ROWS = [table2_vulnerabilities()[index] for index in (2, 8, 14, 16)] + [
    invalidation_only_vulnerabilities()[0]
]

KINDS = (TLBKind.SA, TLBKind.SP, TLBKind.RF)


def _designs():
    """(id, evaluation config, spec) for every design family."""
    table4 = EvaluationConfig(trials=TRIALS)
    for kind in KINDS:
        yield f"table4-{kind.value}", table4, table4_spec(kind)
    for spec in sweep_specs():
        yield f"sweep-{spec.label()}", HIERARCHY_EVALUATION, spec
    for rung in MITIGATION_SPECS:
        yield (
            f"mitigation-{rung.key}",
            rung.evaluation_config(TRIALS),
            rung.design(),
        )
    for l1_kind in KINDS:
        for l2_kind in KINDS:
            spec = study_spec(l1_kind, l2_kind)
            yield f"study-{spec.label()}", HIERARCHY_EVALUATION, spec
    large_pages = replace(
        table4, walker_factory=_superpage_walker_factory(BenchmarkLayout())
    )
    for kind in KINDS:
        yield f"largepages-{kind.value}", large_pages, table4_spec(kind)


DESIGNS = list(_designs())


def reference_estimate(evaluator, vulnerability, spec, trials):
    """The plain loop: every trial of both behaviours, one shared RNG."""
    config = evaluator.config
    label = f"{config.seed}/{spec.label()}/{vulnerability.pretty()}"
    rng = random.Random(zlib.crc32(label.encode()))
    layout = layout_for_spec(spec, config.partitioned_primes)
    programs = {
        mapped: assemble(generate(vulnerability, layout, mapped=mapped))
        for mapped in (True, False)
    }
    misses = {True: 0, False: 0}
    for mapped in (True, False):
        for _ in range(trials):
            if evaluator.run_trial(programs[mapped], spec, rng):
                misses[mapped] += 1
    return ChannelEstimate(
        misses_mapped=misses[True],
        misses_unmapped=misses[False],
        trials_per_behaviour=trials,
    )


@pytest.fixture
def trials_run(monkeypatch):
    """Counts the trials the evaluator simulates: each starts as a first
    trial on a fresh machine or from a rewind."""
    count = [0]
    first_trial = evaluate._first_trial
    rewind = CPU.rewind

    def counting_first_trial(*args):
        count[0] += 1
        return first_trial(*args)

    def counting_rewind(self, state):
        count[0] += 1
        rewind(self, state)

    monkeypatch.setattr(evaluate, "_first_trial", counting_first_trial)
    monkeypatch.setattr(CPU, "rewind", counting_rewind)
    return count


class TestMatchesThePlainLoop:
    @pytest.mark.parametrize(
        "config,spec",
        [(config, spec) for _, config, spec in DESIGNS],
        ids=[design_id for design_id, _, _ in DESIGNS],
    )
    def test_equal_estimates(self, config, spec):
        """At one trial (no rewind), two (one rewind) and six."""
        evaluator = SecurityEvaluator(config)
        for trials in (1, 2, TRIALS):
            for vulnerability in ROWS:
                result = evaluator.evaluate_vulnerability(
                    vulnerability, spec, trials
                )
                assert result.estimate == reference_estimate(
                    evaluator, vulnerability, spec, trials
                ), (vulnerability.pretty(), trials)


class TestTrialsRun:
    def test_a_design_without_randomness_runs_each_behaviour_once(
        self, trials_run
    ):
        result = SecurityEvaluator().evaluate_vulnerability(
            ROWS[0], table4_spec(TLBKind.SA), 50
        )
        assert trials_run[0] == 2
        assert result.estimate.trials_per_behaviour == 50

    def test_a_random_fill_design_runs_every_trial(self, trials_run):
        SecurityEvaluator().evaluate_vulnerability(
            ROWS[0], table4_spec(TLBKind.RF), 50
        )
        assert trials_run[0] == 2 * 50

    @pytest.mark.parametrize("trials", [0, -1])
    def test_a_non_positive_count_is_rejected_before_any_machine(
        self, monkeypatch, trials
    ):
        built = []
        monkeypatch.setattr(
            SecurityEvaluator, "_machine", lambda *args: built.append(args)
        )
        with pytest.raises(ValueError, match="at least one trial"):
            SecurityEvaluator().evaluate_vulnerability(
                ROWS[0], table4_spec(TLBKind.RF), trials
            )
        assert built == []


def dump(root):
    """Every object reachable from ``root``, as nested plain values.

    Attributes are walked by name and containers in order.  An object
    met again dumps as a reference to the path where it first appeared,
    so aliasing must match too: the fast index, the SP partition views
    and the victim queues pointing at live entries, the CSR hooks at
    their CPU, the adapter chain at its levels.  RNGs dump as a
    placeholder: the row's stream is the caller's, not the machine's.
    """
    seen = {}

    def walk(obj, path):
        if obj is None or isinstance(obj, (bool, int, float, str, bytes)):
            return obj
        if isinstance(obj, enum.Enum):
            return repr(obj)
        if isinstance(obj, random.Random):
            return "<rng>"
        if isinstance(obj, type):
            return obj.__qualname__
        if isinstance(obj, (set, frozenset)):
            return type(obj).__name__, sorted(obj)
        if id(obj) in seen:
            return "ref", seen[id(obj)]
        seen[id(obj)] = path
        if isinstance(obj, (list, tuple)):
            return type(obj).__name__, [
                walk(item, f"{path}[{index}]")
                for index, item in enumerate(obj)
            ]
        if isinstance(obj, dict):
            return type(obj).__name__, [
                (walk(key, f"{path}<key>"), walk(value, f"{path}[{key!r}]"))
                for key, value in obj.items()
            ]
        if hasattr(obj, "__self__") and hasattr(obj, "__func__"):
            return "method", obj.__func__.__qualname__, walk(
                obj.__self__, f"{path}.__self__"
            )
        if hasattr(obj, "__code__"):
            return "function", obj.__qualname__, [
                walk(cell.cell_contents, f"{path}<cell{index}>")
                for index, cell in enumerate(obj.__closure__ or ())
            ]
        names = set(getattr(obj, "__dict__", ()))
        for cls in type(obj).__mro__:
            slots = getattr(cls, "__slots__", ())
            names.update([slots] if isinstance(slots, str) else slots)
        names.discard("__dict__")
        names.discard("__weakref__")
        return type(obj).__qualname__, [
            (name, walk(getattr(obj, name), f"{path}.{name}"))
            for name in sorted(names)
        ]

    return walk(root, "cpu")


def advanced(evaluator, program, spec, rng, steps):
    """A fresh machine with ``program`` loaded, ``steps`` steps in."""
    cpu = evaluator._machine(program, spec, rng)
    for _ in range(steps):
        assert cpu.step() is None
    return cpu


class TestRewind:
    """A rewound machine equals a fresh one advanced to the same step."""

    #: Prime + Probe: on a design with a Random-Fill level its first
    #: draw comes 21 steps in, after the longest draw-free prefix of
    #: :data:`ROWS`.
    ROW = ROWS[2]

    @pytest.mark.parametrize("loaded", [False, True], ids=["prefix", "loaded"])
    @pytest.mark.parametrize(
        "config,spec",
        [(config, spec) for _, config, spec in DESIGNS],
        ids=[design_id for design_id, _, _ in DESIGNS],
    )
    def test_rewound_state_equals_a_fresh_machine(self, config, spec, loaded):
        """Checkpointed before the first drawing step (halfway through a
        trial that never draws), or just after loading, before the
        program programs its CSRs."""
        evaluator = SecurityEvaluator(config)
        layout = layout_for_spec(spec, config.partitioned_primes)
        program = assemble(generate(self.ROW, layout, mapped=True))
        rng = random.Random(0)
        probe = evaluator._machine(program, spec, rng)
        _, prefix = evaluate._first_trial(probe, rng)
        if loaded:
            prefix = 0
        elif prefix is None:
            prefix = probe.instructions_retired // 2
        cpu = advanced(evaluator, program, spec, rng, prefix)
        start = cpu.checkpoint()
        for _ in range(2):
            cpu.run()
            cpu.rewind(start)
        fresh = advanced(evaluator, program, spec, random.Random(0), prefix)
        assert dump(cpu) == dump(fresh)
        for level in getattr(cpu.tlb, "levels", (cpu.tlb,)):
            assert level.audit() == []
