"""The evaluator's trial loop is the plain loop, without its repeats.

``SecurityEvaluator.channel_estimate`` runs a behaviour's first trial
step by step, logging the calls made of the row's recording RNG.  If no
step draws, the trial's outcome counts for every trial; otherwise the
first trial's calls seed a trie keyed by what each call returned, later
trials walk it by making those calls, and only a trial that draws a
value the trie has not seen rewinds a machine checkpointed just before
the first drawing step.  The reference below is the loop without any of
this: the row-label RNG and ``run_trial`` called ``trials`` times per
behaviour.  Every design family the evaluator serves must give equal
estimates under both, the evaluator must simulate exactly one trial per
distinct draw sequence, and a rewound machine must be indistinguishable
from a fresh one advanced to the same step.
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
from repro.security.evaluate import RecordingRandom
from repro.tlb.rf import RandomFillEngine

TRIALS = 6

#: Enough trials that a Random-Fill design repeats draw sequences.
REPEATING_TRIALS = 40

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


class DrawLog(random.Random):
    """The plain RNG, logging what each ``randrange`` call returned: the
    Random-Fill engine's only way to draw."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def randrange(self, *args):
        value = super().randrange(*args)
        self.draws.append((args, value))
        return value


def plain_loop(evaluator, vulnerability, spec, trials):
    """The plain loop: every trial of both behaviours, one shared RNG.

    Returns the estimate and, per behaviour, the set of distinct
    ``randrange`` sequences its trials drew."""
    config = evaluator.config
    label = f"{config.seed}/{spec.label()}/{vulnerability.pretty()}"
    rng = DrawLog(zlib.crc32(label.encode()))
    layout = layout_for_spec(spec, config.partitioned_primes)
    programs = {
        mapped: assemble(generate(vulnerability, layout, mapped=mapped))
        for mapped in (True, False)
    }
    misses = {True: 0, False: 0}
    sequences = {True: set(), False: set()}
    for mapped in (True, False):
        for _ in range(trials):
            drawn = len(rng.draws)
            if evaluator.run_trial(programs[mapped], spec, rng):
                misses[mapped] += 1
            sequences[mapped].add(tuple(rng.draws[drawn:]))
    estimate = ChannelEstimate(
        misses_mapped=misses[True],
        misses_unmapped=misses[False],
        trials_per_behaviour=trials,
    )
    return estimate, sequences


def reference_estimate(evaluator, vulnerability, spec, trials):
    return plain_loop(evaluator, vulnerability, spec, trials)[0]


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


RF_DESIGNS = [
    design
    for design in DESIGNS
    if any(level.kind == TLBKind.RF.value for level in design[2].levels)
]


def secure_page_by_random(self, sbase, ssize):
    return sbase + int(self._rng.random() * ssize)


def randomized_set_page_by_random(self, vpn, sbase, ssize, nsets):
    span = min(ssize, nsets)
    offset = int(self._rng.random() * span)
    return (vpn // nsets) * nsets + (sbase % nsets + offset) % nsets


def secure_page_by_choice(self, sbase, ssize):
    return self._rng.choice(range(sbase, sbase + ssize))


def randomized_set_page_by_choice(self, vpn, sbase, ssize, nsets):
    offset = self._rng.choice(range(min(ssize, nsets)))
    return (vpn // nsets) * nsets + (sbase % nsets + offset) % nsets


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

    @pytest.mark.parametrize(
        "config,spec",
        [(config, spec) for _, config, spec in RF_DESIGNS],
        ids=[design_id for design_id, _, _ in RF_DESIGNS],
    )
    def test_equal_estimates_where_draw_sequences_repeat(self, config, spec):
        """At a trial count where later trials walk the draw trie to a
        leaf instead of running."""
        evaluator = SecurityEvaluator(config)
        repeated = 0
        for vulnerability in ROWS:
            result = evaluator.evaluate_vulnerability(
                vulnerability, spec, REPEATING_TRIALS
            )
            reference, sequences = plain_loop(
                evaluator, vulnerability, spec, REPEATING_TRIALS
            )
            assert result.estimate == reference, vulnerability.pretty()
            repeated += sum(
                REPEATING_TRIALS - len(drawn) for drawn in sequences.values()
            )
        assert repeated > 0

    @pytest.mark.parametrize(
        "secure_page,randomized_set_page",
        [
            (secure_page_by_random, randomized_set_page_by_random),
            (secure_page_by_choice, randomized_set_page_by_choice),
        ],
        ids=["random", "choice"],
    )
    @pytest.mark.parametrize(
        "config,spec",
        [(config, spec) for _, config, spec in RF_DESIGNS[:2]],
        ids=[design_id for design_id, _, _ in RF_DESIGNS[:2]],
    )
    def test_an_engine_drawing_through_other_methods(
        self, monkeypatch, config, spec, secure_page, randomized_set_page
    ):
        """``random()`` and ``choice()`` (which draws through
        ``getrandbits``) key the trie as ``randrange`` does."""
        monkeypatch.setattr(RandomFillEngine, "secure_page", secure_page)
        monkeypatch.setattr(
            RandomFillEngine, "randomized_set_page", randomized_set_page
        )
        evaluator = SecurityEvaluator(config)
        for vulnerability in ROWS:
            result = evaluator.evaluate_vulnerability(
                vulnerability, spec, REPEATING_TRIALS
            )
            assert result.estimate == reference_estimate(
                evaluator, vulnerability, spec, REPEATING_TRIALS
            ), vulnerability.pretty()


class TestTrialsRun:
    def test_a_design_without_randomness_runs_each_behaviour_once(
        self, trials_run
    ):
        result = SecurityEvaluator().evaluate_vulnerability(
            ROWS[0], table4_spec(TLBKind.SA), 50
        )
        assert trials_run[0] == 2
        assert result.estimate.trials_per_behaviour == 50

    def test_a_random_fill_design_runs_each_draw_sequence_once(
        self, trials_run
    ):
        evaluator = SecurityEvaluator()
        spec = table4_spec(TLBKind.RF)
        _, sequences = plain_loop(evaluator, ROWS[0], spec, 50)
        distinct = sum(len(drawn) for drawn in sequences.values())
        assert distinct < 2 * 50
        evaluator.evaluate_vulnerability(ROWS[0], spec, 50)
        assert trials_run[0] == distinct

    @pytest.mark.parametrize("trials", [0, -1])
    def test_a_trial_count_below_one_is_rejected_before_any_machine(
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
        rng = RecordingRandom(0)
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
        fresh = advanced(evaluator, program, spec, RecordingRandom(0), prefix)
        assert dump(cpu) == dump(fresh)
        for level in getattr(cpu.tlb, "levels", (cpu.tlb,)):
            assert level.audit() == []


class TestRecordingRandom:
    def calls(self, rng):
        values = [
            rng.randrange(5),
            rng.random(),
            rng.choice("abcdefg"),
            rng.getrandbits(7),
            rng.uniform(2.0, 3.0),
            rng.randint(1, 1000),
        ]
        items = list(range(10))
        rng.shuffle(items)
        return values, items

    def test_draws_the_plain_stream(self):
        rng, plain = RecordingRandom(11), random.Random(11)
        values, _ = self.calls(rng)
        assert (values, _) == self.calls(plain)
        assert rng.getstate() == plain.getstate()
        # One entry per top-level call: the getrandbits calls inside a
        # randrange (and so a randint) are not logged; choice and
        # shuffle draw through getrandbits, uniform through random.
        names = [name for name, _, _ in rng.log]
        assert names[:3] == ["randrange", "random", "getrandbits"]
        assert names.count("randrange") == 2
        assert names.count("random") == 2
        assert rng.log[0] == ("randrange", (5, None, 1), values[0])

    def test_handed_back_values_are_returned_without_drawing(self):
        rng = RecordingRandom(3)
        first = [rng.randrange(100) for _ in range(3)]
        state = rng.getstate()
        rng.hand_back(rng.log)
        assert [rng.randrange(100) for _ in range(3)] == first
        assert rng.pending == [] and rng.getstate() == state
        assert [value for _, _, value in rng.log] == first
        plain = random.Random(3)
        for _ in range(3):
            plain.randrange(100)
        assert rng.randrange(100) == plain.randrange(100)

    def test_a_different_call_is_refused(self):
        rng = RecordingRandom(3)
        rng.randrange(100)
        rng.hand_back(rng.log)
        with pytest.raises(RuntimeError, match="not a function of its draws"):
            rng.randrange(99)
