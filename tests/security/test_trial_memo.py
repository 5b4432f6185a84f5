"""A trial that draws no randomness runs once: equal to the plain loop.

``SecurityEvaluator.evaluate_vulnerability`` runs a behaviour's first
trial and, if it left the row's RNG untouched, counts its outcome for
every trial.  The reference below is the loop without that shortcut:
the row-label RNG and ``run_trial`` called ``trials`` times per
behaviour.  Every design family the evaluator serves must give equal
estimates under both.
"""

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
from repro.isa import assemble
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


class CountingEvaluator(SecurityEvaluator):
    """Counts the trials the evaluator actually simulates."""

    def __init__(self, config=EvaluationConfig()):
        super().__init__(config)
        self.trials_run = 0

    def run_trial(self, *args, **kwargs):
        self.trials_run += 1
        return super().run_trial(*args, **kwargs)


class TestMatchesThePlainLoop:
    @pytest.mark.parametrize(
        "config,spec",
        [(config, spec) for _, config, spec in DESIGNS],
        ids=[design_id for design_id, _, _ in DESIGNS],
    )
    def test_equal_estimates(self, config, spec):
        evaluator = SecurityEvaluator(config)
        for vulnerability in ROWS:
            result = evaluator.evaluate_vulnerability(
                vulnerability, spec, TRIALS
            )
            assert result.estimate == reference_estimate(
                evaluator, vulnerability, spec, TRIALS
            ), vulnerability.pretty()


class TestTrialsRun:
    def test_a_design_without_randomness_runs_each_behaviour_once(self):
        evaluator = CountingEvaluator()
        result = evaluator.evaluate_vulnerability(
            ROWS[0], table4_spec(TLBKind.SA), 50
        )
        assert evaluator.trials_run == 2
        assert result.estimate.trials_per_behaviour == 50

    def test_a_random_fill_design_runs_every_trial(self):
        evaluator = CountingEvaluator()
        evaluator.evaluate_vulnerability(ROWS[0], table4_spec(TLBKind.RF), 50)
        assert evaluator.trials_run == 2 * 50
