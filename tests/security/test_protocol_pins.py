"""Pinned estimates: one row of every protocol that runs the evaluator.

Each security table derives its RNG from the row label
``seed/design/row`` and its benchmark geometry from the design's last
level, so a drifted label, seed or layout changes these miss counts.
The values (misses with the secret mapped / unmapped, 30 trials per
behaviour) were captured from the committed protocols; a failure here
means the full-size artifacts in ``results/`` would change too.
"""

from __future__ import annotations

import pytest

from repro.ablations import (
    HIERARCHY_EVALUATION,
    run_large_page_cell,
    run_mitigation_cell,
    study_spec,
    sweep_specs,
)
from repro.model.table2 import table2_vulnerabilities
from repro.security import (
    EvaluationConfig,
    SecurityEvaluator,
    TLBKind,
    table4_spec,
)

TRIALS = 30
ROWS = table2_vulnerabilities()
PRIME_PROBE = 14  # A_d ~> V_u ~> A_d (slow)


def table4(kind):
    def run(index):
        evaluator = SecurityEvaluator(EvaluationConfig(trials=TRIALS))
        return evaluator.evaluate_vulnerability(
            ROWS[index], table4_spec(kind)
        ).estimate

    return run


def mitigation(key):
    return lambda index: run_mitigation_cell(key, index, TRIALS).estimate


def large_page(index):
    return run_large_page_cell("base", index, trials=TRIALS).estimate


def hierarchy(design):
    def run(index):
        evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
        return evaluator.evaluate_vulnerability(
            ROWS[index], design(), TRIALS
        ).estimate

    return run


def sweep_design(label):
    return lambda: next(s for s in sweep_specs() if s.label() == label)


@pytest.mark.parametrize(
    "run,index,misses",
    [
        pytest.param(table4(TLBKind.RF), PRIME_PROBE, (7, 6), id="table4-RF"),
        pytest.param(table4(TLBKind.SP), PRIME_PROBE, (0, 0), id="table4-SP"),
        pytest.param(mitigation("fa"), PRIME_PROBE, (30, 30), id="fa"),
        pytest.param(mitigation("flush"), PRIME_PROBE, (30, 30), id="flush"),
        pytest.param(large_page, PRIME_PROBE, (30, 30), id="largepages"),
        pytest.param(
            hierarchy(lambda: study_spec(TLBKind.RF, TLBKind.SA)),
            0,
            (9, 21),
            id="hierarchy-RF/SA",
        ),
        pytest.param(
            hierarchy(sweep_design("RF+RF+pwc")),
            PRIME_PROBE,
            (8, 9),
            id="sweep-RF+RF+pwc",
        ),
        pytest.param(
            hierarchy(sweep_design("SA+SP")),
            PRIME_PROBE,
            (30, 0),
            id="sweep-SA+SP",
        ),
    ],
)
def test_protocol_estimate_is_pinned(run, index, misses):
    estimate = run(index)
    assert estimate.trials_per_behaviour == TRIALS
    assert (estimate.misses_mapped, estimate.misses_unmapped) == misses
