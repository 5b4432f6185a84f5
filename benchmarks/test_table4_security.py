"""Benchmark: regenerate Table 4 (security evaluation of SA/SP/RF).

Runs the 24-vulnerability micro-benchmark harness for each design.  The
paper uses 500 mapped + 500 unmapped trials per cell; the benchmark run
uses a reduced trial count per repetition (the full protocol is a
parameter of :class:`repro.security.EvaluationConfig`), which is plenty to
reproduce every defended/vulnerable verdict: the SA and SP designs are
deterministic and the RF probabilities are estimated within a few percent.
"""

import pytest

from repro.model.table2 import table2_vulnerabilities
from repro.security import (
    EvaluationConfig,
    SecurityEvaluator,
    TLBKind,
    format_table4,
    table4_spec,
)

TRIALS = 40


@pytest.fixture(scope="module")
def evaluator():
    return SecurityEvaluator(EvaluationConfig(trials=TRIALS))


@pytest.mark.parametrize(
    "kind,expected_defended",
    [(TLBKind.SA, 10), (TLBKind.SP, 14), (TLBKind.RF, 24)],
    ids=lambda value: str(value),
)
def test_table4_per_design(benchmark, evaluator, kind, expected_defended):
    def run():
        # One design's Table 4 cells, as the registered experiment runs them.
        spec = table4_spec(kind)
        return [
            evaluator.evaluate_vulnerability(vulnerability, spec)
            for vulnerability in table2_vulnerabilities()
        ]

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    defended = sum(1 for result in results if result.defended)
    assert defended == expected_defended
    benchmark.extra_info["defended"] = f"{defended}/24"
    print()
    print(format_table4({kind: results}))
