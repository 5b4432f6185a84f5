"""Benchmark: the Section 2.3 mitigation ladder and the extensions.

Regenerates the paper's defence-count claims for every pre-existing
mitigation (ASIDs 10/24, Sanctum/SGX flush 14/24, fully associative
18/24) next to the paper's designs, plus this reproduction's extension
experiments: the large-page software mitigation and the two-level
hierarchy study.
"""

from repro.ablations import (
    format_hierarchy_results,
    format_large_page_comparison,
    format_mitigation_ladder,
)
from repro.runner import run_experiment

TRIALS = 30


def test_mitigation_ladder(benchmark):
    ladder = benchmark.pedantic(
        run_experiment, args=("mitigations", {"mitigation_trials": TRIALS}),
        rounds=1, iterations=1,
    )
    print()
    print(format_mitigation_ladder(ladder))
    assert [result.defended for result in ladder] == [10, 14, 18, 14, 24]


def test_large_page_mitigation(benchmark):
    result = benchmark.pedantic(
        run_experiment, args=("largepages", {"largepage_trials": TRIALS}),
        rounds=1, iterations=1,
    )
    print()
    print(format_large_page_comparison(result, 10, 13))
    assert result.base_defended == 24
    assert result.extended_defended == 48


def test_hierarchy_study(benchmark):
    results = benchmark.pedantic(
        run_experiment, args=("hierarchy", {"hierarchy_trials": TRIALS}),
        rounds=1, iterations=1,
    )
    print()
    print(format_hierarchy_results(results))
    defended = [result.defended for result in results]
    assert defended[1] < 24  # RF L1 alone is insufficient
    assert defended[2] == 24  # RF at both levels
