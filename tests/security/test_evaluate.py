"""Tests for the Table 4 simulation harness (reduced trial counts)."""

import pytest

from repro.model.patterns import Observation, ThreeStepPattern, Vulnerability
from repro.model.states import A_D, V_A, V_U
from repro.model.table2 import table2_vulnerabilities
from repro.runner import run_experiment
from repro.security import (
    EvaluationConfig,
    SecurityEvaluator,
    TLBKind,
    defended_counts,
    format_table4,
    table4_spec,
)

RF = table4_spec(TLBKind.RF)

TRIALS = 40


@pytest.fixture(scope="module")
def evaluator():
    return SecurityEvaluator(EvaluationConfig(trials=TRIALS))


@pytest.fixture(scope="module")
def table():
    return run_experiment("table4", {"table4_trials": TRIALS})


def find(results, pretty):
    for result in results:
        if result.vulnerability.pattern.pretty() == pretty:
            return result
    raise KeyError(pretty)


class TestHeadline:
    """The paper's central security result, measured in simulation."""

    def test_defended_counts_match_paper(self, table):
        counts = defended_counts(table)
        assert counts[TLBKind.SA] == 10
        assert counts[TLBKind.SP] == 14
        assert counts[TLBKind.RF] == 24

    def test_measured_matches_theory_on_defence(self, evaluator, table):
        # Simulation and closed-form analysis agree on every defended row.
        for kind, results in table.items():
            for result in results:
                assert result.defended == result.theory_defends, (
                    f"{kind} {result.vulnerability.pretty()}"
                )


class TestSASimulation:
    def test_prime_probe_fully_leaks(self, table):
        result = find(table[TLBKind.SA], "A_d ~> V_u ~> A_d")
        assert result.estimate.misses_mapped == TRIALS
        assert result.estimate.misses_unmapped == 0
        assert result.estimate.capacity == pytest.approx(1.0)

    def test_internal_collision_leaks_via_hits(self, table):
        result = find(table[TLBKind.SA], "A_d ~> V_u ~> V_a")
        assert result.estimate.misses_mapped == 0
        assert result.estimate.misses_unmapped == TRIALS

    def test_flush_reload_is_defended_by_asids(self, table):
        result = find(table[TLBKind.SA], "A_inv ~> V_u ~> A_a")
        assert result.estimate.misses_mapped == TRIALS
        assert result.estimate.misses_unmapped == TRIALS
        assert result.defended


class TestSPSimulation:
    def test_prime_probe_blocked_by_partitioning(self, table):
        result = find(table[TLBKind.SP], "A_d ~> V_u ~> A_d")
        assert result.estimate.misses_mapped == 0
        assert result.estimate.misses_unmapped == 0
        assert result.defended

    def test_evict_time_blocked(self, table):
        result = find(table[TLBKind.SP], "V_u ~> A_d ~> V_u")
        assert result.estimate.misses_mapped == 0
        assert result.defended

    def test_bernstein_still_leaks(self, table):
        result = find(table[TLBKind.SP], "V_d ~> V_u ~> V_d")
        assert not result.defended
        assert result.estimate.capacity == pytest.approx(1.0)


class TestRFSimulation:
    def test_all_rows_near_zero_capacity(self, table):
        for result in table[TLBKind.RF]:
            assert result.estimate.capacity < 0.06, result.vulnerability.pretty()

    def test_prime_probe_probability_tracks_theory(self, evaluator):
        # The paper's 0.33: the random fill lands in the primed set with
        # probability 1/sec_range.  Use more trials for a tight estimate.
        vulnerability = Vulnerability(
            ThreeStepPattern((A_D, V_U, A_D)), Observation.SLOW
        )
        result = evaluator.evaluate_vulnerability(
            vulnerability, RF, trials=300
        )
        assert result.estimate.p1 == pytest.approx(1 / 3, abs=0.08)
        assert result.estimate.p2 == pytest.approx(1 / 3, abs=0.08)

    def test_internal_collision_probability_tracks_theory(self, evaluator):
        vulnerability = Vulnerability(
            ThreeStepPattern((A_D, V_U, V_A)), Observation.FAST
        )
        result = evaluator.evaluate_vulnerability(
            vulnerability, RF, trials=300
        )
        assert result.estimate.p1 == pytest.approx(2 / 3, abs=0.08)
        assert result.estimate.p2 == pytest.approx(2 / 3, abs=0.08)

    def test_rf_randomization_varies_across_trials(self, evaluator):
        vulnerability = Vulnerability(
            ThreeStepPattern((A_D, V_U, A_D)), Observation.SLOW
        )
        result = evaluator.evaluate_vulnerability(
            vulnerability, RF, trials=60
        )
        # Neither all-miss nor all-hit: the channel is genuinely noisy.
        assert 0 < result.estimate.misses_mapped < 60


class TestHarnessMechanics:
    def test_results_are_reproducible(self, evaluator):
        vulnerability = table2_vulnerabilities()[0]
        first = evaluator.evaluate_vulnerability(vulnerability, RF, trials=25)
        second = evaluator.evaluate_vulnerability(vulnerability, RF, trials=25)
        assert first.estimate == second.estimate

    def test_deterministic_designs_yield_all_or_nothing(self, table):
        for kind in (TLBKind.SA, TLBKind.SP):
            for result in table[kind]:
                assert result.estimate.misses_mapped in (0, TRIALS)
                assert result.estimate.misses_unmapped in (0, TRIALS)

    def test_format_table4_renders_all_rows(self, table):
        text = format_table4(table)
        assert text.count("~>") >= 72
        assert "defended rows: SA=10/24, SP=14/24, RF=24/24" in text

    def test_table4_covers_table2_on_each_design(self, table):
        for results in table.values():
            assert len(results) == 24
