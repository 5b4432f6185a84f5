"""Tests for the Section 2.3 mitigation ladder."""

import pytest

from repro.ablations import format_mitigation_ladder
from repro.model.patterns import Strategy
from repro.runner import run_experiment

TRIALS = 25


@pytest.fixture(scope="module")
def ladder():
    """The rungs in presentation order: ASIDs, flush on switch, fully
    associative, SP, RF."""
    return run_experiment("mitigations", {"mitigation_trials": TRIALS})


@pytest.fixture(scope="module")
def asid_baseline(ladder):
    return ladder[0]


@pytest.fixture(scope="module")
def flush_on_switch(ladder):
    return ladder[1]


@pytest.fixture(scope="module")
def fully_associative(ladder):
    return ladder[2]


class TestLadderCounts:
    """The paper's defence counts for every pre-existing mitigation."""

    def test_asid_baseline_defends_10(self, asid_baseline):
        assert asid_baseline.defended == 10
        assert asid_baseline.matches_paper

    def test_flush_on_switch_defends_14(self, flush_on_switch):
        assert flush_on_switch.defended == 14
        assert flush_on_switch.matches_paper

    def test_fully_associative_defends_18(self, fully_associative):
        assert fully_associative.defended == 18
        assert fully_associative.matches_paper


class TestLadderDetails:
    def test_flush_on_switch_adds_exactly_the_em_rows(
        self, asid_baseline, flush_on_switch
    ):
        baseline = {
            result.vulnerability: result.defended
            for result in asid_baseline.results
        }
        flushed = flush_on_switch.results
        gained = [
            result.vulnerability
            for result in flushed
            if result.defended and not baseline[result.vulnerability]
        ]
        assert len(gained) == 4
        assert {v.strategy for v in gained} == {
            Strategy.EVICT_TIME,
            Strategy.PRIME_PROBE,
        }

    def test_fully_associative_leaves_only_internal_collision(
        self, fully_associative
    ):
        results = fully_associative.results
        vulnerable = [r.vulnerability for r in results if not r.defended]
        assert len(vulnerable) == 6
        assert {v.strategy for v in vulnerable} == {Strategy.INTERNAL_COLLISION}

    def test_full_ladder_matches_paper(self, ladder):
        assert [result.defended for result in ladder] == [10, 14, 18, 14, 24]
        assert all(result.matches_paper for result in ladder)

    def test_format_ladder(self, asid_baseline):
        text = format_mitigation_ladder([asid_baseline])
        assert "ASID" in text and "/24" in text
