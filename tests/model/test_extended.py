"""Tests for the Appendix B extended model (Tables 6 and 7)."""


from repro.model.effectiveness import analyze
from repro.model.extended import (
    derive_extended_vulnerabilities,
    invalidation_only_vulnerabilities,
    strategy_label,
    summarize_by_strategy,
)
from repro.model.patterns import Observation, ThreeStepPattern
from repro.model.states import (
    A_A,
    A_A_INV,
    A_D,
    V_A_INV,
    V_U,
    V_U_INV,
)
from repro.model.table2 import table2_vulnerabilities


def vuln(step1, step2, step3):
    return analyze(ThreeStepPattern((step1, step2, step3)))


class TestExtendedDerivation:
    def test_extended_includes_all_base_rows(self):
        extended = set(derive_extended_vulnerabilities())
        for base_row in table2_vulnerabilities():
            assert base_row in extended

    def test_invalidation_rows_all_use_extended_states(self):
        for vulnerability in invalidation_only_vulnerabilities():
            assert vulnerability.pattern.uses_extended_states()

    def test_extended_only_count_is_stable(self):
        # The paper's Table 7 lists 50 additional rows; our mechanized
        # derivation, which applies the alias dedup of rule 5 uniformly,
        # finds 48.  The discrepancy is documented in EXPERIMENTS.md.
        assert len(invalidation_only_vulnerabilities()) == 48

    def test_rows_are_derived_once_and_handed_out_as_fresh_lists(self):
        first = invalidation_only_vulnerabilities()
        first.clear()
        rows = invalidation_only_vulnerabilities()
        assert rows == [
            vulnerability
            for vulnerability in derive_extended_vulnerabilities()
            if vulnerability.pattern.uses_extended_states()
        ]
        assert all(
            a is b for a, b in zip(rows, invalidation_only_vulnerabilities())
        )

    def test_base_and_extended_partition(self):
        extended = derive_extended_vulnerabilities()
        base = [v for v in extended if not v.pattern.uses_extended_states()]
        assert len(base) == 24
        assert len(extended) == 24 + 48


class TestExemplarRows:
    """Spot-check the named rows Appendix B discusses in prose."""

    def test_flush_time(self):
        # V_u ~> A_a^inv ~> V_u (slow): invalidating a evicts the secret
        # translation only if u == a.
        vulnerability = vuln(V_U, A_A_INV, V_U)
        assert vulnerability is not None
        assert vulnerability.observation is Observation.SLOW
        assert strategy_label(vulnerability) == "TLB Flush + Time"

    def test_flush_time_internal(self):
        vulnerability = vuln(V_U, V_A_INV, V_U)
        assert vulnerability is not None
        assert strategy_label(vulnerability) == "TLB Flush + Time"

    def test_flush_probe(self):
        # A_a ~> V_u^inv ~> A_a (slow): the victim's secret invalidation
        # knocks out the attacker's primed entry only if u == a.
        vulnerability = vuln(A_A, V_U_INV, A_A)
        assert vulnerability is not None
        assert vulnerability.observation is Observation.SLOW
        assert strategy_label(vulnerability) == "TLB Flush + Probe"

    def test_flush_flush(self):
        # A_a^inv ~> V_u ~> A_a^inv (slow): the second invalidation is slow
        # only if the victim re-installed a (i.e. u == a).
        vulnerability = vuln(A_A_INV, V_U, A_A_INV)
        assert vulnerability is not None
        assert vulnerability.observation is Observation.SLOW
        assert strategy_label(vulnerability) == "TLB Flush + Flush"

    def test_reload_time(self):
        # V_u^inv ~> A_a ~> V_u (fast): after invalidating u, a fast reload
        # means the attacker's access to a restored it, so u == a.
        vulnerability = vuln(V_U_INV, A_A, V_U)
        assert vulnerability is not None
        assert vulnerability.observation is Observation.FAST
        assert strategy_label(vulnerability) == "TLB Reload + Time"

    def test_prime_probe_invalidation(self):
        # A_d ~> V_u ~> A_d^inv (fast): the invalidation probe is fast when
        # the victim's access evicted d (Table 7's Prime + Probe
        # Invalidation family -- note fast = absent for invalidations).
        from repro.model.states import A_D_INV

        vulnerability = vuln(A_D, V_U, A_D_INV)
        assert vulnerability is not None
        assert vulnerability.observation is Observation.FAST
        assert strategy_label(vulnerability) == "TLB Prime + Probe Invalidation"


class TestStrategyLabels:
    def test_base_rows_keep_their_table2_names(self):
        for vulnerability in table2_vulnerabilities():
            assert strategy_label(vulnerability) == vulnerability.strategy.value

    def test_every_extended_row_gets_a_label(self):
        for vulnerability in invalidation_only_vulnerabilities():
            label = strategy_label(vulnerability)
            assert label.startswith("TLB ")

    def test_summary_covers_all_rows(self):
        summary = summarize_by_strategy()
        assert sum(summary.values()) == len(invalidation_only_vulnerabilities())
        assert "TLB Flush + Probe" in summary
        assert "TLB Flush + Time" in summary
        assert "TLB Flush + Flush" in summary
        assert "TLB Reload + Time" in summary


class TestExtendedSemantics:
    def test_targeted_invalidation_timing(self):
        # Invalidating a present entry is slow; invalidating an absent one
        # is fast (the Appendix B performance-optimization semantics).
        from repro.model.effectiveness import Relation, step3_timings

        flush_flush = ThreeStepPattern((A_A_INV, V_U, A_A_INV))
        assert step3_timings(flush_flush, Relation.EQ_A) == frozenset(
            {Observation.SLOW}
        )
        assert step3_timings(flush_flush, Relation.DIFF) == frozenset(
            {Observation.FAST}
        )

    def test_secret_invalidation_counts_as_secret_step(self):
        assert V_U_INV.is_secret
        assert not V_U_INV.is_known


class TestExtendedDeterminism:
    def test_informative_observations_are_deterministic(self):
        # Mirror of the base-model rule-7 property over all 72 rows.
        from repro.model.effectiveness import (
            MAPPED_RELATIONS,
            applicable_relations,
            step3_timings,
        )

        for vulnerability in derive_extended_vulnerabilities():
            pattern = vulnerability.pattern
            consistent = {
                relation
                for relation in applicable_relations(pattern)
                if vulnerability.observation in step3_timings(pattern, relation)
            }
            assert consistent
            assert consistent <= MAPPED_RELATIONS
            for relation in consistent:
                assert step3_timings(pattern, relation) == frozenset(
                    {vulnerability.observation}
                )

    def test_derivation_is_stable(self):
        first = derive_extended_vulnerabilities()
        second = derive_extended_vulnerabilities()
        assert first == second
