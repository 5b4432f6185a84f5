"""The static hierarchy security certifier (repro.analysis.certify).

Three layers of assurance, mirroring the module's claims:

* unit tests of the lifted abstract machine (per-level fill disciplines,
  noise-site bookkeeping, LRU promotion);
* differential pins: the lifted machine against the real generated
  benchmarks running on the ISA CPU (deterministic designs must agree
  exactly, trial-for-trial), and certificates against the *committed*
  sweep matrix and Table 4 counts;
* certificate/schema contracts (evidence fields, PWC neutrality, the
  refill-channel variant).
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.certify import (
    CERTIFICATE_SCHEMA,
    RULE_DETERMINISM,
    RULE_INDISTINGUISHABLE,
    RULE_NOISY_CORE_MASKED,
    RULE_NOISY_CORE_UNMASKED,
    _LevelState,
    analyze_hypothesis,
    certify,
    format_certificate,
)
from repro.model.table2 import table2_vulnerabilities
from repro.security.benchgen import layout_for_spec
from repro.tlb.spec import HierarchySpec, LevelSpec

RESULTS = Path(__file__).resolve().parents[2] / "results"

VICTIM = 2


def spec_of(*kinds, pwc=False, victim_ways=None):
    from repro.tlb.spec import PWCSpec

    levels = []
    for index, kind in enumerate(kinds):
        levels.append(
            LevelSpec(
                kind=kind,
                sets=4 if index == 0 else 16,
                ways=8,
                victim_ways=victim_ways if kind == "SP" else None,
            )
        )
    return HierarchySpec(
        levels=tuple(levels), pwc=PWCSpec() if pwc else None
    )


class TestLevelState:
    def level(self, kind, **overrides):
        spec = LevelSpec(kind=kind, sets=4, ways=2, **overrides)
        return _LevelState(spec, victim_pid=VICTIM)

    def test_lru_promotion_and_eviction(self):
        level = self.level("SA")
        level.fill(1, 0x10, sec=False)
        level.fill(1, 0x14, sec=False)  # same set (4 sets), now full
        assert level.hit(1, 0x10)  # promote 0x10 to MRU
        level.fill(1, 0x18, sec=False)  # evicts LRU = 0x14
        assert level.resident(1, 0x10)
        assert not level.resident(1, 0x14)

    def test_sp_fills_confined_hits_shared(self):
        level = self.level("SP")  # victim_ways defaults to ways//2 = 1
        level.fill(VICTIM, 0x10, sec=False)
        level.fill(1, 0x14, sec=False)
        # Each partition holds one way: a second victim fill evicts only
        # the victim's own entry, never the attacker's.
        level.fill(VICTIM, 0x18, sec=False)
        assert not level.resident(VICTIM, 0x10)
        assert level.resident(1, 0x14)
        # Hits still search the whole set.
        assert level.hit(1, 0x14)

    def test_replacement_victim_is_partition_lru(self):
        level = self.level("SP")
        level.fill(VICTIM, 0x10, sec=False)
        victim = level.replacement_victim(VICTIM, 0x14)
        assert victim is not None and victim.vpn == 0x10
        # The attacker partition still has a free way in this set.
        assert level.replacement_victim(1, 0x14) is None


class TestMachineNoiseSites:
    def run_quiet(self, spec, vulnerability, mapped=True):
        return analyze_hypothesis(spec, vulnerability, mapped)

    @pytest.fixture(scope="class")
    def ic_row(self):
        return table2_vulnerabilities()[0]  # internal collision, fast

    def test_rf_secure_requests_become_noise_sites(self, ic_row):
        analysis = self.run_quiet(spec_of("RF"), ic_row)
        # The victim's secure accesses never fill; each is a Sec_D site.
        assert analysis.sites
        assert all(not site.redirect or site.level == 0
                   for site in analysis.sites)

    def test_sa_design_is_noise_free(self, ic_row):
        analysis = self.run_quiet(spec_of("SA", "SA"), ic_row)
        assert analysis.sites == ()
        assert analysis.envelope == frozenset({analysis.quiet_slow})


class TestScope:
    def test_step_three_invalidation_probes_are_refused(self):
        from repro.model.extended import invalidation_only_vulnerabilities
        from repro.model.states import Operation

        probes = [
            vulnerability
            for vulnerability in invalidation_only_vulnerabilities()
            if vulnerability.pattern.steps[2].operation
            is Operation.INVALIDATE_TARGET
        ]
        assert probes
        for vulnerability in probes:
            with pytest.raises(
                NotImplementedError, match="no hierarchy ground truth"
            ):
                analyze_hypothesis(spec_of("SA"), vulnerability, True)


class TestDynamicPin:
    """The lifted machine against the generated benchmarks on the CPU.

    SA and SP are deterministic designs: a single trial of the assembled
    benchmark decides slow/fast exactly, and the lifted machine's quiet
    execution must agree row-for-row and hypothesis-for-hypothesis.
    Both run the ops of :func:`repro.security.benchgen.expand`, so this
    pins the machine's fills, partitions and walk count against the
    CPU's.
    """

    @pytest.mark.parametrize("kind", ["SA", "SP"])
    def test_quiet_slowness_matches_the_cpu(self, kind):
        from repro.security.evaluate import (
            EvaluationConfig,
            SecurityEvaluator,
        )

        config = EvaluationConfig(trials=1)
        evaluator = SecurityEvaluator(config)
        spec = HierarchySpec(
            levels=(LevelSpec(kind=kind, sets=4, ways=8),)
        )
        layout = layout_for_spec(spec, config.partitioned_primes)
        for vulnerability in table2_vulnerabilities():
            result = evaluator.evaluate_vulnerability(
                vulnerability, spec, trials=1
            )
            dynamic = {
                True: result.estimate.misses_mapped > 0,
                False: result.estimate.misses_unmapped > 0,
            }
            for mapped in (True, False):
                static = analyze_hypothesis(
                    spec, vulnerability, mapped, layout
                )
                assert static.quiet_slow == dynamic[mapped], (
                    f"{kind} {vulnerability.pretty()} mapped={mapped}: "
                    f"static={static.quiet_slow} dynamic={dynamic[mapped]}"
                )


def committed_sweep_matrix():
    """Parse design -> (defended, vulnerable strategy set) from results/."""
    text = (RESULTS / "hierarchy_sweep.txt").read_text()
    matrix = {}
    for line in text.splitlines():
        match = re.match(
            r"^(\S+)\s+(\d)/7\s+[\d.]+\s+[\d.]+\s+\d+\s+\d+\s+(.*)$", line
        )
        if not match:
            continue
        label, defended, strategies = match.groups()
        names = (
            set()
            if strategies.strip() == "-"
            else {name.strip() for name in strategies.split(",")}
        )
        matrix[label] = (int(defended), names)
    return matrix


class TestSweepMatrixRegression:
    """Certificates must reproduce the committed 24-design matrix."""

    @pytest.fixture(scope="class")
    def matrix(self):
        matrix = committed_sweep_matrix()
        assert len(matrix) == 24
        return matrix

    @pytest.fixture(scope="class")
    def certificates(self):
        from repro.ablations.hierarchy import sweep_specs

        return {spec.label(): certify(spec) for spec in sweep_specs()}

    def test_every_design_row_verdict_matches(self, matrix, certificates):
        from repro.ablations.hierarchy import sweep_rows

        rows = sweep_rows()
        for label, (defended, strategies) in matrix.items():
            certificate = certificates[label]
            static_vulnerable = set()
            static_defended = 0
            for _, vulnerability in rows:
                verdict = certificate.verdict_for(vulnerability)
                if verdict.defended:
                    static_defended += 1
                else:
                    static_vulnerable.add(vulnerability.strategy.value)
            assert static_defended == defended, label
            assert static_vulnerable == strategies, label

    def test_certification_is_fast(self, certificates):
        # 24 designs certified without any simulation; the fixtures above
        # already did the work, this documents the O(seconds) claim.
        assert len(certificates) == 24


class TestFlatTable4Regression:
    """Single-level certificates must reproduce the Table 4 counts."""

    @pytest.mark.parametrize(
        "kind,defended", [("SA", 10), ("SP", 14), ("RF", 24)]
    )
    def test_defended_counts(self, kind, defended):
        from repro.security.evaluate import table4_spec
        from repro.security.kinds import TLBKind

        spec = table4_spec(TLBKind[kind])
        layout = layout_for_spec(spec, partitioned_primes=True)
        certificate = certify(spec, layout=layout)
        assert certificate.defended == defended


class TestLayoutFollowsTheLastLevelsWays:
    """Primes fill a whole set of the last level, whatever its ways.

    With prime widths fixed at 8, a plain SA TLB of 4 or 16 ways reads
    as defended against Prime + Probe (and, at 16 ways, Evict + Time)
    both statically and dynamically; the certificate and the measurement
    must find those rows vulnerable.
    """

    @pytest.mark.parametrize("ways", [4, 16])
    @pytest.mark.parametrize("strategy", ["PRIME_PROBE", "EVICT_TIME"])
    def test_sa_leaks_at_any_associativity(self, ways, strategy):
        from repro.ablations import HIERARCHY_EVALUATION
        from repro.model.patterns import Strategy
        from repro.security import SecurityEvaluator
        from repro.tlb import TLBConfig

        spec = HierarchySpec.flat("SA", TLBConfig(entries=4 * ways, ways=ways))
        layout = layout_for_spec(spec)
        assert layout.prime_ways_victim == layout.prime_ways_attacker == ways
        certificate = certify(spec)
        evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
        rows = [
            vulnerability
            for vulnerability in table2_vulnerabilities()
            if vulnerability.strategy is Strategy[strategy]
        ]
        assert rows
        for vulnerability in rows:
            assert not certificate.verdict_for(vulnerability).defended
            estimate = evaluator.evaluate_vulnerability(
                vulnerability, spec
            ).estimate
            assert estimate.capacity == pytest.approx(1.0)


class TestRules:
    def verdicts(self, spec):
        return {v.vulnerability.pretty(): v for v in certify(spec).verdicts}

    def test_rf_sa_internal_collision_is_unmasked_noise(self):
        verdict = self.verdicts(spec_of("RF", "SA"))[
            "A_inv ~> V_u ~> V_a (fast)"
        ]
        assert not verdict.defended
        assert verdict.rule == RULE_NOISY_CORE_UNMASKED
        assert verdict.evidence["backing"] == ["SA"]

    def test_rf_sp_internal_collision_is_masked(self):
        verdict = self.verdicts(spec_of("RF", "SP"))[
            "A_inv ~> V_u ~> V_a (fast)"
        ]
        assert verdict.defended
        assert verdict.rule == RULE_NOISY_CORE_MASKED

    def test_sa_sa_evict_time_is_deterministic(self):
        verdict = self.verdicts(spec_of("SA", "SA"))[
            "V_u ~> A_d ~> V_u (slow)"
        ]
        assert not verdict.defended
        assert verdict.rule == RULE_DETERMINISM

    def test_rf_rf_is_fully_defended_with_proofs(self):
        certificate = certify(spec_of("RF", "RF"))
        assert certificate.defended == 24
        for verdict in certificate.verdicts:
            assert verdict.rule in (
                RULE_INDISTINGUISHABLE,
                RULE_NOISY_CORE_MASKED,
            )
            assert "mechanism" in verdict.evidence


class TestPWCNeutrality:
    def test_pwc_never_changes_a_verdict(self):
        for kinds in (("SA", "SA"), ("RF", "SA"), ("RF",)):
            plain = certify(spec_of(*kinds))
            with_pwc = certify(spec_of(*kinds, pwc=True))
            for bare, pwc in zip(plain.verdicts, with_pwc.verdicts):
                assert bare.defended == pwc.defended
                assert bare.rule == pwc.rule


class TestCertificateContract:
    @pytest.fixture(scope="class")
    def certificate(self):
        return certify(spec_of("RF", "SA"))

    def test_schema_and_summary_fields(self, certificate):
        payload = certificate.to_dict()
        assert payload["schema"] == CERTIFICATE_SCHEMA
        assert payload["design"] == "RF+SA"
        assert payload["total_rows"] == 24
        assert payload["pwc_neutral"] is True
        assert payload["operating_point"]["trials_per_behaviour"] == 40
        assert payload["defended"] == sum(
            1 for v in payload["verdicts"] if v["defended"]
        )

    def test_every_verdict_carries_evidence(self, certificate):
        for verdict in certificate.to_dict()["verdicts"]:
            evidence = verdict["evidence"]
            assert evidence["triple"]
            assert set(evidence["quiet_walks"]) == {"mapped", "unmapped"}
            assert set(evidence["envelope"]) == {"mapped", "unmapped"}
            assert evidence["mechanism"]

    def test_spec_roundtrips_through_the_payload(self, certificate):
        payload = certificate.to_dict()
        assert HierarchySpec.from_dict(payload["spec"]) == certificate.spec

    def test_refill_channel_on_the_leakage_design(self):
        from repro.ablations.hierarchy import leakage_spec

        certificate = certify(leakage_spec())
        assert certificate.refill_channel

    def test_text_rendering(self, certificate):
        text = format_certificate(certificate)
        assert "static security certificate: RF+SA" in text
        assert "defended: 14/24" in text
        assert RULE_NOISY_CORE_UNMASKED in text
