"""The static/dynamic differential gate (repro.analysis.certify_gate)."""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.certify import certify
from repro.analysis.certify_gate import (
    GateCheck,
    GateReport,
    certified_rows,
    run_gate,
    format_report,
)
from repro.security import TLBKind, table4_spec

#: SHA-256 of each dynamic leg's checks (``GateCheck.to_dict()`` with
#: sorted keys, in gate order).  The ``detail`` strings carry every
#: measured capacity, so these pin the numbers, not only the verdicts.
FLAT_LEG_SHA256 = (
    "6e9d2746238aad29db1f58d9306af40f297c2165f964110b4f71795d44fbe6a9"
)
SWEEP_LEG_SHA256 = (
    "3bf62c9c66a3e838341e58713c2d9e3cf560c02d8655ef67cc41fccc65ee9dbe"
)


def checks_sha256(report: GateReport) -> str:
    payload = json.dumps(
        [check.to_dict() for check in report.checks], sort_keys=True
    )
    return hashlib.sha256(payload.encode()).hexdigest()


class TestFlatSpec:
    def test_matches_the_table4_geometry(self):
        spec = table4_spec(TLBKind.SP)
        assert spec.label() == "SP"
        assert len(spec.levels) == 1
        level = spec.levels[0]
        assert (level.config().sets, level.ways) == (4, 8)


class TestCertifiedRows:
    """The runner-assembly hook: row agreement for measured estimates."""

    def estimates_for(self, certificate, flip=None):
        from repro.model.capacity import ChannelEstimate

        estimates = {}
        for verdict in certificate.verdicts[:4]:
            defended = verdict.defended
            if flip is not None and verdict.vulnerability == flip:
                defended = not defended
            # defends() iff capacity <= 0.05 + 4/trials; 0/40 vs 40/40
            # misses puts the capacity at 0 or 1 decisively.
            estimates[verdict.vulnerability] = ChannelEstimate(
                misses_mapped=0 if defended else 40,
                misses_unmapped=0,
                trials_per_behaviour=40,
            )
        return estimates

    @pytest.fixture(scope="class")
    def certificate(self):
        return certify(table4_spec(TLBKind.SA))

    def test_agreement_when_dynamics_match(self, certificate):
        rows = certified_rows(
            certificate, self.estimates_for(certificate)
        )
        assert rows and all(rows.values())

    def test_disagreement_is_reported_per_row(self, certificate):
        flip = certificate.verdicts[0].vulnerability
        rows = certified_rows(
            certificate, self.estimates_for(certificate, flip=flip)
        )
        assert not rows[flip.pretty()]
        assert sum(not ok for ok in rows.values()) == 1


class TestRefillLeg:
    def test_refill_leg_passes(self):
        report = run_gate(legs=["refill"])
        assert report.passed
        assert len(report.checks) == 2
        subjects = {check.subject for check in report.checks}
        assert subjects == {
            "rsa refill correlation",
            "rsa-ct refill flatness",
        }

    def test_report_serialization(self):
        report = run_gate(legs=["refill"])
        payload = report.to_dict()
        assert payload["schema"] == "repro/certify-gate/v1"
        assert payload["passed"] is True
        assert payload["checks"] == 2
        assert payload["legs"] == {"refill": {"checks": 2, "agree": 2}}
        assert payload["disagreements"] == []


class TestFlatLeg:
    def test_flat_leg_agrees_on_all_72_rows(self):
        report = run_gate(legs=["flat"])
        assert report.passed
        assert len(report.checks) == 72
        designs = {check.design for check in report.checks}
        assert designs == {"SA", "SP", "RF"}
        assert checks_sha256(report) == FLAT_LEG_SHA256


class TestSweepLeg:
    def test_sweep_leg_capacities_are_pinned(self):
        """168 checks: 7 rows on each of the 24 sweep designs, at 40
        trials and seed 7."""
        report = run_gate(legs=["sweep"])
        assert report.passed
        assert len(report.checks) == 168
        assert checks_sha256(report) == SWEEP_LEG_SHA256


class TestReportFormatting:
    def test_disagreements_are_named(self):
        checks = [
            GateCheck(
                leg="sweep",
                design="RF+SA",
                subject="row",
                static_defended=True,
                dynamic_defended=False,
                agree=False,
                detail="capacity=0.9",
            )
        ]
        text = format_report(GateReport(checks=checks))
        assert "DISAGREE [sweep] RF+SA / row" in text
        assert "gate FAILED: 1 disagreement(s)" in text

    def test_passing_report(self):
        text = format_report(GateReport(checks=[]))
        assert "gate PASSED" in text
