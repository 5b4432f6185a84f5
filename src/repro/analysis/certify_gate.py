"""Differential gate: static certificates vs. dynamic ground truth.

The certifier (:mod:`repro.analysis.certify`) claims it can replace the
dynamic sweep.  This module makes that claim falsifiable on every CI run
by replaying certificates against three independent dynamic oracles:

* **sweep** -- the 24-design hierarchy sweep's strategy rows, re-measured
  at the committed operating point (40 trials per behaviour, seed 7;
  deterministic, CRC-seeded per cell) and compared verdict-by-verdict
  with each design's certificate;
* **flat** -- the Table 4 per-row evaluation of the three flat designs
  (including the SP evaluation's partition-sized prime widths), compared
  with single-level certificates built on the same layout;
* **refill** -- the TaintObserver cross-check on the leakage-variant
  design (tiny RF L1 over a shared SA L2): a certificate claiming a
  refill channel must see secret-correlated refill pages under the
  ``rsa`` guest workload and a flat tally under ``rsa-ct``.

Both dynamic legs run :meth:`repro.security.evaluate.SecurityEvaluator.
evaluate_vulnerability`, the trial loop behind every security table.
Every comparison is deterministic (the dynamic side derives its RNG from
CRC32-stable labels), so a passing gate is reproducible and a failing
one bisectable.  The CLI exits nonzero on any disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

from repro.analysis.certify import Certificate, certify, certify_all

#: The flat leg's trial count.  The comparison is deterministic, so this
#: only needs to put the measured capacities clearly on the right side of
#: the sample-size-aware defends() threshold (0.05 + 4/trials).
FLAT_TRIALS = 120

#: The sweep leg's operating point: the hierarchy sweep's own trial
#: count and seed, at which the certifier's noisy-core rule (R9) is
#: calibrated.  A gate at any other point would test a claim no
#: certificate makes.
SWEEP_TRIALS = 40
SWEEP_SEED = 7


@dataclass(frozen=True)
class GateCheck:
    """One static-vs-dynamic comparison."""

    leg: str  # "sweep" | "flat" | "refill"
    design: str
    subject: str  # the row / workload compared
    static_defended: Optional[bool]
    dynamic_defended: Optional[bool]
    agree: bool
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {
            "leg": self.leg,
            "design": self.design,
            "subject": self.subject,
            "static_defended": self.static_defended,
            "dynamic_defended": self.dynamic_defended,
            "agree": self.agree,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class GateReport:
    checks: List[GateCheck]

    @property
    def disagreements(self) -> List[GateCheck]:
        return [check for check in self.checks if not check.agree]

    @property
    def passed(self) -> bool:
        return not self.disagreements

    def to_dict(self) -> Dict[str, Any]:
        by_leg: Dict[str, Dict[str, int]] = {}
        for check in self.checks:
            counts = by_leg.setdefault(check.leg, {"checks": 0, "agree": 0})
            counts["checks"] += 1
            counts["agree"] += check.agree
        return {
            "schema": "repro/certify-gate/v1",
            "passed": self.passed,
            "checks": len(self.checks),
            "disagreements": [c.to_dict() for c in self.disagreements],
            "legs": {leg: dict(counts) for leg, counts in sorted(by_leg.items())},
        }


def certified_rows(
    certificate: Certificate, estimates: Dict[Any, Any]
) -> Dict[str, bool]:
    """Per-row static/dynamic agreement for already-measured estimates.

    The hook the runner's sweep assembly uses to stamp ``certified`` on
    its result envelope without re-running any simulation.
    """
    agreement = {}
    for vulnerability, estimate in estimates.items():
        verdict = certificate.verdict_for(vulnerability)
        agreement[vulnerability.pretty()] = (
            verdict.defended == estimate.defends()
        )
    return agreement


def _sweep_leg(checks: List[GateCheck]) -> None:
    from repro.ablations.hierarchy import (
        HIERARCHY_EVALUATION,
        sweep_rows,
        sweep_specs,
    )
    from repro.security.evaluate import SecurityEvaluator

    evaluator = SecurityEvaluator(
        replace(HIERARCHY_EVALUATION, seed=SWEEP_SEED)
    )
    rows = sweep_rows()
    specs = sweep_specs()
    for spec, certificate in zip(specs, certify_all(specs)):
        for _, vulnerability in rows:
            estimate = evaluator.evaluate_vulnerability(
                vulnerability, spec, trials=SWEEP_TRIALS
            ).estimate
            static = certificate.verdict_for(vulnerability).defended
            dynamic = estimate.defends()
            checks.append(
                GateCheck(
                    leg="sweep",
                    design=spec.label(),
                    subject=vulnerability.pretty(),
                    static_defended=static,
                    dynamic_defended=dynamic,
                    agree=static == dynamic,
                    detail=f"capacity={estimate.capacity:.3f} "
                    f"trials={SWEEP_TRIALS} seed={SWEEP_SEED}",
                )
            )


def _flat_leg(checks: List[GateCheck]) -> None:
    from repro.security.benchgen import layout_for_spec
    from repro.security.evaluate import (
        EvaluationConfig,
        SecurityEvaluator,
        table4_spec,
    )
    from repro.tlb import TLBKind

    config = EvaluationConfig(trials=FLAT_TRIALS)
    evaluator = SecurityEvaluator(config)
    for kind in (TLBKind.SA, TLBKind.SP, TLBKind.RF):
        spec = table4_spec(kind)
        layout = layout_for_spec(spec, config.partitioned_primes)
        certificate = certify(spec, layout=layout)
        for verdict in certificate.verdicts:
            result = evaluator.evaluate_vulnerability(
                verdict.vulnerability, spec, trials=FLAT_TRIALS
            )
            dynamic = result.estimate.defends()
            checks.append(
                GateCheck(
                    leg="flat",
                    design=kind.value,
                    subject=verdict.vulnerability.pretty(),
                    static_defended=verdict.defended,
                    dynamic_defended=dynamic,
                    agree=verdict.defended == dynamic,
                    detail=f"capacity={result.estimate.capacity:.3f} "
                    f"trials={FLAT_TRIALS}",
                )
            )


def _refill_leg(checks: List[GateCheck]) -> None:
    from repro.ablations.hierarchy import leakage_spec, refill_leakage

    spec = leakage_spec()
    certificate = certify(spec)
    static = certificate.refill_channel

    rsa = refill_leakage(spec, "rsa")
    rsa_pages = rsa["correlated_refill_pages"]
    checks.append(
        GateCheck(
            leg="refill",
            design=spec.label(),
            subject="rsa refill correlation",
            static_defended=not static,
            dynamic_defended=not rsa_pages,
            agree=static == bool(rsa_pages),
            detail=f"correlated refill pages: "
            f"{[hex(p) for p in sorted(rsa_pages)]}",
        )
    )
    ct = refill_leakage(spec, "rsa-ct")
    ct_pages = ct["correlated_refill_pages"]
    checks.append(
        GateCheck(
            leg="refill",
            design=spec.label(),
            subject="rsa-ct refill flatness",
            static_defended=None,
            dynamic_defended=not ct_pages,
            # The certified channel is *secret*-dependence; the constant-
            # time guest must therefore tally flat whatever the design.
            agree=not ct_pages,
            detail=f"correlated refill pages: "
            f"{[hex(p) for p in sorted(ct_pages)]}",
        )
    )


def run_gate(legs: Optional[List[str]] = None) -> GateReport:
    """Replay certificates against every dynamic oracle; collect checks."""
    legs = legs or ["sweep", "flat", "refill"]
    checks: List[GateCheck] = []
    if "sweep" in legs:
        _sweep_leg(checks)
    if "flat" in legs:
        _flat_leg(checks)
    if "refill" in legs:
        _refill_leg(checks)
    return GateReport(checks=checks)


def format_report(report: GateReport) -> str:
    by_leg: Dict[str, List[GateCheck]] = {}
    for check in report.checks:
        by_leg.setdefault(check.leg, []).append(check)
    lines = ["certify differential gate: static certificates vs dynamics"]
    for leg, checks in sorted(by_leg.items()):
        agreed = sum(1 for c in checks if c.agree)
        lines.append(f"  {leg:7} {agreed}/{len(checks)} checks agree")
    for check in report.disagreements:
        lines.append(
            f"  DISAGREE [{check.leg}] {check.design} / {check.subject}: "
            f"static={check.static_defended} "
            f"dynamic={check.dynamic_defended} ({check.detail})"
        )
    lines.append(
        "gate PASSED" if report.passed else
        f"gate FAILED: {len(report.disagreements)} disagreement(s)"
    )
    return "\n".join(lines)
