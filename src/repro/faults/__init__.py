"""Deterministic fault injection and chaos hardening.

The reproduction's conclusions are only as good as the stack that
computes them, so this package attacks that stack on purpose, at both
layers, and requires every attack to be *caught*:

* :mod:`repro.faults.plan` -- the declarative, seeded
  :class:`FaultPlan`/:class:`FaultSpec` taxonomy (what, where, when);
* :mod:`repro.faults.injector` -- arms sim-layer faults (TLB bit flips,
  dropped flushes, walk jitter, spurious evictions) against a live
  :class:`repro.sim.MemorySystem`, silently, the way hardware fails;
* :mod:`repro.faults.detectors` -- the assertion battery (structural
  audit, shadow model, page-table oracle, Sec-bit, walk timing, flush
  efficacy) that must flag each injected fault;
* :mod:`repro.faults.campaign` -- the campaigns behind
  ``python -m repro chaos``, producing the detection matrix that fails
  CI on any silent fault.

Runner-layer misbehaviour (hung, crashing and lying workers, frozen
heartbeats, duplicate and stale leases, torn journals, poison cells) is
injected by :class:`~repro.runner.policy.ChaosConfig`, which lives beside
the executors that implement its modes and is re-exported here.
"""

from repro.runner.policy import FAULT_MODES, ChaosConfig

from .campaign import (
    PROBE_EXPERIMENT,
    CampaignReport,
    CampaignRow,
    build_campaign_memory,
    drive_workload,
    ensure_probe_experiment,
    run_campaigns,
    run_runner_campaign,
    run_sim_campaign,
)
from .detectors import (
    Detector,
    DetectorSuite,
    FlushEfficacyDetector,
    SecBitDetector,
    ShadowModelDetector,
    TLBAuditDetector,
    TranslationOracleDetector,
    WalkTimingDetector,
)
from .injector import InjectedFault, SimFaultInjector
from .plan import (
    FAULT_KINDS,
    RUNNER_FAULT_KINDS,
    SIM_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    default_runner_plan,
    default_sim_plan,
)

__all__ = [
    "CampaignReport",
    "CampaignRow",
    "ChaosConfig",
    "Detector",
    "DetectorSuite",
    "FAULT_KINDS",
    "FAULT_MODES",
    "FaultPlan",
    "FaultSpec",
    "FlushEfficacyDetector",
    "InjectedFault",
    "PROBE_EXPERIMENT",
    "RUNNER_FAULT_KINDS",
    "SIM_FAULT_KINDS",
    "SecBitDetector",
    "ShadowModelDetector",
    "SimFaultInjector",
    "TLBAuditDetector",
    "TranslationOracleDetector",
    "WalkTimingDetector",
    "build_campaign_memory",
    "default_runner_plan",
    "default_sim_plan",
    "drive_workload",
    "ensure_probe_experiment",
    "run_campaigns",
    "run_runner_campaign",
    "run_sim_campaign",
]
