"""Chaos campaigns: inject every fault class, prove each one is caught.

Two campaigns mirror the package's two layers:

* :func:`run_sim_campaign` arms each sim-layer fault of a
  :class:`~repro.faults.plan.FaultPlan` against a fresh
  :class:`repro.sim.MemorySystem` running a fixed deterministic workload,
  with the full :class:`~repro.faults.detectors.DetectorSuite` attached.
  The product is a *detection matrix*: fault class x detectors that fired.
  A fault no detector reports is a **silent fault** -- the campaign's
  failure condition, gating CI.

* :func:`run_runner_campaign` aims each runner-layer fault mode at a
  cheap probe experiment executed through the real ``run_all`` stack
  (worker processes, cache, artifacts) and checks the matching hardening
  mechanism engaged *and* the final artifacts are byte-identical to a
  clean run's (or, for poison cells, that the run quarantined them and
  reported partially).

Runner imports happen lazily inside the functions: the scheduler imports
:mod:`repro.faults.chaos`, so a module-level import here would cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.mmu.walker import make_walker
from repro.sim.system import MemorySystem

from .detectors import DetectorSuite
from .injector import SimFaultInjector
from .plan import (
    EXECUTOR_FAULT_KINDS,
    RUNNER_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    default_executor_plan,
    default_runner_plan,
    default_sim_plan,
)

#: The probe experiment the runner campaign schedules.
PROBE_EXPERIMENT = "chaos-probe"


@dataclass
class CampaignRow:
    """One fault class's outcome in the detection matrix."""

    kind: str
    layer: str
    #: How many faults were actually injected (0 = the spec never fired).
    injections: int
    #: Detectors (sim) or hardening mechanisms (runner) that caught it.
    detected_by: Tuple[str, ...]
    #: Human-readable evidence: injection details and violation messages.
    evidence: List[str] = field(default_factory=list)

    @property
    def silent(self) -> bool:
        """Injected but caught by nothing: the failure condition."""
        return self.injections > 0 and not self.detected_by

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "layer": self.layer,
            "injections": self.injections,
            "detected_by": list(self.detected_by),
            "silent": self.silent,
            "evidence": self.evidence,
        }


@dataclass
class CampaignReport:
    """A campaign's detection matrix plus its clean-baseline check."""

    name: str
    seed: int
    rows: List[CampaignRow] = field(default_factory=list)
    #: Detector violations from the fault-free baseline run (must be []).
    baseline_violations: List[str] = field(default_factory=list)

    @property
    def silent_faults(self) -> List[str]:
        return [row.kind for row in self.rows if row.silent]

    @property
    def not_injected(self) -> List[str]:
        return [row.kind for row in self.rows if row.injections == 0]

    @property
    def ok(self) -> bool:
        """Every fault injected and caught, with no false positives."""
        return (
            not self.silent_faults
            and not self.not_injected
            and not self.baseline_violations
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "ok": self.ok,
            "silent_faults": self.silent_faults,
            "not_injected": self.not_injected,
            "baseline_violations": self.baseline_violations,
            "rows": [row.to_dict() for row in self.rows],
        }

    def to_text(self) -> str:
        """The detection matrix as an aligned console table."""
        lines = [f"chaos campaign: {self.name} (seed {self.seed})", ""]
        width = max((len(row.kind) for row in self.rows), default=4)
        header = f"{'fault':<{width}}  inj  detected by"
        lines += [header, "-" * len(header)]
        for row in self.rows:
            caught = ", ".join(row.detected_by) if row.detected_by else (
                "SILENT" if row.injections else "not injected"
            )
            lines.append(f"{row.kind:<{width}}  {row.injections:>3}  {caught}")
        lines.append("")
        if self.baseline_violations:
            lines.append("baseline (no faults) FALSE POSITIVES:")
            lines += [f"  {v}" for v in self.baseline_violations]
        else:
            lines.append("baseline (no faults): clean")
        lines.append(f"verdict: {'OK' if self.ok else 'FAILED'}")
        return "\n".join(lines)


# -- the sim-layer campaign ---------------------------------------------------


def build_campaign_memory(design: str = "SA", seed: int = 2019) -> MemorySystem:
    """A fresh memory system sized so the workload causes no evictions.

    Capacity evictions would let a later fill displace the corrupted
    entry -- with a perfectly legal ``EvictEvent`` -- and erase the
    evidence before the final audit.  128 entries / 8 ways leave slack for
    the workload's ~40 distinct pages even when the SP design halves each
    set's ways per partition and the RF design adds random fills.

    ``design`` is either a flat kind (``"SA"``) or a two-level hierarchy
    label (``"RF+SA"``); hierarchy campaigns arm the same faults against
    a :class:`repro.tlb.TLBHierarchy` (L2 twice the L1's entries, again
    eviction-free) so the per-level detectors are exercised end to end.
    """
    import random

    from repro.security.kinds import TLBKind, make_hierarchy, make_tlb
    from repro.tlb.config import TLBConfig
    from repro.tlb.spec import HierarchySpec

    name = design.upper()
    if "+" in name:
        l1_kind, l2_kind = name.split("+")
        spec = HierarchySpec.two_level(
            l1_kind,
            l2_kind,
            TLBConfig(entries=128, ways=8),
            TLBConfig(entries=256, ways=8),
        )
        tlb = make_hierarchy(spec, victim_asid=1, rng=random.Random(seed))
        memory = MemorySystem(tlb, walker=make_walker())
        if "RF" in (l1_kind, l2_kind):
            memory.set_secure_region(0x200, 0x10, victim_asid=1)
        return memory
    kind = TLBKind(name)
    config = TLBConfig(entries=128, ways=8)
    tlb = make_tlb(kind, config, rng=random.Random(seed))
    memory = MemorySystem(tlb, walker=make_walker())
    if kind is TLBKind.RF:
        memory.set_secure_region(0x200, 0x10, victim_asid=1)
    return memory


def drive_workload(memory: MemorySystem) -> None:
    """The fixed campaign workload (two ASIDs, flushes, refills).

    Structured so every default trigger lands on prepared ground: both
    flushes happen by translation ~32 (so translation-triggered faults at
    40 corrupt state no later flush legitimately removes), the second
    flush is the drop-flush target (stale entries exist to survive it),
    and 48 page-table walks cover the walk-jitter trigger.
    """
    memory.context_switch(0)
    for vpn in range(0x100, 0x110):
        memory.translate(vpn, 0)
    memory.context_switch(1)
    for vpn in range(0x200, 0x208):
        memory.translate(vpn, 1)
    memory.flush_asid(1)  # maintenance op 1: performed
    for vpn in range(0x200, 0x208):
        memory.translate(vpn, 1)  # refill after the flush
    memory.flush_asid(1)  # maintenance op 2: the drop-flush target
    memory.context_switch(0)
    for vpn in range(0x100, 0x110):
        memory.translate(vpn, 0)  # hits; crosses the bit-flip trigger
    for vpn in range(0x110, 0x130):
        memory.translate(vpn, 0)  # fresh walks; crosses the jitter trigger


def run_sim_campaign(
    plan: Optional[FaultPlan] = None,
    design: str = "SA",
    seed: int = 2019,
) -> CampaignReport:
    """Inject each sim-layer fault of ``plan`` into its own fresh run."""
    plan = plan if plan is not None else default_sim_plan(seed)
    relaxed = "RF" in design.upper().split("+")
    report = CampaignReport(name=f"sim/{design.upper()}", seed=plan.seed)

    # Fault-free baseline: the detectors must stay quiet on a clean run.
    baseline = build_campaign_memory(design, plan.seed)
    suite = DetectorSuite.standard(baseline, strict_shadow=not relaxed)
    drive_workload(baseline)
    for name, violations in suite.finish().items():
        report.baseline_violations += [f"{name}: {v}" for v in violations]

    for index, spec in enumerate(plan.specs):
        if spec.layer != "sim":
            continue
        memory = build_campaign_memory(design, plan.seed)
        suite = DetectorSuite.standard(memory, strict_shadow=not relaxed)
        injector = SimFaultInjector(
            memory=memory, spec=spec, rng=plan.rng_for(index)
        ).arm()
        drive_workload(memory)
        fired = suite.finish()
        evidence = [fault.detail for fault in injector.injected]
        for name, violations in fired.items():
            evidence += [f"{name}: {v}" for v in violations[:3]]
        report.rows.append(
            CampaignRow(
                kind=spec.kind,
                layer="sim",
                injections=len(injector.injected),
                detected_by=tuple(sorted(fired)),
                evidence=evidence,
            )
        )
    return report


# -- the runner-layer campaign ------------------------------------------------


def ensure_probe_experiment() -> None:
    """Register the campaign's cheap probe experiment (idempotent).

    Inert in normal runs: its ``chaos_probe_cells`` option defaults to
    zero cells.  Worker processes inherit the registration via fork.
    """
    from repro.runner.registry import COUNT, REGISTRY, Experiment, Option, register

    if PROBE_EXPERIMENT in REGISTRY:
        return

    @register(PROBE_EXPERIMENT)
    class ChaosProbe(Experiment):
        declared_options = (Option("chaos_probe_cells", 0, COUNT),)

        def units(self, options):
            return [
                self.unit(f"cell-{index:02d}", index=index)
                for index in range(options["chaos_probe_cells"])
            ]

        @staticmethod
        def run(params):
            index = params["index"]
            return {"index": index, "value": (index * 2654435761) % 1000003}

        def assemble(self, values, options):
            return values


def _artifact_bytes(results_dir: Path) -> Dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(Path(results_dir).glob("*.json"))
        if path.name != "failed_cells.json"
    }


def run_runner_campaign(
    workdir: Path | str,
    plan: Optional[FaultPlan] = None,
    seed: int = 2019,
    cells: int = 6,
    jobs: int = 2,
    task_timeout: float = 2.0,
) -> CampaignReport:
    """Aim each runner fault mode at the probe cells through ``run_all``."""
    from repro.faults.chaos import ChaosConfig
    from repro.runner.api import run_all

    plan = plan if plan is not None else default_runner_plan(seed)
    kinds = [
        spec.kind for spec in plan.specs if spec.kind in RUNNER_FAULT_KINDS
    ]
    workdir = Path(workdir)
    report = CampaignReport(name="runner", seed=plan.seed)
    ensure_probe_experiment()

    common: Dict[str, Any] = dict(
        jobs=jobs,
        filters=[f"{PROBE_EXPERIMENT}/*"],
        options={"chaos_probe_cells": cells},
        progress=False,
    )

    # Clean reference run: the artifact bytes every chaotic run must match.
    clean_dir = workdir / "clean"
    clean_report = run_all(
        results_dir=clean_dir, cache_dir=workdir / "clean-cache", **common
    )
    if not clean_report.ok:
        report.baseline_violations.append(
            f"clean run failed: {clean_report.failed}"
        )
    reference = _artifact_bytes(clean_dir)
    if not reference:
        report.baseline_violations.append("clean run produced no artifacts")

    chaos_seed = plan.seed
    for kind in kinds:
        results_dir = workdir / kind
        cache_dir = workdir / f"{kind}-cache"
        detected: List[str] = []
        evidence: List[str] = []
        injections = 0

        if kind == "torn-cache":
            # Populate the cache, tear one entry mid-write, rerun: the
            # checksum/atomic-read path must spot the torn file, recompute
            # the cell, and still converge to the reference artifacts.
            run_all(results_dir=results_dir, cache_dir=cache_dir, **common)
            torn = sorted(Path(cache_dir).rglob("*.pkl"))
            if torn:
                victim = torn[len(torn) // 2]
                blob = victim.read_bytes()
                victim.write_bytes(blob[: max(1, len(blob) // 2)])
                injections = 1
                evidence.append(f"truncated {victim.name}")
            rerun = run_all(
                results_dir=results_dir, cache_dir=cache_dir, **common
            )
            if rerun.cache_corrupt:
                detected.append("cache-checksum")
                evidence.append(
                    f"{rerun.cache_corrupt} torn entries recomputed"
                )
            if rerun.ok and _artifact_bytes(results_dir) == reference:
                detected.append("artifact-match")
        elif kind == "poison":
            poisoned = f"{PROBE_EXPERIMENT}/cell-00"
            chaos = ChaosConfig(
                seed=chaos_seed, modes=(), poison_idents=(poisoned,)
            )
            injections = 1
            evidence.append(f"poisoned {poisoned}")
            outcome = run_all(
                results_dir=results_dir,
                cache_dir=cache_dir,
                chaos=chaos,
                **common,
            )
            quarantined = (
                not outcome.ok
                and poisoned in outcome.failed
                and outcome.completed == cells - 1
                and (results_dir / "failed_cells.json").is_file()
            )
            if quarantined:
                detected.append("quarantine")
                evidence.append(
                    f"failed-cell manifest written, {outcome.completed}"
                    f"/{cells} healthy cells completed"
                )
        else:
            mode_map = {
                "hang": ("watchdog", "watchdog_kills"),
                "crash": ("crash-retry", "worker_crashes"),
                "corrupt-result": ("integrity-envelope", "corrupt_results"),
            }
            mechanism, counter = mode_map[kind]
            chaos = ChaosConfig(
                seed=chaos_seed,
                modes=(kind,),
                rate=1.0,
                hang_seconds=task_timeout * 30,
            )
            outcome = run_all(
                results_dir=results_dir,
                cache_dir=cache_dir,
                chaos=chaos,
                task_timeout=(task_timeout if kind == "hang" else None),
                **common,
            )
            engaged = getattr(outcome, counter)
            injections = cells  # rate=1.0 targets every first attempt
            if engaged:
                detected.append(mechanism)
                evidence.append(f"{counter}={engaged}")
            if outcome.ok and _artifact_bytes(results_dir) == reference:
                detected.append("artifact-match")
            elif not outcome.ok:
                evidence.append(f"run not ok: failed={outcome.failed}")

        report.rows.append(
            CampaignRow(
                kind=kind,
                layer="runner",
                injections=injections,
                detected_by=tuple(detected),
                evidence=evidence,
            )
        )
    return report


# -- the executor-layer campaign ----------------------------------------------


def run_executor_campaign(
    workdir: Path | str,
    plan: Optional[FaultPlan] = None,
    seed: int = 2019,
    cells: int = 6,
    workers: int = 2,
) -> CampaignReport:
    """Aim each lease-protocol fault at the work-stealing executor.

    Every fault mode gets a fresh board (its own cache directory) and a
    ``workers``-strong local topology running the probe cells through the
    real ``run_all`` stack with ``executor="work-stealing"``.  The
    zero-silent-fault contract: each injected fault must be *masked* --
    the affected cells re-executed and the merged artifacts byte-identical
    to a clean local-pool run -- or *detected and quarantined* (the
    cross-host poison cell, with its full attempt history in
    ``failed_cells.json``).  Never a corrupt or missing result.
    """
    import json

    from repro.faults.chaos import ExecutorChaosConfig
    from repro.runner.api import run_all

    plan = plan if plan is not None else default_executor_plan(seed)
    kinds = [
        spec.kind for spec in plan.specs if spec.kind in EXECUTOR_FAULT_KINDS
    ]
    workdir = Path(workdir)
    report = CampaignReport(name="executor", seed=plan.seed)
    ensure_probe_experiment()

    common: Dict[str, Any] = dict(
        filters=[f"{PROBE_EXPERIMENT}/*"],
        options={"chaos_probe_cells": cells},
        progress=False,
    )
    #: Tight protocol timings so every recovery path fires within seconds;
    #: freeze/stale holds must exceed the lease TTL to go stale mid-run.
    protocol: Dict[str, Any] = dict(
        lease_ttl=1.0,
        heartbeat_interval=0.25,
        poll_interval=0.05,
        fallback_after=120.0,
        drain_timeout=180.0,
        worker_kill_threshold=3,
    )

    # Clean reference run through the *local pool*: the acceptance bar is
    # that every chaotic work-stealing run converges to these exact bytes.
    clean_dir = workdir / "clean"
    clean_report = run_all(
        jobs=2, results_dir=clean_dir, cache_dir=workdir / "clean-cache",
        **common,
    )
    if not clean_report.ok:
        report.baseline_violations.append(
            f"clean run failed: {clean_report.failed}"
        )
    reference = _artifact_bytes(clean_dir)
    if not reference:
        report.baseline_violations.append("clean run produced no artifacts")

    # Fault-free work-stealing baseline: the protocol itself must add no
    # retries, reclaims, or divergence before any fault is injected.
    steal_dir = workdir / "steal-clean"
    steal_report = run_all(
        results_dir=steal_dir,
        cache_dir=workdir / "steal-clean-cache",
        executor="work-stealing",
        workers=workers,
        executor_options=dict(protocol),
        **common,
    )
    if not steal_report.ok:
        report.baseline_violations.append(
            f"fault-free work-stealing run failed: {steal_report.failed}"
        )
    elif _artifact_bytes(steal_dir) != reference:
        report.baseline_violations.append(
            "fault-free work-stealing artifacts diverge from the local pool"
        )

    #: fault kind -> (hardening mechanism, RunReport counter).
    mode_map = {
        "worker-sigkill": ("lease-reclaim", "leases_reclaimed"),
        "heartbeat-freeze": ("lease-reclaim", "leases_reclaimed"),
        "duplicate-lease": ("duplicate-detect", "duplicate_completions"),
        "stale-lease": ("lease-reclaim", "leases_reclaimed"),
        "torn-journal": ("torn-tail-reader", "torn_journals"),
        "result-tamper": ("integrity-envelope", "corrupt_results"),
    }
    for kind in kinds:
        results_dir = workdir / kind
        cache_dir = workdir / f"{kind}-cache"
        detected: List[str] = []
        evidence: List[str] = []
        injections = 0

        if kind == "cross-host-poison":
            poisoned = f"{PROBE_EXPERIMENT}/cell-00"
            chaos = ExecutorChaosConfig(
                seed=plan.seed, modes=(), rate=0.0, poison_idents=(poisoned,)
            )
            injections = 1
            evidence.append(f"poisoned {poisoned} on every worker")
            outcome = run_all(
                results_dir=results_dir,
                cache_dir=cache_dir,
                executor="work-stealing",
                workers=workers,
                executor_options=dict(protocol),
                executor_chaos=chaos,
                **common,
            )
            manifest_path = results_dir / "failed_cells.json"
            quarantined = (
                not outcome.ok
                and poisoned in outcome.failed
                and outcome.completed == cells - 1
                and manifest_path.is_file()
            )
            if quarantined:
                detected.append("quarantine")
                manifest = json.loads(manifest_path.read_text())
                history = next(
                    (
                        entry.get("history", [])
                        for entry in manifest.get("failed", [])
                        if entry.get("ident") == poisoned
                    ),
                    [],
                )
                attempt_workers = {
                    str(record.get("worker"))
                    for record in history
                    if record.get("worker")
                }
                if history and attempt_workers:
                    detected.append("attempt-history")
                    evidence.append(
                        f"{len(history)} attempts across"
                        f" {len(attempt_workers)} workers in the manifest"
                    )
        else:
            mechanism, counter = mode_map[kind]
            chaos = ExecutorChaosConfig(
                seed=plan.seed,
                modes=(kind,),
                rate=1.0,
                max_attempt=1,
                freeze_seconds=2.5,
            )
            outcome = run_all(
                results_dir=results_dir,
                cache_dir=cache_dir,
                executor="work-stealing",
                workers=workers,
                executor_options=dict(protocol),
                executor_chaos=chaos,
                **common,
            )
            injections = cells  # rate=1.0 targets every first attempt
            engaged = getattr(outcome, counter)
            if engaged:
                detected.append(mechanism)
                evidence.append(f"{counter}={engaged}")
            if kind == "worker-sigkill" and outcome.worker_crashes:
                detected.append("worker-respawn")
                evidence.append(f"worker_crashes={outcome.worker_crashes}")
            if outcome.ok and _artifact_bytes(results_dir) == reference:
                detected.append("artifact-match")
            elif not outcome.ok:
                evidence.append(f"run not ok: failed={outcome.failed}")
            elif _artifact_bytes(results_dir) != reference:
                evidence.append("artifacts diverge from the local pool")

        report.rows.append(
            CampaignRow(
                kind=kind,
                layer="executor",
                injections=injections,
                detected_by=tuple(detected),
                evidence=evidence,
            )
        )
    return report


def run_campaigns(
    which: str,
    workdir: Path | str,
    seed: int = 2019,
    design: str = "SA",
    workers: int = 2,
) -> List[CampaignReport]:
    """The CLI's entry: ``sim``, ``runner``, ``executor`` or ``all``."""
    reports: List[CampaignReport] = []
    if which in ("sim", "all"):
        reports.append(run_sim_campaign(design=design, seed=seed))
    if which in ("runner", "all"):
        reports.append(run_runner_campaign(Path(workdir), seed=seed))
    if which in ("executor", "all"):
        reports.append(
            run_executor_campaign(
                Path(workdir) / "executor", seed=seed, workers=workers
            )
        )
    return reports
