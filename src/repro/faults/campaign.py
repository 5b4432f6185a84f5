"""Chaos campaigns: inject every fault class, prove each one is caught.

Two campaigns mirror the package's two layers:

* :func:`run_sim_campaign` arms each sim-layer fault of a
  :class:`~repro.faults.plan.FaultPlan` against a fresh
  :class:`repro.sim.MemorySystem` running a fixed deterministic workload,
  with the full :class:`~repro.faults.detectors.DetectorSuite` attached.
  The product is a *detection matrix*: fault class x detectors that fired.
  A fault no detector reports is a **silent fault** -- the campaign's
  failure condition, gating CI.

* :func:`run_runner_campaign` aims each runner-layer fault at a cheap
  probe experiment under each executor backend that implements it
  (:data:`repro.runner.policy.BACKEND_FAULT_MODES`), through the real
  ``run_all`` stack (worker processes, lease board, cache, artifacts),
  and checks the matching hardening mechanism engaged *and* the final
  artifacts are byte-identical to one clean pool run's (or, for poison
  cells, that the run quarantined them with their attempt history).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.mmu.walker import make_walker
from repro.runner.api import run_all
from repro.runner.policy import BACKEND_FAULT_MODES, ChaosConfig
from repro.runner.registry import COUNT, REGISTRY, Experiment, Option, register
from repro.sim.system import MemorySystem

from .detectors import DetectorSuite
from .injector import SimFaultInjector
from .plan import FaultPlan, default_runner_plan, default_sim_plan

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
    #: The executor backend a runner fault ran under (None for sim faults).
    backend: Optional[str] = None

    @property
    def label(self) -> str:
        return f"{self.kind}/{self.backend}" if self.backend else self.kind

    @property
    def silent(self) -> bool:
        """Injected but caught by nothing: the failure condition."""
        return self.injections > 0 and not self.detected_by

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "layer": self.layer,
            "backend": self.backend,
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
        return [row.label for row in self.rows if row.silent]

    @property
    def not_injected(self) -> List[str]:
        return [row.label for row in self.rows if row.injections == 0]

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
        backends = max(
            (len(row.backend or "") for row in self.rows), default=0
        )
        column = f"{'backend':<{backends}}  " if backends else ""
        header = f"{'fault':<{width}}  {column}inj  detected by"
        lines += [header, "-" * len(header)]
        for row in self.rows:
            caught = ", ".join(row.detected_by) if row.detected_by else (
                "SILENT" if row.injections else "not injected"
            )
            backend = f"{row.backend or '':<{backends}}  " if backends else ""
            lines.append(
                f"{row.kind:<{width}}  {backend}{row.injections:>3}  {caught}"
            )
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

    from repro.tlb import TLBKind, make_hierarchy, make_tlb
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


#: The executor backends the runner campaign aims its faults at.
BACKENDS: Tuple[str, ...] = ("pool", "work-stealing")

#: Runner fault kind -> (the hardening mechanism that must engage, the
#: :class:`~repro.runner.progress.RunReport` counter that shows it did).
MECHANISMS: Dict[str, Tuple[str, str]] = {
    "hang": ("watchdog", "watchdog_kills"),
    "crash": ("crash-recovery", "worker_crashes"),
    "corrupt-result": ("integrity-envelope", "corrupt_results"),
    "heartbeat-freeze": ("lease-reclaim", "leases_reclaimed"),
    "duplicate-lease": ("duplicate-detect", "duplicate_completions"),
    "stale-lease": ("lease-reclaim", "leases_reclaimed"),
    "torn-journal": ("torn-tail-reader", "torn_journals"),
    "poison": ("quarantine", "quarantined"),
    "torn-cache": ("cache-checksum", "cache_corrupt"),
}

#: Tight timings, so every recovery path fires within seconds: a 1 s
#: pool watchdog and lease TTL, and hung or frozen workers that hold
#: their cell 2.5 s, past both.
HOLD_SECONDS = 2.5
BACKEND_RUNS: Dict[str, Dict[str, Any]] = {
    "pool": dict(task_timeout=1.0),
    "work-stealing": dict(
        executor="work-stealing",
        executor_options=dict(
            lease_ttl=1.0,
            heartbeat_interval=0.25,
            poll_interval=0.05,
            fallback_after=120.0,
            drain_timeout=180.0,
        ),
    ),
}


def backends_for(kind: str) -> Tuple[str, ...]:
    """The backends a runner fault kind runs under in the matrix."""
    if kind == "torn-cache":
        return BACKENDS  # the cache sits in front of either backend
    return tuple(
        backend for backend in BACKENDS
        if kind in BACKEND_FAULT_MODES[backend]
    )


def _tear_one_cache_entry(cache_dir: Path) -> Optional[str]:
    """Truncate one cache entry mid-file; returns its name."""
    entries = sorted(Path(cache_dir).rglob("*.pkl"))
    if not entries:
        return None
    victim = entries[len(entries) // 2]
    blob = victim.read_bytes()
    victim.write_bytes(blob[: max(1, len(blob) // 2)])
    return victim.name


def _quarantine_history(
    results_dir: Path, ident: str
) -> List[Dict[str, Any]]:
    """The attempt history ``failed_cells.json`` carries for ``ident``."""
    manifest_path = results_dir / "failed_cells.json"
    if not manifest_path.is_file():
        return []
    manifest = json.loads(manifest_path.read_text())
    return next(
        (
            entry.get("history", [])
            for entry in manifest.get("failed", [])
            if entry.get("ident") == ident
        ),
        [],
    )


def run_runner_campaign(
    workdir: Path | str,
    plan: Optional[FaultPlan] = None,
    seed: int = 2019,
    cells: int = 6,
    jobs: int = 2,
    workers: int = 2,
) -> CampaignReport:
    """Aim each runner fault at the probe cells under each backend.

    Every (fault, backend) cell of the matrix gets its own results and
    cache directories (so its own lease board) and runs the probe cells
    through the real ``run_all`` stack: a ``jobs``-process pool, or
    ``workers`` local work-stealing workers.  The zero-silent-fault
    contract: each injected fault must be *masked* -- its mechanism
    engaged and the merged artifacts byte-identical to one clean pool
    run's -- or *quarantined*, the poison cell failing alone with its
    attempt history in ``failed_cells.json``.
    """
    plan = plan if plan is not None else default_runner_plan(seed)
    workdir = Path(workdir)
    report = CampaignReport(name="runner", seed=plan.seed)
    ensure_probe_experiment()

    common: Dict[str, Any] = dict(
        filters=[f"{PROBE_EXPERIMENT}/*"],
        options={"chaos_probe_cells": cells},
        progress=False,
    )

    # The one clean reference run: the artifact bytes every chaotic run
    # under either backend must match.
    clean_dir = workdir / "clean"
    clean_report = run_all(
        jobs=jobs, results_dir=clean_dir, cache_dir=workdir / "clean-cache",
        **common,
    )
    if not clean_report.ok:
        report.baseline_violations.append(
            f"clean run failed: {clean_report.failed}"
        )
    reference = _artifact_bytes(clean_dir)
    if not reference:
        report.baseline_violations.append("clean run produced no artifacts")

    poisoned = f"{PROBE_EXPERIMENT}/cell-00"
    for spec in plan.specs:
        if spec.layer != "runner":
            continue
        kind = spec.kind
        mechanism, counter = MECHANISMS[kind]
        for backend in backends_for(kind):
            results_dir = workdir / f"{kind}-{backend}"
            run: Dict[str, Any] = dict(
                results_dir=results_dir,
                cache_dir=workdir / f"{kind}-{backend}-cache",
                jobs=jobs,
                workers=workers,
                **BACKEND_RUNS[backend],
                **common,
            )
            detected: List[str] = []
            evidence: List[str] = []
            chaos: Optional[ChaosConfig] = None
            if kind == "torn-cache":
                # Populate the cache, tear one entry mid-write, rerun: the
                # checksum read must spot the torn file and recompute it.
                run_all(**run)
                victim = _tear_one_cache_entry(run["cache_dir"])
                injections = 1 if victim else 0
                evidence.append(f"truncated {victim}")
            elif kind == "poison":
                chaos = ChaosConfig(seed=plan.seed, poison_idents=(poisoned,))
                injections = 1
                evidence.append(f"poisoned {poisoned} on every attempt")
            else:
                chaos = ChaosConfig(
                    seed=plan.seed, modes=(kind,), rate=1.0,
                    hang_seconds=HOLD_SECONDS,
                )
                injections = cells  # rate=1.0 targets every first attempt
            outcome = run_all(chaos=chaos, **run)
            engaged = getattr(outcome, counter)
            if engaged:
                detected.append(mechanism)
                evidence.append(f"{counter}={engaged}")
            if kind == "poison":
                history = _quarantine_history(results_dir, poisoned)
                workers_seen = {
                    str(record.get("worker")) for record in history
                    if record.get("worker") is not None
                }
                if (
                    outcome.failed == [poisoned]
                    and outcome.completed == cells - 1
                    and workers_seen
                ):
                    detected.append("attempt-history")
                    evidence.append(
                        f"{len(history)} attempts across"
                        f" {len(workers_seen)} workers in the manifest"
                    )
            elif outcome.ok and _artifact_bytes(results_dir) == reference:
                detected.append("artifact-match")
            elif not outcome.ok:
                evidence.append(f"run not ok: failed={outcome.failed}")
            else:
                evidence.append("artifacts diverge from the clean pool run")
            report.rows.append(
                CampaignRow(
                    kind=kind,
                    layer="runner",
                    injections=injections,
                    detected_by=tuple(detected),
                    evidence=evidence,
                    backend=backend,
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
    """The CLI's entry: ``sim``, ``runner`` or ``all``."""
    reports: List[CampaignReport] = []
    if which in ("sim", "all"):
        reports.append(run_sim_campaign(design=design, seed=seed))
    if which in ("runner", "all"):
        reports.append(
            run_runner_campaign(Path(workdir), seed=seed, workers=workers)
        )
    return reports
