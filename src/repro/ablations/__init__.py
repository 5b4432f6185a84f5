"""Ablations: mitigation ladder, large pages, hierarchies and sweeps.

* :mod:`repro.ablations.mitigations` -- the pre-existing mitigations of
  Section 2.3 re-evaluated with the Table 4 harness (ASIDs 10/24, Sanctum
  or SGX-style flush-on-switch 14/24, fully associative 18/24) alongside
  the paper's SP (14/24) and RF (24/24) designs;
* :mod:`repro.ablations.large_pages` -- the crypto region on one 2 MiB
  page;
* :mod:`repro.ablations.hierarchy` -- the two-level study and the
  declarative L1 x L2 x PWC sweep;
* :mod:`repro.ablations.sweeps` -- the knobs the paper leaves for future
  work: the SP partition split, the RF secure-region size, the
  replacement policy's effect on the baseline attack, and the walk cost.

Each module enumerates its cells and computes one cell at a time (the
``*_cells`` and ``*_point`` functions); the registered experiments of
:mod:`repro.runner.experiments` run and assemble them, under ``run-all``,
``serve`` and each command (``python -m repro mitigations``, ...).
"""

from .hierarchy import (
    HIERARCHY_EVALUATION,
    HierarchyResult,
    SweepDesignResult,
    format_hierarchy_results,
    format_hierarchy_sweep,
    hierarchy_cells,
    leakage_spec,
    refill_leakage,
    study_spec,
    sweep_perf_point,
    sweep_rows,
    sweep_specs,
)
from .large_pages import (
    LargePageResult,
    format_large_page_comparison,
    large_page_cells,
    run_large_page_cell,
)
from .mitigations import (
    MITIGATION_SPECS,
    MitigationResult,
    MitigationSpec,
    format_mitigation_ladder,
    mitigation_cells,
    run_mitigation_cell,
)
from .sweeps import (
    PartitionPoint,
    PolicyPoint,
    RegionPoint,
    WalkLatencyPoint,
    replacement_policy_point,
    rf_region_point,
    sp_partition_point,
    format_partition_sweep,
    format_region_sweep,
    walk_latency_point,
)

__all__ = [
    "HIERARCHY_EVALUATION",
    "HierarchyResult",
    "SweepDesignResult",
    "LargePageResult",
    "MITIGATION_SPECS",
    "MitigationResult",
    "MitigationSpec",
    "PartitionPoint",
    "PolicyPoint",
    "RegionPoint",
    "format_hierarchy_results",
    "format_hierarchy_sweep",
    "format_large_page_comparison",
    "format_mitigation_ladder",
    "format_partition_sweep",
    "format_region_sweep",
    "hierarchy_cells",
    "large_page_cells",
    "leakage_spec",
    "refill_leakage",
    "study_spec",
    "sweep_perf_point",
    "sweep_rows",
    "sweep_specs",
    "mitigation_cells",
    "replacement_policy_point",
    "rf_region_point",
    "run_large_page_cell",
    "run_mitigation_cell",
    "sp_partition_point",
    "walk_latency_point",
    "WalkLatencyPoint",
]
