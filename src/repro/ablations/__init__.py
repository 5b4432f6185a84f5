"""Ablations: mitigation ladder and design-space sweeps.

* :mod:`repro.ablations.mitigations` -- the pre-existing mitigations of
  Section 2.3 re-evaluated with the Table 4 harness (ASIDs 10/24, Sanctum
  or SGX-style flush-on-switch 14/24, fully associative 18/24) alongside
  the paper's SP (14/24) and RF (24/24) designs;
* :mod:`repro.ablations.sweeps` -- the knobs the paper leaves for future
  work: the SP partition split, the RF secure-region size, and the
  replacement policy's effect on the baseline attack.
"""

from .hierarchy import (
    HIERARCHY_EVALUATION,
    HierarchyResult,
    SweepDesignResult,
    evaluate_hierarchies,
    evaluate_hierarchy,
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
    evaluate_large_pages,
    format_large_page_comparison,
    large_page_cells,
    run_large_page_cell,
)
from .mitigations import (
    MITIGATION_SPECS,
    MitigationResult,
    MitigationSpec,
    evaluate_all_mitigations,
    evaluate_asid_baseline,
    evaluate_flush_on_switch,
    evaluate_fully_associative,
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
    sweep_walk_latency,
    format_partition_sweep,
    format_region_sweep,
    sweep_replacement_policy,
    sweep_rf_region,
    sweep_sp_partition,
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
    "evaluate_all_mitigations",
    "evaluate_hierarchies",
    "evaluate_hierarchy",
    "evaluate_asid_baseline",
    "evaluate_large_pages",
    "evaluate_flush_on_switch",
    "evaluate_fully_associative",
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
    "sweep_replacement_policy",
    "sweep_rf_region",
    "sweep_sp_partition",
    "sweep_walk_latency",
    "walk_latency_point",
    "WalkLatencyPoint",
]
