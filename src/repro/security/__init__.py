"""Security benchmarks and the Table 4 evaluation (Sections 5.1 and 5.3).

* :mod:`repro.security.benchgen` -- generates a runnable micro security
  benchmark (Figure 6 style) from any three-step vulnerability;
* :mod:`repro.security.theory` -- the closed-form p1/p2/capacity values of
  Section 5.3 for the SA, SP and RF designs;
* :mod:`repro.security.evaluate` -- the one trial loop over any
  :class:`repro.tlb.HierarchySpec`, which regenerates Table 4 (24 x 1000
  trials) and the headline defence counts (SA 10/24, SP 14/24, RF 24/24)
  as well as every other security table.
"""

from repro.tlb import TLBKind, make_hierarchy, make_tlb

from .benchgen import (
    BenchmarkLayout,
    alias_page,
    generate,
    layout_for_spec,
    region_size_for,
    secret_page,
)
from .evaluate import (
    TABLE4_TLB,
    EvaluationConfig,
    SecurityEvaluator,
    VulnerabilityResult,
    defended_counts,
    extended_cells,
    format_table4,
    table4_cells,
    table4_spec,
)
from .theory import TheoreticalModel

__all__ = [
    "TABLE4_TLB",
    "BenchmarkLayout",
    "EvaluationConfig",
    "SecurityEvaluator",
    "TLBKind",
    "TheoreticalModel",
    "VulnerabilityResult",
    "alias_page",
    "defended_counts",
    "extended_cells",
    "format_table4",
    "generate",
    "table4_cells",
    "table4_spec",
    "layout_for_spec",
    "make_hierarchy",
    "make_tlb",
    "region_size_for",
    "secret_page",
]
