"""Performance and area evaluation (Section 6: Figure 7 and Table 5).

* :mod:`repro.perf.configs` -- the 19 evaluated TLB configurations;
* :mod:`repro.perf.timing` -- the trace-driven IPC/MPKI timing model with
  multiprogrammed round-robin scheduling;
* :mod:`repro.perf.harness` -- the Figure 7 grid (RSA/SecRSA alone and with
  each SPEC workload over every configuration): its cells
  (:func:`figure7_units`) and one cell's measurement (:func:`run_cell`),
  which the registered ``fig7`` experiment runs under ``run-all``,
  ``serve`` and ``python -m repro fig7``;
* :mod:`repro.perf.area` -- the Table 5 area model, least-squares
  calibrated against the paper's synthesis results;
* :mod:`repro.perf.bench` -- the fast-path regression bench
  (``python -m repro bench``), timing the :mod:`repro.sim.kernel` fast
  path against the reference model with counter-equality checks.
"""

from .area import (
    AreaEstimate,
    AreaModel,
    BLOCK_RAMS,
    DSPS,
    PAPER_TABLE5,
)
from .configs import (
    SECURE_LABELS,
    STANDARD_LABELS,
    all_configurations,
    config_by_label,
    configuration_count,
    labels_for,
)
from .harness import (
    Figure7Cell,
    Figure7Unit,
    PerfSettings,
    Scenario,
    all_scenarios,
    figure7_units,
    format_figure7,
    headline_ratios,
    run_cell,
    scenario_by_label,
)
from .export import export_figure7_csv, export_table4_csv
from .plot import bar_chart, figure7_chart
from .timing import PerfResult, ScheduledProcess, simulate

__all__ = [
    "AreaEstimate",
    "AreaModel",
    "BLOCK_RAMS",
    "DSPS",
    "Figure7Cell",
    "Figure7Unit",
    "PAPER_TABLE5",
    "PerfResult",
    "PerfSettings",
    "Scenario",
    "ScheduledProcess",
    "SECURE_LABELS",
    "STANDARD_LABELS",
    "all_configurations",
    "bar_chart",
    "all_scenarios",
    "config_by_label",
    "configuration_count",
    "export_figure7_csv",
    "export_table4_csv",
    "figure7_chart",
    "figure7_units",
    "format_figure7",
    "scenario_by_label",
    "headline_ratios",
    "labels_for",
    "run_cell",
    "simulate",
]
