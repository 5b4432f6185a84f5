"""CSV export of evaluation results, for external plotting/analysis.

Writes the Figure 7 cells and Table 4 rows as flat CSV files, so the
regenerated data can be compared against the paper's figures with any
plotting tool.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Union

from repro.tlb import TLBKind

from .harness import Figure7Cell

if TYPE_CHECKING:
    from repro.security.evaluate import VulnerabilityResult

PathLike = Union[str, Path]


def export_figure7_csv(cells: Sequence[Figure7Cell], path: PathLike) -> int:
    """Write one row per (cell, process); returns the number of rows."""
    path = Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "tlb",
                "config",
                "scenario",
                "rsa_runs",
                "process",
                "instructions",
                "cycles",
                "memory_accesses",
                "misses",
                "ipc",
                "mpki",
            ]
        )
        for cell in cells:
            for process_name, result in sorted(cell.results.items()):
                writer.writerow(
                    [
                        cell.kind.value,
                        cell.config_label,
                        cell.scenario.label,
                        cell.rsa_runs,
                        process_name,
                        result.instructions,
                        result.cycles,
                        result.memory_accesses,
                        result.misses,
                        f"{result.ipc:.6f}",
                        f"{result.mpki:.6f}",
                    ]
                )
                rows += 1
    return rows


def export_table4_csv(
    table: Dict[TLBKind, List[VulnerabilityResult]], path: PathLike
) -> int:
    """Write one row per (design, vulnerability); returns the row count."""
    path = Path(path)
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(
            [
                "tlb",
                "strategy",
                "vulnerability",
                "observation",
                "macro_type",
                "n_mm",
                "n_nm",
                "trials",
                "p1_measured",
                "p2_measured",
                "capacity_measured",
                "p1_theory",
                "p2_theory",
                "capacity_theory",
                "defended",
            ]
        )
        for kind, results in table.items():
            for result in results:
                estimate = result.estimate
                writer.writerow(
                    [
                        kind.value,
                        result.vulnerability.strategy.value,
                        result.vulnerability.pattern.pretty(),
                        result.vulnerability.observation.value,
                        result.vulnerability.macro_type.value,
                        estimate.misses_mapped,
                        estimate.misses_unmapped,
                        estimate.trials_per_behaviour,
                        f"{estimate.p1:.6f}",
                        f"{estimate.p2:.6f}",
                        f"{estimate.capacity:.6f}",
                        _theory_field(result.theoretical_p1),
                        _theory_field(result.theoretical_p2),
                        _theory_field(result.theoretical_capacity),
                        int(result.defended),
                    ]
                )
                rows += 1
    return rows


def _theory_field(value) -> str:
    return "" if value is None else f"{value:.6f}"
