"""The Table 5 area model (FPGA Slice LUTs / Slice Registers).

FPGA synthesis is replaced by an analytical area model: a linear model over
the structural parameters that actually cost area in the designs --

* per-entry translation storage (registers scale with entries),
* the tag-match network (fully associative organizations compare against
  every entry; set-associative ones against the ways of one set),
* the Static-Partition TLB's extra way-masking (near-zero cost, matching
  the paper's ~0.4%/0.1% deltas),
* the Random-Fill TLB's Random Fill Engine, no-fill buffer, region
  registers and per-entry Sec bits (a fixed block plus a per-entry term,
  matching the paper's ~6-8% deltas),

-- with coefficients least-squares calibrated against the 19 synthesis
results the paper reports (Table 5, embedded below verbatim).  The model's
job is the paper's claim structure: SP costs almost nothing on top of SA,
RF costs a few percent, and both scale like the standard TLB with entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.tlb import TLBConfig, TLBKind

from .configs import config_by_label

#: Table 5, verbatim: (design, configuration) -> (Slice LUTs, Slice Registers).
PAPER_TABLE5: Dict[Tuple[TLBKind, str], Tuple[int, int]] = {
    (TLBKind.SA, "1E"): (35266, 18359),
    (TLBKind.SA, "FA 32"): (36395, 22199),
    (TLBKind.SA, "2W 32"): (36298, 23513),
    (TLBKind.SA, "4W 32"): (36043, 22765),
    (TLBKind.SA, "FA 128"): (40177, 33815),
    (TLBKind.SA, "2W 128"): (39684, 38630),
    (TLBKind.SA, "4W 128"): (38107, 35694),
    (TLBKind.SP, "FA 32"): (36499, 22251),
    (TLBKind.SP, "2W 32"): (36387, 23523),
    (TLBKind.SP, "4W 32"): (36183, 22798),
    (TLBKind.SP, "FA 128"): (40568, 33824),
    (TLBKind.SP, "2W 128"): (38609, 38521),
    (TLBKind.SP, "4W 128"): (38049, 35659),
    (TLBKind.RF, "FA 32"): (38281, 22697),
    (TLBKind.RF, "2W 32"): (38510, 25643),
    (TLBKind.RF, "4W 32"): (38266, 24018),
    (TLBKind.RF, "FA 128"): (42740, 34252),
    (TLBKind.RF, "2W 128"): (42509, 45823),
    (TLBKind.RF, "4W 128"): (41259, 39538),
}

#: Every design's Block RAM / DSP usage is constant (Section 6.6).
BLOCK_RAMS = 24
DSPS = 15

BASELINE = (TLBKind.SA, "4W 32")


@dataclass(frozen=True)
class AreaEstimate:
    """Predicted area of one configuration."""

    luts: float
    registers: float

    def delta(self, baseline: "AreaEstimate") -> "AreaEstimate":
        return AreaEstimate(
            luts=self.luts - baseline.luts,
            registers=self.registers - baseline.registers,
        )


def _features(kind: TLBKind, config: TLBConfig) -> List[float]:
    """The structural cost drivers of one configuration."""
    entries = float(config.entries)
    comparators = float(
        config.entries if config.fully_associative else config.ways
    )
    is_sp = 1.0 if kind is TLBKind.SP else 0.0
    is_rf = 1.0 if kind is TLBKind.RF else 0.0
    return [
        1.0,  # the Rocket core around the TLB
        entries,  # per-entry storage
        comparators,  # tag-match network width
        is_sp,  # partition masking (fixed)
        is_rf,  # RFE + buffer + region registers (fixed block)
        is_rf * entries,  # per-entry Sec bit and fill routing
    ]


class AreaModel:
    """Least-squares calibration of the feature model against Table 5."""

    def __init__(self) -> None:
        rows = []
        luts = []
        registers = []
        for (kind, label), (lut_count, register_count) in PAPER_TABLE5.items():
            rows.append(_features(kind, config_by_label(label)))
            luts.append(lut_count)
            registers.append(register_count)
        matrix = np.array(rows)
        self._lut_coefficients, *_ = np.linalg.lstsq(
            matrix, np.array(luts, dtype=float), rcond=None
        )
        self._register_coefficients, *_ = np.linalg.lstsq(
            matrix, np.array(registers, dtype=float), rcond=None
        )

    def predict(self, kind: TLBKind, config_label: str) -> AreaEstimate:
        features = np.array(
            _features(kind, config_by_label(config_label))
        )
        return AreaEstimate(
            luts=float(features @ self._lut_coefficients),
            registers=float(features @ self._register_coefficients),
        )

    def baseline(self) -> AreaEstimate:
        return self.predict(*BASELINE)

    def overhead_fraction(self, kind: TLBKind, config_label: str) -> Tuple[float, float]:
        """(LUT, register) overhead of a secure design over the same-shape
        standard TLB -- the paper's headline percentages."""
        secure = self.predict(kind, config_label)
        standard = self.predict(TLBKind.SA, config_label)
        return (
            secure.luts / standard.luts - 1.0,
            secure.registers / standard.registers - 1.0,
        )

    def table5(self) -> str:
        """Render model predictions next to the paper's synthesis numbers."""
        baseline = self.baseline()
        lines = [
            f"{'TLB':4} {'config':8} {'LUTs(model)':>12} {'LUTs(paper)':>12} "
            f"{'dLUT(model)':>12} {'regs(model)':>12} {'regs(paper)':>12}",
            "-" * 80,
        ]
        for (kind, label), (paper_luts, paper_registers) in PAPER_TABLE5.items():
            estimate = self.predict(kind, label)
            delta = estimate.delta(baseline)
            lines.append(
                f"{kind.value:4} {label:8} {estimate.luts:>12.0f} "
                f"{paper_luts:>12} {delta.luts:>12.0f} "
                f"{estimate.registers:>12.0f} {paper_registers:>12}"
            )
        lines.append(
            f"(Block RAMs = {BLOCK_RAMS}, DSPs = {DSPS} for all configurations)"
        )
        return "\n".join(lines)

    def max_relative_error(self) -> Tuple[float, float]:
        """Worst-case |model - paper| / paper over Table 5 (fit quality)."""
        worst_luts = 0.0
        worst_registers = 0.0
        for (kind, label), (paper_luts, paper_registers) in PAPER_TABLE5.items():
            estimate = self.predict(kind, label)
            worst_luts = max(
                worst_luts, abs(estimate.luts - paper_luts) / paper_luts
            )
            worst_registers = max(
                worst_registers,
                abs(estimate.registers - paper_registers) / paper_registers,
            )
        return worst_luts, worst_registers
