"""The existing mitigations of Section 2.3, evaluated with the harness.

The paper surveys five pre-existing (mostly software) approaches and
credits each with a defence count over the 24 Table 2 rows:

* **ASID-tagged SA TLBs** (today's Linux): 10 of 24 -- already the
  baseline ``TLBKind.SA`` evaluation;
* **Sanctum's security-monitor flush / Intel SGX's enclave-exit flush**:
  flushing the TLB on every protection-domain switch adds the 4 external
  miss-based rows, for 14 of 24;
* **fully associative TLBs**: a single set means miss-based rows carry no
  set-conflict information, for 18 of 24.

This module reproduces those counts by re-running the Table 4 harness
under each mitigation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.security.evaluate import (
    TABLE4_TLB,
    EvaluationConfig,
    SecurityEvaluator,
    VulnerabilityResult,
)
from repro.tlb import HierarchySpec, TLBKind, fully_associative


@dataclass(frozen=True)
class MitigationResult:
    """One mitigation's measured defence count."""

    name: str
    results: List[VulnerabilityResult]
    paper_claim: int

    @property
    def defended(self) -> int:
        return sum(1 for result in self.results if result.defended)

    @property
    def matches_paper(self) -> bool:
        return self.defended == self.paper_claim


@dataclass(frozen=True)
class MitigationSpec:
    """A ladder rung: how to configure the harness for one mitigation."""

    key: str
    name: str
    paper_claim: int
    kind: TLBKind
    flush_on_switch: bool = False
    #: When set, replace the default TLB organization by a fully
    #: associative one of this many entries.
    fa_entries: Optional[int] = None

    def evaluation_config(self, trials: int) -> EvaluationConfig:
        return EvaluationConfig(
            trials=trials, flush_on_switch=self.flush_on_switch
        )

    def design(self) -> HierarchySpec:
        """The flat design this rung evaluates."""
        if self.fa_entries is not None:
            config = fully_associative(self.fa_entries)
        else:
            config = TABLE4_TLB
        return HierarchySpec.flat(self.kind.value, config)


#: Section 2.3's ladder, plus the paper's own designs for reference,
#: in presentation order.
MITIGATION_SPECS: Tuple[MitigationSpec, ...] = (
    MitigationSpec(
        "asid", "ASID-tagged SA TLB (Linux baseline)", 10, TLBKind.SA
    ),
    MitigationSpec(
        "flush", "SA TLB + flush on switch (Sanctum / SGX)", 14, TLBKind.SA,
        flush_on_switch=True,
    ),
    MitigationSpec(
        "fa", "fully associative 32-entry TLB", 18, TLBKind.SA, fa_entries=32
    ),
    MitigationSpec(
        "sp", "Static-Partition TLB (this paper)", 14, TLBKind.SP
    ),
    MitigationSpec("rf", "Random-Fill TLB (this paper)", 24, TLBKind.RF),
)


def spec_by_key(key: str) -> MitigationSpec:
    for spec in MITIGATION_SPECS:
        if spec.key == key:
            return spec
    raise KeyError(f"unknown mitigation {key!r}")


def mitigation_cells() -> List[Tuple[MitigationSpec, int, Vulnerability]]:
    """The ladder's work-list: one (rung, row) cell per entry.

    Cells are independent (the harness seeds each from its own label), so
    the ladder shards at this granularity under :mod:`repro.runner`.
    """
    rows = table2_vulnerabilities()
    return [
        (spec, index, vulnerability)
        for spec in MITIGATION_SPECS
        for index, vulnerability in enumerate(rows)
    ]


def run_mitigation_cell(
    key: str, vulnerability_index: int, trials: int = 60
) -> VulnerabilityResult:
    """Evaluate one Table 2 row under one mitigation (a pure cell)."""
    spec = spec_by_key(key)
    evaluator = SecurityEvaluator(spec.evaluation_config(trials))
    vulnerability = table2_vulnerabilities()[vulnerability_index]
    return evaluator.evaluate_vulnerability(vulnerability, spec.design())


def _evaluate_spec(spec: MitigationSpec, trials: int) -> MitigationResult:
    evaluator = SecurityEvaluator(spec.evaluation_config(trials))
    design = spec.design()
    return MitigationResult(
        name=spec.name,
        results=[
            evaluator.evaluate_vulnerability(vulnerability, design)
            for vulnerability in table2_vulnerabilities()
        ],
        paper_claim=spec.paper_claim,
    )


def evaluate_asid_baseline(trials: int = 60) -> MitigationResult:
    """Standard SA TLB with ASIDs: the paper's 10-of-24 baseline."""
    return _evaluate_spec(spec_by_key("asid"), trials)


def evaluate_flush_on_switch(trials: int = 60) -> MitigationResult:
    """Sanctum/SGX-style full flush on every process switch: 14 of 24."""
    return _evaluate_spec(spec_by_key("flush"), trials)


def evaluate_fully_associative(
    entries: int = 32, trials: int = 60
) -> MitigationResult:
    """A fully associative TLB: miss-based rows lose their signal (18/24).

    With a single set, the victim's secret access contends with *every*
    translation equally, so eviction patterns no longer depend on whether
    ``u`` "maps to the tested block" -- only the 6 hit-based Internal
    Collision rows (exact-address collisions) survive.
    """
    spec = MitigationSpec(
        "fa", f"fully associative {entries}-entry TLB", 18, TLBKind.SA,
        fa_entries=entries,
    )
    return _evaluate_spec(spec, trials)


def evaluate_all_mitigations(trials: int = 60) -> List[MitigationResult]:
    """Section 2.3's ladder, plus the paper's own designs for reference."""
    return [_evaluate_spec(spec, trials) for spec in MITIGATION_SPECS]


def format_mitigation_ladder(results: List[MitigationResult]) -> str:
    lines = [
        f"{'Mitigation':45} {'defended':>9} {'paper':>6}  match",
        "-" * 72,
    ]
    for result in results:
        lines.append(
            f"{result.name:45} {result.defended:>6}/24 {result.paper_claim:>6}  "
            f"{'yes' if result.matches_paper else 'NO'}"
        )
    return "\n".join(lines)
