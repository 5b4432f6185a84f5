"""The large-page software mitigation (Section 2.3), quantified.

"Using large pages for the crypto libraries can also be one possible
software defense to TLB timing-based attacks."  When the victim's entire
security-critical region sits inside one 2 MiB superpage, every secret
access resolves through the *same* TLB entry: there is no per-page access
pattern left for a page-granular attack to observe.

This ablation re-runs the Table 4 harness with a walker whose victim
address space backs the secure region with a megapage.  The base-model
rows all lose their signal; the paper's caveat -- "there are other ways to
invalidate a page ... to make invalidation related attacks possible" --
is also checked by re-running the Appendix B rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.model.patterns import Vulnerability
from repro.model.table2 import table2_vulnerabilities
from repro.mmu import PageTableWalker, make_walker
from repro.security.benchgen import BenchmarkLayout
from repro.security.evaluate import (
    EvaluationConfig,
    SecurityEvaluator,
    VulnerabilityResult,
    table4_spec,
)
from repro.tlb import TLBKind

#: Pages per level-1 superpage (Sv39 megapage).
MEGAPAGE_SPAN = 512


def _superpage_walker_factory(layout: BenchmarkLayout):
    """A walker whose victim address space maps the secure region's
    megapage as a single superpage (other pages auto-map as 4 KiB)."""
    base = (layout.sbase // MEGAPAGE_SPAN) * MEGAPAGE_SPAN

    def factory() -> PageTableWalker:
        walker = make_walker()
        table = walker.table_for(layout.victim_pid)
        table.map_page(base, 0x200_000, level=1)
        return walker

    return factory


@dataclass(frozen=True)
class LargePageResult:
    """Outcome of the large-page mitigation evaluation."""

    base_results: List[VulnerabilityResult]
    extended_results: List[VulnerabilityResult]

    @property
    def base_defended(self) -> int:
        return sum(1 for result in self.base_results if result.defended)

    @property
    def extended_defended(self) -> int:
        return sum(1 for result in self.extended_results if result.defended)


def large_page_cells(
    kind: TLBKind = TLBKind.SA,
) -> List[Tuple[str, int, Vulnerability]]:
    """The work-list: ("base"|"extended", row index, row) per cell."""
    from repro.model.extended import invalidation_only_vulnerabilities

    cells = [
        ("base", index, vulnerability)
        for index, vulnerability in enumerate(table2_vulnerabilities())
    ]
    cells.extend(
        ("extended", index, vulnerability)
        for index, vulnerability in enumerate(
            invalidation_only_vulnerabilities()
        )
    )
    return cells


def run_large_page_cell(
    model: str,
    vulnerability_index: int,
    kind: TLBKind = TLBKind.SA,
    trials: int = 40,
) -> VulnerabilityResult:
    """Evaluate one row with the secure region on a megapage (a pure cell)."""
    from repro.model.extended import invalidation_only_vulnerabilities

    if model == "base":
        vulnerability = table2_vulnerabilities()[vulnerability_index]
    elif model == "extended":
        vulnerability = invalidation_only_vulnerabilities()[
            vulnerability_index
        ]
    else:
        raise ValueError(f"unknown model {model!r}")
    layout = BenchmarkLayout()
    config = EvaluationConfig(
        trials=trials, walker_factory=_superpage_walker_factory(layout)
    )
    evaluator = SecurityEvaluator(config)
    return evaluator.evaluate_vulnerability(vulnerability, table4_spec(kind))


def evaluate_large_pages(
    kind: TLBKind = TLBKind.SA, trials: int = 40
) -> LargePageResult:
    """Run the base and extended rows with the secure region on a megapage.

    The benchmark layout is unchanged -- the attacker's ``d`` and filler
    pages live in different megapage frames and auto-map as 4 KiB pages --
    so only the victim's in-region behaviour changes.
    """
    base: List[VulnerabilityResult] = []
    extended: List[VulnerabilityResult] = []
    for model, index, _vulnerability in large_page_cells(kind):
        result = run_large_page_cell(model, index, kind, trials)
        (base if model == "base" else extended).append(result)
    return LargePageResult(base_results=base, extended_results=extended)


def format_large_page_comparison(
    with_large_pages: LargePageResult,
    baseline_base_defended: int,
    baseline_extended_defended: int,
) -> str:
    lines = [
        f"{'configuration':44} {'base rows':>10} {'extended rows':>14}",
        "-" * 72,
        f"{'SA TLB, 4 KiB crypto pages (baseline)':44} "
        f"{baseline_base_defended:>7}/24 "
        f"{baseline_extended_defended:>11}/48",
        f"{'SA TLB, crypto region on one 2 MiB page':44} "
        f"{with_large_pages.base_defended:>7}/24 "
        f"{with_large_pages.extended_defended:>11}/48",
    ]
    return "\n".join(lines)
