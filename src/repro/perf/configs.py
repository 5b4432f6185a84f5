"""The 19 TLB configurations of the performance evaluation (Section 6.2).

Standard (SA) TLBs are tested in seven organizations -- the single-entry
``1E`` approximation of "no TLB", plus fully associative and 2/4-way at 32
and 128 entries -- and the SP and RF designs in the six multi-way ones
(partitioning needs at least two ways), for the paper's total of 19.
"""

from __future__ import annotations

from typing import Iterator, Tuple

from repro.tlb import TLBConfig, TLBKind, fully_associative, single_entry

#: Figure 7's per-design organizations, in plot order.
STANDARD_LABELS = ("1E", "FA 32", "2W 32", "4W 32", "FA 128", "2W 128", "4W 128")
SECURE_LABELS = STANDARD_LABELS[1:]


def config_by_label(label: str) -> TLBConfig:
    if label == "1E":
        return single_entry()
    kind, entries_text = label.split()
    entries = int(entries_text)
    if kind == "FA":
        return fully_associative(entries)
    if kind.endswith("W"):
        return TLBConfig(entries=entries, ways=int(kind[:-1]))
    raise ValueError(f"unknown configuration label {label!r}")


def labels_for(kind: TLBKind) -> Tuple[str, ...]:
    """The organizations evaluated for one design."""
    if kind is TLBKind.SA:
        return STANDARD_LABELS
    return SECURE_LABELS


def all_configurations() -> Iterator[Tuple[TLBKind, str, TLBConfig]]:
    """All 19 (design, label, config) combinations of the evaluation."""
    for kind in (TLBKind.SA, TLBKind.SP, TLBKind.RF):
        for label in labels_for(kind):
            yield (kind, label, config_by_label(label))


def configuration_count() -> int:
    return sum(1 for _ in all_configurations())
