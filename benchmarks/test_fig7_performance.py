"""Benchmark: regenerate the Figure 7 series (IPC and MPKI).

Each parametrized case produces one sub-figure's series -- IPC (7a-c) and
MPKI (7d-f) for the SA, SP, and RF designs over the TLB organizations --
for a representative scenario slice (SecRSA alone and with each SPEC
workload).  Each case runs the same cells as the registered ``fig7``
experiment (:func:`repro.perf.figure7_units`, one :func:`repro.perf.run_cell`
each) at reduced settings; the full grid and its run-count series are
``python -m repro fig7``, which prints ``results/fig7_full.txt`` and
``results/fig7_runs_series.txt``.
"""

import pytest

from repro.perf import (
    PerfSettings,
    Scenario,
    figure7_units,
    format_figure7,
    headline_ratios,
    labels_for,
    run_cell,
)
from repro.security import TLBKind
from repro.workloads.spec import SPEC_BENCHMARKS

SETTINGS = PerfSettings(spec_instructions=60_000, key_bits=64)
SCENARIOS = [Scenario(secure=True)] + [
    Scenario(secure=True, spec=spec) for spec in SPEC_BENCHMARKS
]


def figure7_cells(kinds, config_labels=None):
    """The grid's cells for ``kinds`` over SCENARIOS at 10 decryptions."""
    return [
        run_cell(unit.kind, unit.config_label, unit.scenario, unit.rsa_runs,
                 SETTINGS)
        for unit in figure7_units(kinds, SCENARIOS, (10,), config_labels)
    ]


@pytest.mark.parametrize(
    "kind,panel",
    [(TLBKind.SA, "7a/7d"), (TLBKind.SP, "7b/7e"), (TLBKind.RF, "7c/7f")],
    ids=lambda value: str(value),
)
def test_figure7_panels(benchmark, kind, panel):
    cells = benchmark.pedantic(
        figure7_cells, args=((kind,),), rounds=1, iterations=1
    )
    assert len(cells) == len(labels_for(kind)) * len(SCENARIOS)
    print()
    print(f"Figure {panel} -- {kind.value} TLB (IPC and MPKI series):")
    print(format_figure7(cells))
    print()
    from repro.perf import figure7_chart

    print(figure7_chart(cells, "mpki"))
    for cell in cells:
        assert 0 < cell.total.ipc <= 1.0


def test_figure7_headline_ratios(benchmark):
    """Section 6.4/6.5: SP MPKI is a multiple of SA's; RF is close to SA."""

    def run():
        return figure7_cells(
            (TLBKind.SA, TLBKind.SP, TLBKind.RF), ("1E", "4W 32")
        )

    cells = benchmark.pedantic(run, rounds=1, iterations=1)
    ratios = headline_ratios(cells)
    print()
    print("Headline ratios (paper: SP ~3.1x SA MPKI, RF ~1.09x, 1E ~0.62x IPC):")
    for name, value in sorted(ratios.items()):
        print(f"  {name:28} {value:6.3f}")
    assert ratios["sp_over_sa_mpki:4W 32"] > 1.4
    assert 0.7 < ratios["rf_over_sa_mpki:4W 32"] < 1.4
    assert ratios["one_entry_over_sa_ipc"] < 0.7
