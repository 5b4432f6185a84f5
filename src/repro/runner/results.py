"""Merge assembled experiment results into the serial path's artifacts.

This module is the byte-exact mirror of ``scripts/run_full_evaluation.py``:
given each experiment's :meth:`~repro.runner.registry.Experiment.assemble`
output, it writes the same ``results/*.txt`` / ``results/*.csv`` files with
the same formatting, so ``python -m repro run-all --jobs N`` and the serial
script produce identical artifacts for any ``N``.

Artifacts are only written when every experiment they draw from completed
in full -- a filtered or partially-failed run skips the affected files
rather than writing truncated ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple

from .progress import RunLog

#: artifact filename -> experiments it needs, in the order used below.
ARTIFACT_SOURCES: Dict[str, Tuple[str, ...]] = {
    "table2.txt": ("table2",),
    "table4_full.txt": ("table4",),
    "table4_full.csv": ("table4",),
    "table7_eval.txt": ("table7",),
    "fig7_full.txt": ("fig7",),
    "fig7_full.csv": ("fig7",),
    "fig7_runs_series.txt": ("fig7",),
    "table5.txt": ("table5",),
    "mitigations.txt": ("mitigations", "largepages", "hierarchy"),
    "hierarchy_sweep.txt": ("hierarchy_sweep",),
    "sweeps.txt": ("sweeps",),
    "attacks.txt": ("attacks",),
}


def _table2_text(value: Mapping[str, Any]) -> str:
    lines = [value["table_text"], ""]
    lines.append(
        f"exact match with the paper's Table 2: {value['match']}"
    )
    for label, entries in (
        ("missing", value["missing"]),
        ("unexpected", value["unexpected"]),
    ):
        for pretty in entries:
            lines.append(f"  {label}: {pretty}")
    return "\n".join(lines) + "\n"


def _table7_text(table: Mapping[Any, List[Any]]) -> str:
    parts = []
    for kind, results in table.items():
        defended = sum(1 for r in results if r.defended)
        parts.append(f"== {kind.value}: defended {defended}/48 ==\n")
        for r in results:
            if not r.defended:
                parts.append(
                    f"  leak: {r.vulnerability.pretty()}"
                    f"  p1*={r.estimate.p1:.2f} p2*={r.estimate.p2:.2f}"
                    f" C*={r.estimate.capacity:.2f}\n"
                )
    return "".join(parts)


def _fig7_text(cells: List[Any]) -> str:
    from repro.perf import figure7_chart, format_figure7, headline_ratios

    parts = [format_figure7(cells), "\n\nheadline ratios:\n"]
    for name, value in sorted(headline_ratios(cells).items()):
        parts.append(f"  {name:30} {value:.3f}\n")
    parts.append("\n\n")
    parts.append(figure7_chart(cells, "mpki"))
    parts.append("\n\n")
    parts.append(figure7_chart(cells, "ipc"))
    return "".join(parts)


def _mitigations_text(
    ladder: List[Any], large_pages: Any, hierarchies: List[Any]
) -> str:
    from repro.ablations import (
        format_hierarchy_results,
        format_large_page_comparison,
        format_mitigation_ladder,
    )

    return (
        format_mitigation_ladder(ladder)
        + "\n\n"
        + format_large_page_comparison(large_pages, 10, 13)
        + "\n\n"
        + format_hierarchy_results(hierarchies)
    )


def _hierarchy_sweep_text(sweep: Mapping[str, Any]) -> str:
    from repro.ablations import format_hierarchy_sweep

    return (
        format_hierarchy_sweep(sweep["designs"], sweep["leakage"]) + "\n"
    )


def _sweeps_text(sweeps: Mapping[str, List[Any]]) -> str:
    from repro.ablations import format_partition_sweep, format_region_sweep

    parts = ["SP partition split:\n"]
    parts.append(format_partition_sweep(sweeps["partition"]))
    parts.append("\n\nRF region size:\n")
    parts.append(format_region_sweep(sweeps["region"]))
    parts.append("\n\nreplacement policy vs TLBleed:\n")
    for p in sweeps["policy"]:
        full = "  full recovery" if p.recovered_exactly else ""
        parts.append(f"  {p.policy.value:8} accuracy {p.accuracy:.1%}{full}\n")
    parts.append("\nwalk-latency sensitivity (omnetpp, 4W 32):\n")
    for p in sweeps["walk"]:
        parts.append(
            f"  {p.cycles_per_level:3} cyc/level  IPC {p.ipc:.3f}"
            f"  MPKI {p.mpki:.2f}\n"
        )
    return "".join(parts)


def _attack_label(params: Mapping[str, Any]) -> str:
    attack = params["attack"]
    if attack == "tlbleed":
        return f"TLBleed ({params['key_bits']}-bit RSA)"
    if attack == "multitrace":
        return f"TLBleed {params['traces']}-trace voting"
    if attack == "eddsa":
        return "EdDSA scalar (64-bit)"
    if attack == "dpf":
        return "Double Page Fault scan"
    if attack == "covert_serial":
        return "covert serial"
    if attack == "covert_parallel":
        return "covert parallel"
    if attack == "itlb":
        return "I-TLB (unhardened S&M)"
    if attack == "itlb_hardened":
        return "I-TLB (hardened, Fig. 5)"
    if attack == "profiling":
        return f"set profiling ({params['seeds']} seeds)"
    raise ValueError(f"unknown attack {attack!r}")


def _attacks_text(rows: List[Tuple[Mapping[str, Any], Any]]) -> str:
    parts = []
    for params, value in rows:
        attack = params["attack"]
        label = f"{_attack_label(params):<26}"
        kind = params["kind"]
        if attack in ("tlbleed", "multitrace", "eddsa", "itlb",
                      "itlb_hardened"):
            parts.append(
                f"{label}{kind}: accuracy {value['accuracy']:.3f}"
                f" exact={value['exact']}\n"
            )
        elif attack in ("dpf", "profiling"):
            parts.append(
                f"{label}{kind}: correct {value['correct']}/{value['total']}\n"
            )
        elif attack == "covert_serial":
            parts.append(
                f"{label}{kind}: BER {value['ber']:.3f}"
                f" capacity {value['capacity']:.3f}"
                f" rate {value['rate']:.2f} b/kc\n"
            )
        elif attack == "covert_parallel":
            parts.append(
                f"{label}{kind}: BER {value['ber']:.3f}"
                f" capacity {value['capacity']:.3f}\n"
            )
        else:  # pragma: no cover - _attack_label already raised
            raise ValueError(f"unknown attack {attack!r}")
    return "".join(parts)


def write_artifacts(
    assembled: Mapping[str, Any],
    results_dir: Path | str,
    log: Optional[RunLog] = None,
) -> List[str]:
    """Write every artifact whose source experiments are all present.

    ``assembled`` maps experiment name to its :meth:`assemble` output.
    Returns the list of written filenames; logs an ``artifact`` event per
    file.
    """
    from repro.perf import export_figure7_csv, export_table4_csv
    from repro.security import format_table4

    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    log = log or RunLog(None)
    written: List[str] = []

    def emit(name: str, write) -> None:
        if any(
            source not in assembled for source in ARTIFACT_SOURCES[name]
        ):
            return
        path = results_dir / name
        write(path)
        written.append(name)
        log.emit("artifact", path=str(path))

    emit("table2.txt",
         lambda p: p.write_text(_table2_text(assembled["table2"])))
    emit("table4_full.txt",
         lambda p: p.write_text(format_table4(assembled["table4"])))
    emit("table4_full.csv",
         lambda p: export_table4_csv(assembled["table4"], p))
    emit("table7_eval.txt",
         lambda p: p.write_text(_table7_text(assembled["table7"])))
    emit("fig7_full.txt",
         lambda p: p.write_text(_fig7_text(assembled["fig7"]["grid"])))
    emit("fig7_full.csv",
         lambda p: export_figure7_csv(assembled["fig7"]["grid"], p))
    emit("fig7_runs_series.txt",
         lambda p: p.write_text(_series_text(assembled["fig7"]["series"])))
    emit("table5.txt", lambda p: p.write_text(assembled["table5"]))
    emit("mitigations.txt",
         lambda p: p.write_text(_mitigations_text(
             assembled["mitigations"],
             assembled["largepages"],
             assembled["hierarchy"],
         )))
    emit("hierarchy_sweep.txt",
         lambda p: p.write_text(_hierarchy_sweep_text(
             assembled["hierarchy_sweep"]
         )))
    emit("sweeps.txt",
         lambda p: p.write_text(_sweeps_text(assembled["sweeps"])))
    emit("attacks.txt",
         lambda p: p.write_text(_attacks_text(assembled["attacks"])))

    # Experiments without a dedicated writer (e.g. test probes and the
    # chaos campaign's cells) still get a deterministic JSON artifact, so
    # clean-vs-chaos byte comparisons have a merged file to diff.
    claimed = {
        source for sources in ARTIFACT_SOURCES.values() for source in sources
    }
    for name in sorted(assembled):
        if name in claimed:
            continue
        filename = f"{name}.json"
        path = results_dir / filename
        path.write_text(
            json.dumps(assembled[name], indent=2, sort_keys=True, default=str)
            + "\n"
        )
        written.append(filename)
        log.emit("artifact", path=str(path))
    return written


def _series_text(series: List[Any]) -> str:
    from repro.perf import format_figure7

    return format_figure7(series)
