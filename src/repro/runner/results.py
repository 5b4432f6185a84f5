"""Render and write the ``results/`` artifacts from assembled experiments.

Given each experiment's :meth:`~repro.runner.registry.Experiment.assemble`
output, this module writes the ``results/*.txt`` / ``results/*.csv``
files, byte-identical for any ``python -m repro run-all --jobs N`` (and
for ``scripts/run_full_evaluation.py``, which runs ``run-all``).  Each
experiment's text is rendered by one function (:data:`TEXTS`), which
:func:`write_artifacts` and the experiment's own command
(:func:`experiment_text`) share.

Artifacts are only written when every experiment they draw from completed
in full -- a filtered or partially-failed run skips the affected files
rather than writing truncated ones.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from .progress import RunLog

#: artifact filename -> experiments it needs, in the order written.
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


def _table4_text(table: Mapping[Any, List[Any]]) -> str:
    from repro.security import format_table4

    return format_table4(table)


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


def _fig7_text(fig7: Mapping[str, List[Any]]) -> str:
    from repro.perf import figure7_chart, format_figure7, headline_ratios

    cells = fig7["grid"]
    parts = [format_figure7(cells), "\n\nheadline ratios:\n"]
    for name, value in sorted(headline_ratios(cells).items()):
        parts.append(f"  {name:30} {value:.3f}\n")
    parts.append("\n\n")
    parts.append(figure7_chart(cells, "mpki"))
    parts.append("\n\n")
    parts.append(figure7_chart(cells, "ipc"))
    return "".join(parts)


def _series_text(fig7: Mapping[str, List[Any]]) -> str:
    from repro.perf import format_figure7

    return format_figure7(fig7["series"])


def _ladder_text(ladder: List[Any]) -> str:
    from repro.ablations import format_mitigation_ladder

    return format_mitigation_ladder(ladder)


def _large_pages_text(large_pages: Any) -> str:
    from repro.ablations import format_large_page_comparison

    return format_large_page_comparison(large_pages, 10, 13)


def _hierarchy_text(hierarchies: List[Any]) -> str:
    from repro.ablations import format_hierarchy_results

    return format_hierarchy_results(hierarchies)


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


#: Each experiment's text in ``results/``: (artifact, renderer of the
#: experiment's assembled value) pairs, in the order its command prints
#: them.  ``mitigations.txt`` joins three experiments' sections.
TEXTS: Dict[str, Tuple[Tuple[str, Callable[[Any], str]], ...]] = {
    "table2": (("table2.txt", _table2_text),),
    "table4": (("table4_full.txt", _table4_text),),
    "table7": (("table7_eval.txt", _table7_text),),
    "fig7": (
        ("fig7_full.txt", _fig7_text),
        ("fig7_runs_series.txt", _series_text),
    ),
    "table5": (("table5.txt", str),),
    "mitigations": (("mitigations.txt", _ladder_text),),
    "largepages": (("mitigations.txt", _large_pages_text),),
    "hierarchy": (("mitigations.txt", _hierarchy_text),),
    "hierarchy_sweep": (("hierarchy_sweep.txt", _hierarchy_sweep_text),),
    "sweeps": (("sweeps.txt", _sweeps_text),),
    "attacks": (("attacks.txt", _attacks_text),),
}


def experiment_text(name: str, value: Any) -> str:
    """What experiment ``name``'s command prints for its assembled
    ``value``: the text it contributes to ``results/``, its artifacts
    separated by a blank line."""
    return "\n\n".join(render(value) for _artifact, render in TEXTS[name])


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

    results_dir = Path(results_dir)
    results_dir.mkdir(parents=True, exist_ok=True)
    log = log or RunLog(None)
    written: List[str] = []
    csv_writers = {
        "table4_full.csv": lambda p: export_table4_csv(assembled["table4"], p),
        "fig7_full.csv": lambda p: export_figure7_csv(
            assembled["fig7"]["grid"], p
        ),
    }

    for name, sources in ARTIFACT_SOURCES.items():
        if any(source not in assembled for source in sources):
            continue
        path = results_dir / name
        if name in csv_writers:
            csv_writers[name](path)
        else:
            path.write_text("\n\n".join(
                render(assembled[source])
                for source in sources
                for artifact, render in TEXTS[source]
                if artifact == name
            ))
        written.append(name)
        log.emit("artifact", path=str(path))

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
