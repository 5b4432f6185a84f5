"""The standard experiment set, registered at cell granularity.

Each experiment mirrors one section of ``scripts/run_full_evaluation.py``:

========== =====================================================
table2     the Table 2 derivation + exact-match check
table4     24 vulnerabilities x 3 designs (500 trials/cell)
table7     48 Appendix B rows x 3 designs (200 trials/cell)
fig7       the Figure 7 grid (19 configs x 10 scenarios) and the
           50/100/150 decryption series
table5     the area model (single cell)
mitigations 5 mitigation specs x 24 vulnerabilities
hierarchy  3 L1/L2 combinations x 24 vulnerabilities
largepages base + extended walker x 24 vulnerabilities
sweeps     partition / region / policy / walk-latency points
attacks    every end-to-end attack, one cell per (attack, design)
========== =====================================================

Cells carry their complete inputs in ``params`` (picklable plain types
only -- enum *names*, row indices, trial counts), so a worker process can
run any cell from the registry alone and the cache can key on the params
verbatim.  The options each experiment declares, at their defaults
(:data:`DEFAULT_OPTIONS`), reproduce the serial script's artifacts exactly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from .registry import COUNT, COUNT_SERIES, FLAG, REGISTRY, SEED, Experiment, Option, Unit, register


# --------------------------------------------------------------------------
# Model (Table 2)
# --------------------------------------------------------------------------


@register("table2")
class Table2Experiment(Experiment):
    """Derive Table 2 and diff it against the paper's transcription."""

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        return [self.unit("derive")]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.model import (
            derive_vulnerabilities,
            format_table,
        )
        from repro.model.table2 import table2_vulnerabilities

        derived = derive_vulnerabilities()
        expected = table2_vulnerabilities()
        derived_set, expected_set = set(derived), set(expected)
        return {
            "table_text": format_table(derived),
            "count": len(derived),
            "match": derived_set == expected_set,
            "missing": sorted(v.pretty() for v in expected_set - derived_set),
            "unexpected": sorted(
                v.pretty() for v in derived_set - expected_set
            ),
        }

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        return values[0]


# --------------------------------------------------------------------------
# Security evaluation (Tables 4 and 7)
# --------------------------------------------------------------------------


@register("table4")
class Table4Experiment(Experiment):
    """One cell per (design, Table 2 vulnerability)."""

    declared_options = (Option("table4_trials", 500, COUNT),)
    trials_option = "table4_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.model.table2 import table2_vulnerabilities
        from repro.security import table4_cells

        rows = table2_vulnerabilities()
        return [
            self.unit(
                f"{kind.value}/{vulnerability.pretty()}",
                kind=kind.value,
                row=rows.index(vulnerability),
                trials=options["table4_trials"],
            )
            for kind, vulnerability in table4_cells()
        ]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.model.table2 import table2_vulnerabilities
        from repro.security import (
            EvaluationConfig,
            SecurityEvaluator,
            TLBKind,
            table4_spec,
        )

        evaluator = SecurityEvaluator(
            EvaluationConfig(trials=params["trials"])
        )
        vulnerability = table2_vulnerabilities()[params["row"]]
        return evaluator.evaluate_vulnerability(
            vulnerability, table4_spec(TLBKind(params["kind"]))
        )

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.security import table4_cells

        table: Dict[Any, List[Any]] = {}
        for (kind, _vulnerability), value in zip(table4_cells(), values):
            table.setdefault(kind, []).append(value)
        return table


@register("table7")
class Table7Experiment(Experiment):
    """One cell per (design, Appendix B invalidation-only vulnerability)."""

    declared_options = (Option("table7_trials", 200, COUNT),)
    trials_option = "table7_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.model.extended import invalidation_only_vulnerabilities
        from repro.security import extended_cells

        rows = invalidation_only_vulnerabilities()
        return [
            self.unit(
                f"{kind.value}/{vulnerability.pretty()}",
                kind=kind.value,
                row=rows.index(vulnerability),
                trials=options["table7_trials"],
            )
            for kind, vulnerability in extended_cells()
        ]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.model.extended import invalidation_only_vulnerabilities
        from repro.security import (
            EvaluationConfig,
            SecurityEvaluator,
            TLBKind,
            table4_spec,
        )

        evaluator = SecurityEvaluator(
            EvaluationConfig(trials=params["trials"])
        )
        vulnerability = invalidation_only_vulnerabilities()[params["row"]]
        return evaluator.evaluate_vulnerability(
            vulnerability, table4_spec(TLBKind(params["kind"]))
        )

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.security import extended_cells

        table: Dict[Any, List[Any]] = {}
        for (kind, _vulnerability), value in zip(extended_cells(), values):
            table.setdefault(kind, []).append(value)
        return table


# --------------------------------------------------------------------------
# Performance (Figure 7) and area (Table 5)
# --------------------------------------------------------------------------


def _fig7_unit_sets(options: Mapping[str, Any]):
    """The grid and series cell enumerations, in serial-path order."""
    from repro.perf import Scenario, figure7_units
    from repro.workloads.spec import OMNETPP

    grid = figure7_units(rsa_runs=tuple(options["fig7_rsa_runs"]))
    series = figure7_units(
        rsa_runs=tuple(options["series_rsa_runs"]),
        scenarios=[
            Scenario(secure=True),
            Scenario(secure=True, spec=OMNETPP),
        ],
        config_labels=("4W 32",),
    )
    return grid, series


@register("fig7")
class Figure7Experiment(Experiment):
    """One cell per (design, config, scenario, decryption count).

    Covers both the full 19-configuration grid and the 50/100/150
    decryption series; the two parts are distinguished by key prefix and
    split back apart in :meth:`assemble`.
    """

    declared_options = (
        Option("fig7_spec_instructions", 150_000, COUNT),
        Option("fig7_key_bits", 128, COUNT),
        Option("fig7_rsa_runs", [50], COUNT_SERIES),
        # The repro.sim.kernel fast path; ``run-all --no-fastpath`` runs the
        # reference model instead, with byte-identical artifacts.
        Option("fig7_fastpath", True, FLAG),
        Option("series_rsa_runs", [50, 100, 150], COUNT_SERIES),
    )

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        units = []
        grid, series = _fig7_unit_sets(options)
        for part, cells in (("grid", grid), ("series", series)):
            for cell in cells:
                units.append(
                    self.unit(
                        f"{part}/{cell.kind.value}/{cell.config_label}/"
                        f"{cell.scenario.label}/{cell.rsa_runs}",
                        part=part,
                        kind=cell.kind.value,
                        config=cell.config_label,
                        scenario=cell.scenario.label,
                        rsa_runs=cell.rsa_runs,
                        spec_instructions=options["fig7_spec_instructions"],
                        key_bits=options["fig7_key_bits"],
                        fastpath=options["fig7_fastpath"],
                    )
                )
        return units

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.perf import PerfSettings, run_cell, scenario_by_label
        from repro.security import TLBKind

        settings = PerfSettings(
            spec_instructions=params["spec_instructions"],
            key_bits=params["key_bits"],
            fastpath=params.get("fastpath", True),
        )
        return run_cell(
            TLBKind(params["kind"]),
            params["config"],
            scenario_by_label(params["scenario"]),
            params["rsa_runs"],
            settings,
        )

    def affinity(self, params: Mapping[str, Any]) -> Optional[str]:
        """The scenario's SPEC benchmark: every cell beside it compiles its
        trace, and the cells of one organization share merged oracles."""
        return params["scenario"].partition("+")[2] or None

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        grid, series = _fig7_unit_sets(options)
        return {
            "grid": values[: len(grid)],
            "series": values[len(grid) : len(grid) + len(series)],
        }


@register("table5")
class Table5Experiment(Experiment):
    """The calibrated area model: a single cheap cell."""

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        return [self.unit("area-model")]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.perf import AreaModel

        model = AreaModel()
        worst = model.max_relative_error()
        return (
            model.table5()
            + f"\nfit: worst LUT err {worst[0]:.1%},"
            f" worst reg err {worst[1]:.1%}\n"
        )

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        return values[0]


# --------------------------------------------------------------------------
# Ablations (mitigation ladder, hierarchy, large pages, sweeps)
# --------------------------------------------------------------------------


@register("mitigations")
class MitigationsExperiment(Experiment):
    """One cell per (mitigation spec, Table 2 vulnerability)."""

    declared_options = (Option("mitigation_trials", 200, COUNT),)
    trials_option = "mitigation_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.ablations import mitigation_cells

        return [
            self.unit(
                f"{spec.key}/{vulnerability.pretty()}",
                mitigation=spec.key,
                row=index,
                trials=options["mitigation_trials"],
            )
            for spec, index, vulnerability in mitigation_cells()
        ]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.ablations import run_mitigation_cell

        return run_mitigation_cell(
            params["mitigation"], params["row"], trials=params["trials"]
        )

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.ablations import MITIGATION_SPECS, mitigation_cells
        from repro.ablations.mitigations import MitigationResult

        grouped: Dict[str, List[Any]] = {}
        for (spec, _index, _vulnerability), value in zip(
            mitigation_cells(), values
        ):
            grouped.setdefault(spec.key, []).append(value)
        return [
            MitigationResult(
                name=spec.name,
                results=grouped[spec.key],
                paper_claim=spec.paper_claim,
            )
            for spec in MITIGATION_SPECS
        ]


@register("hierarchy")
class HierarchyExperiment(Experiment):
    """One cell per (L1 kind, L2 kind, Table 2 vulnerability)."""

    declared_options = (Option("hierarchy_trials", 100, COUNT),)
    trials_option = "hierarchy_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.ablations import hierarchy_cells

        return [
            self.unit(
                f"{l1.value}-{l2.value}/{vulnerability.pretty()}",
                l1=l1.value,
                l2=l2.value,
                row=index,
                trials=options["hierarchy_trials"],
            )
            for l1, l2, index, vulnerability in hierarchy_cells()
        ]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.ablations import HIERARCHY_EVALUATION, study_spec
        from repro.model.table2 import table2_vulnerabilities
        from repro.security import SecurityEvaluator, TLBKind

        return SecurityEvaluator(HIERARCHY_EVALUATION).evaluate_vulnerability(
            table2_vulnerabilities()[params["row"]],
            study_spec(TLBKind(params["l1"]), TLBKind(params["l2"])),
            trials=params["trials"],
        ).estimate

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.ablations import HierarchyResult, hierarchy_cells

        grouped: Dict[str, Dict[Any, Any]] = {}
        for (l1, l2, _index, vulnerability), value in zip(
            hierarchy_cells(), values
        ):
            name = f"{l1.value} L1 + {l2.value} L2"
            grouped.setdefault(name, {})[vulnerability] = value
        return [
            HierarchyResult(name=name, estimates=estimates)
            for name, estimates in grouped.items()
        ]


@register("hierarchy_sweep")
class HierarchySweepExperiment(Experiment):
    """The declarative cross-design sweep: L1 x L2 x PWC.

    One security cell per (design, representative Table 2 row), one
    performance cell per design, plus the refill-leakage cross-check.
    Designs travel as plain :meth:`repro.tlb.HierarchySpec.to_dict`
    payloads, so any worker can rebuild its hierarchy from the params
    alone and ``repro serve`` specs can scale the sweep's trials.
    """

    declared_options = (
        Option("hierarchy_sweep_trials", 40, COUNT),
        Option("hierarchy_sweep_rsa_runs", 10, COUNT),
    )
    trials_option = "hierarchy_sweep_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.ablations import leakage_spec, sweep_rows, sweep_specs

        units = []
        for spec in sweep_specs():
            for index, vulnerability in sweep_rows():
                units.append(
                    self.unit(
                        f"{spec.label()}/{vulnerability.pretty()}",
                        part="security",
                        spec=spec.to_dict(),
                        row=index,
                        trials=options["hierarchy_sweep_trials"],
                    )
                )
            units.append(
                self.unit(
                    f"perf/{spec.label()}",
                    part="perf",
                    spec=spec.to_dict(),
                    rsa_runs=options["hierarchy_sweep_rsa_runs"],
                )
            )
        units.append(
            self.unit(
                "refill-leakage",
                part="leakage",
                spec=leakage_spec().to_dict(),
            )
        )
        return units

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.ablations import (
            HIERARCHY_EVALUATION,
            refill_leakage,
            sweep_perf_point,
        )
        from repro.model.table2 import table2_vulnerabilities
        from repro.security import SecurityEvaluator
        from repro.tlb.spec import coerce_spec

        part = params["part"]
        if part == "security":
            evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
            return evaluator.evaluate_vulnerability(
                table2_vulnerabilities()[params["row"]],
                coerce_spec(params["spec"]),
                trials=params["trials"],
            ).estimate
        if part == "perf":
            return sweep_perf_point(
                params["spec"], rsa_runs=params["rsa_runs"]
            )
        if part == "leakage":
            return refill_leakage(params["spec"])
        raise ValueError(f"unknown sweep part {part!r}")

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.ablations import SweepDesignResult
        from repro.model.table2 import table2_vulnerabilities
        from repro.tlb import HierarchySpec

        rows = table2_vulnerabilities()
        by_label: Dict[str, Dict[str, Any]] = {}
        leakage = None
        for unit, value in zip(self.units(options), values):
            part = unit.params["part"]
            if part == "leakage":
                leakage = value
                continue
            label = HierarchySpec.from_dict(unit.params["spec"]).label()
            bucket = by_label.setdefault(
                label,
                {"spec": unit.params["spec"], "estimates": {}, "perf": None},
            )
            if part == "security":
                bucket["estimates"][rows[unit.params["row"]]] = value
            else:
                bucket["perf"] = value
        designs = [
            SweepDesignResult(
                label=label,
                spec=bucket["spec"],
                estimates=bucket["estimates"],
                perf=bucket["perf"],
            )
            for label, bucket in by_label.items()
        ]
        # Static/dynamic cross-certification: replay each design's static
        # certificate against the estimates just measured.  ``certified``
        # is True only when every measured row agrees with the certifier
        # (at degenerate trial counts the dynamic side can't resolve the
        # channels the certificates predict, and this honestly reads
        # False).  Threaded into result envelopes and serve metrics.
        from repro.analysis.certify import certify_all
        from repro.analysis.certify_gate import certified_rows

        certificates = certify_all(
            HierarchySpec.from_dict(design.spec) for design in designs
        )
        certification = {}
        for design, certificate in zip(designs, certificates):
            agreement = certified_rows(certificate, design.estimates)
            certification[design.label] = all(agreement.values())
        return {
            "designs": designs,
            "leakage": leakage,
            "certified": all(certification.values()),
            "certified_designs": certification,
        }


@register("largepages")
class LargePagesExperiment(Experiment):
    """One cell per (page model, Table 2 vulnerability) on the SA TLB."""

    declared_options = (Option("largepage_trials", 200, COUNT),)
    trials_option = "largepage_trials"

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.ablations import large_page_cells

        return [
            self.unit(
                f"{model}/{vulnerability.pretty()}",
                model=model,
                row=index,
                trials=options["largepage_trials"],
            )
            for model, index, vulnerability in large_page_cells()
        ]

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.ablations import run_large_page_cell

        return run_large_page_cell(
            params["model"], params["row"], trials=params["trials"]
        )

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        from repro.ablations import LargePageResult, large_page_cells

        grouped: Dict[str, List[Any]] = {}
        for (model, _index, _vulnerability), value in zip(
            large_page_cells(), values
        ):
            grouped.setdefault(model, []).append(value)
        return LargePageResult(
            base_results=grouped.get("base", []),
            extended_results=grouped.get("extended", []),
        )


@register("sweeps")
class SweepsExperiment(Experiment):
    """One cell per sweep point across the four design-space sweeps."""

    declared_options = (Option("rf_region_trials", 200, COUNT),)

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        from repro.tlb.config import ReplacementKind

        units = []
        for victim_ways in (1, 2, 3):
            units.append(
                self.unit(
                    f"partition/{victim_ways}",
                    point="partition",
                    victim_ways=victim_ways,
                )
            )
        for pages in (1, 2, 3, 8, 16, 31):
            units.append(
                self.unit(
                    f"region/{pages}",
                    point="region",
                    pages=pages,
                    trials=options["rf_region_trials"],
                )
            )
        for policy in (
            ReplacementKind.LRU,
            ReplacementKind.TREE_PLRU,
            ReplacementKind.FIFO,
            ReplacementKind.RANDOM,
        ):
            units.append(
                self.unit(
                    f"policy/{policy.value}", point="policy", policy=policy.value
                )
            )
        for cycles in (2, 5, 10, 20, 40):
            units.append(
                self.unit(f"walk/{cycles}", point="walk", cycles=cycles)
            )
        return units

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.ablations import (
            replacement_policy_point,
            rf_region_point,
            sp_partition_point,
            walk_latency_point,
        )
        from repro.tlb.config import ReplacementKind

        point = params["point"]
        if point == "partition":
            return sp_partition_point(params["victim_ways"])
        if point == "region":
            return rf_region_point(params["pages"], trials=params["trials"])
        if point == "policy":
            return replacement_policy_point(ReplacementKind(params["policy"]))
        if point == "walk":
            return walk_latency_point(params["cycles"])
        raise ValueError(f"unknown sweep point kind {point!r}")

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        grouped: Dict[str, List[Any]] = {
            "partition": [],
            "region": [],
            "policy": [],
            "walk": [],
        }
        for unit, value in zip(self.units(options), values):
            grouped[unit.params["point"]].append(value)
        return grouped


# --------------------------------------------------------------------------
# End-to-end attacks
# --------------------------------------------------------------------------

#: (attack key, kinds) in the exact order attacks.txt lists them.
_ATTACK_ROWS = (
    ("tlbleed", ("SA", "SP", "RF")),
    ("multitrace", ("SA", "SP", "RF")),
    ("eddsa", ("SA", "SP", "RF")),
    ("dpf", ("SA", "SP", "RF")),
    ("covert_serial", ("SA", "SP", "RF")),
    ("covert_parallel", ("SA", "SP", "RF")),
    ("itlb", ("SA", "SP", "RF")),
    ("itlb_hardened", ("SA",)),
    ("profiling", ("SA", "SP", "RF")),
)


@register("attacks")
class AttacksExperiment(Experiment):
    """One cell per (attack, TLB design)."""

    declared_options = (
        Option("attack_key_bits", 128, COUNT),
        Option("attack_key_seed", 11, SEED),
        Option("covert_bits", 500, COUNT),
        Option("covert_seed", 5, SEED),
        Option("dpf_seeds", 50, COUNT),
        Option("profiling_seeds", 40, COUNT),
    )

    def units(self, options: Mapping[str, Any]) -> List[Unit]:
        units = []
        for attack, kinds in _ATTACK_ROWS:
            for kind in kinds:
                params: Dict[str, Any] = {"attack": attack, "kind": kind}
                if attack in ("tlbleed", "multitrace", "itlb",
                              "itlb_hardened"):
                    params.update(
                        key_bits=options["attack_key_bits"],
                        key_seed=options["attack_key_seed"],
                    )
                if attack == "multitrace":
                    params["traces"] = 15
                if attack == "dpf":
                    params["seeds"] = options["dpf_seeds"]
                if attack in ("covert_serial", "covert_parallel"):
                    params.update(
                        bits=options["covert_bits"], msg_seed=options["covert_seed"]
                    )
                if attack == "profiling":
                    params["seeds"] = options["profiling_seeds"]
                units.append(self.unit(f"{attack}/{kind}", **params))
        return units

    @staticmethod
    def run(params: Mapping[str, Any]) -> Any:
        from repro.attacks import (
            eddsa_attack,
            itlb_attack,
            multi_trace_attack,
            parallel_transmit,
            profile_secret_set,
            random_message,
            scan_secret_page,
            tlbleed_attack,
            transmit,
        )
        from repro.security import TLBKind
        from repro.workloads.rsa import generate_key

        attack = params["attack"]
        kind = TLBKind(params["kind"])
        if attack in ("tlbleed", "multitrace", "itlb", "itlb_hardened"):
            key = generate_key(
                bits=params["key_bits"], seed=params["key_seed"]
            )
            if attack == "tlbleed":
                result = tlbleed_attack(kind, key=key)
            elif attack == "multitrace":
                result = multi_trace_attack(
                    kind, key=key, traces=params["traces"]
                )
            else:
                result = itlb_attack(
                    kind, hardened=(attack == "itlb_hardened"), key=key
                )
            return {
                "accuracy": result.accuracy,
                "exact": result.recovered_exactly,
            }
        if attack == "eddsa":
            result = eddsa_attack(kind)
            return {
                "accuracy": result.accuracy,
                "exact": result.recovered_exactly,
            }
        if attack == "dpf":
            correct = sum(
                scan_secret_page(kind, seed=seed).correct
                for seed in range(params["seeds"])
            )
            return {"correct": correct, "total": params["seeds"]}
        if attack in ("covert_serial", "covert_parallel"):
            message = random_message(params["bits"], seed=params["msg_seed"])
            send = transmit if attack == "covert_serial" else parallel_transmit
            channel = send(message, kind)
            return {
                "ber": channel.bit_error_rate,
                "capacity": channel.empirical_capacity(),
                "rate": channel.bits_per_kilocycle,
            }
        if attack == "profiling":
            correct = sum(
                profile_secret_set(
                    kind, secret_vpn=0x100 + seed % 8, seed=seed
                ).correct
                for seed in range(params["seeds"])
            )
            return {"correct": correct, "total": params["seeds"]}
        raise ValueError(f"unknown attack {attack!r}")

    def assemble(self, values: List[Any], options: Mapping[str, Any]) -> Any:
        return [
            (unit.params, value)
            for unit, value in zip(self.units(options), values)
        ]


#: The full-fidelity protocol: the standard set's options at their defaults
#: (no other experiment can register before this module has run).
DEFAULT_OPTIONS: Dict[str, Any] = {
    option.name: option.default for e in REGISTRY.values() for option in e.declared_options
}
