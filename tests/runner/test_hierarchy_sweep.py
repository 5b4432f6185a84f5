"""The hierarchy-sweep experiment: units, execution, assembly, artifact.

A reduced-trials end-to-end pass over the registered experiment -- the
same units/run/assemble contract the parallel runner drives, without the
worker processes.
"""

from __future__ import annotations

import pytest

from repro.runner import get_experiment
from repro.runner.results import write_artifacts

OPTIONS = {"hierarchy_sweep_trials": 2, "hierarchy_sweep_rsa_runs": 2}


@pytest.fixture(scope="module")
def experiment():
    return get_experiment("hierarchy_sweep")


@pytest.fixture(scope="module")
def assembled(experiment):
    units = experiment.units(OPTIONS)
    values = [type(experiment).run(unit.params) for unit in units]
    return experiment.assemble(values, OPTIONS)


class TestUnits:
    def test_cell_count_and_parts(self, experiment):
        units = experiment.units(OPTIONS)
        parts = {}
        for unit in units:
            part = unit.params["part"]
            parts[part] = parts.get(part, 0) + 1
        assert parts == {"security": 24 * 7, "perf": 24, "leakage": 1}

    def test_specs_travel_as_plain_dicts(self, experiment):
        import json

        for unit in experiment.units(OPTIONS):
            json.dumps(unit.params["spec"])

    def test_trials_option_reaches_the_cells(self, experiment):
        units = experiment.units(OPTIONS)
        assert all(
            unit.params["trials"] == 2
            for unit in units
            if unit.params["part"] == "security"
        )


class TestAssembly:
    def test_every_design_gets_a_result(self, assembled):
        designs = assembled["designs"]
        assert len(designs) == 24
        labels = {result.label for result in designs}
        assert "SA+SA" in labels and "RF+RF+pwc" in labels
        for result in designs:
            assert len(result.estimates) == 7
            assert result.perf is not None

    def test_leakage_cell_is_threaded_through(self, assembled):
        leakage = assembled["leakage"]
        assert leakage["design"] == "RF+SA"
        assert leakage["workload"] == "rsa"

    def test_certification_verdict_is_stamped(self, assembled):
        # The assembly re-certifies every design statically and compares
        # row-by-row with the estimates this run measured.  At this
        # fixture's degenerate trial count (2 trials -> defends()
        # threshold 2.05, so every row "defends" dynamically) the static
        # certificates rightly disagree, and the flag honestly reads
        # False; the CI gate covers the operating point where it holds.
        assert assembled["certified"] is False
        per_design = assembled["certified_designs"]
        assert len(per_design) == 24
        assert set(per_design) == {
            result.label for result in assembled["designs"]
        }
        assert all(isinstance(v, bool) for v in per_design.values())

    def test_certification_agrees_at_the_operating_point(self, experiment):
        # One design end-to-end at the committed operating point: the
        # sweep cells measured at 40 trials must match the static
        # certificate on all 7 rows (the full 24-design version is the
        # `certify --gate` CI job).
        from repro.ablations.hierarchy import HIERARCHY_EVALUATION, sweep_rows
        from repro.analysis.certify import certify
        from repro.analysis.certify_gate import certified_rows
        from repro.security import SecurityEvaluator
        from repro.tlb import HierarchySpec

        unit = next(
            u
            for u in experiment.units(OPTIONS)
            if u.params["part"] == "security"
            and HierarchySpec.from_dict(u.params["spec"]).label() == "RF+SA"
        )
        spec = HierarchySpec.from_dict(unit.params["spec"])
        evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
        estimates = {
            vulnerability: evaluator.evaluate_vulnerability(
                vulnerability, spec, trials=40
            ).estimate
            for _, vulnerability in sweep_rows()
        }
        agreement = certified_rows(certify(spec), estimates)
        assert len(agreement) == 7
        assert all(agreement.values())

    def test_artifact_is_written(self, assembled, tmp_path):
        written = write_artifacts({"hierarchy_sweep": assembled}, tmp_path)
        assert "hierarchy_sweep.txt" in written
        text = (tmp_path / "hierarchy_sweep.txt").read_text()
        assert "hierarchy sweep" in text
        assert "refill-leakage cross-check" in text
