"""Tests for the experiment registry and unit enumeration."""

import hashlib
import json
import pickle

import pytest

from repro.runner import (
    DEFAULT_OPTIONS,
    Unit,
    all_experiments,
    expand_units,
    get_experiment,
    matches_filter,
    stable_seed,
)

#: Cell counts implied by the paper's protocols.
EXPECTED_COUNTS = {
    "table2": 1,
    "table4": 24 * 3,
    "table7": 48 * 3,
    "fig7": 19 * 10 + 3 * 2 * 3,  # grid + 50/100/150 series on 4W 32
    "table5": 1,
    "mitigations": 5 * 24,
    "hierarchy": 3 * 24,
    # 24 designs x (7 strategy rows + 1 perf point) + the refill-leakage
    # cross-check cell.
    "hierarchy_sweep": 24 * 8 + 1,
    "largepages": 2 * 36,
    "sweeps": 3 + 6 + 4 + 5,
    "attacks": 6 * 3 + 3 + 1 + 3,
}


class TestEnumeration:
    def test_every_experiment_registered(self):
        # Other test modules may register toy experiments, and the chaos
        # campaign its probe; the standard set must still be present,
        # first, and in presentation order.
        from repro.faults.campaign import PROBE_EXPERIMENT

        names = [
            experiment.name
            for experiment in all_experiments()
            if not experiment.name.startswith("toy-")
            and experiment.name != PROBE_EXPERIMENT
        ]
        assert names == list(EXPECTED_COUNTS)

    def test_cell_counts(self):
        counts = {}
        for unit in expand_units(DEFAULT_OPTIONS):
            counts[unit.experiment] = counts.get(unit.experiment, 0) + 1
        assert counts == EXPECTED_COUNTS

    def test_unit_identities_unique(self):
        units = expand_units(DEFAULT_OPTIONS)
        assert len({unit.ident for unit in units}) == len(units)

    def test_params_are_picklable_and_json_serializable(self):
        for unit in expand_units(DEFAULT_OPTIONS):
            pickle.dumps(dict(unit.params))
            json.dumps(dict(unit.params))

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            get_experiment("does-not-exist")


class TestSeeds:
    def test_stable_seed_is_deterministic(self):
        assert stable_seed("a", 1, "b") == stable_seed("a", 1, "b")

    def test_stable_seed_depends_on_label(self):
        assert stable_seed("table4", "SA/x") != stable_seed("table4", "SA/y")

    def test_unit_seeds_derive_from_identity(self):
        units = expand_units(DEFAULT_OPTIONS)
        for unit in units[:50]:
            assert unit.seed == stable_seed(unit.experiment, unit.key)


class TestFilters:
    def test_no_filter_matches_everything(self):
        unit = Unit(experiment="table4", key="SA/x")
        assert matches_filter(unit, None)
        assert matches_filter(unit, [])

    def test_experiment_name_glob(self):
        unit = Unit(experiment="table4", key="SA/x")
        assert matches_filter(unit, ["table4*"])
        assert not matches_filter(unit, ["fig7*"])

    def test_cell_identity_glob(self):
        unit = Unit(experiment="table4", key="SA/x")
        assert matches_filter(unit, ["table4/SA/*"])
        assert not matches_filter(unit, ["table4/SP/*"])

    def test_filtered_expansion(self):
        units = expand_units(DEFAULT_OPTIONS, ["table2*", "table5*"])
        assert [unit.experiment for unit in units] == ["table2", "table5"]

    def test_options_change_trial_params(self):
        units = expand_units({"table4_trials": 7}, ["table4*"])
        assert all(unit.params["trials"] == 7 for unit in units)


def _sha256_json(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


class TestPinnedDefaults:
    """The full-fidelity protocol, pinned by digest.

    A default option value, a cell's seed or its params (and with them
    every cache key and ``results/`` byte) cannot move unnoticed.
    """

    def test_default_options_digest(self):
        assert _sha256_json(DEFAULT_OPTIONS) == (
            "0c4d0d4ff20b03bcbd1f2d1b2434a46117075a0c5aeacdd20576034e66b7517c"
        )

    def test_default_units_digest(self):
        cells = [
            [unit.ident, unit.seed, unit.params]
            for unit in expand_units(DEFAULT_OPTIONS)
            if unit.experiment in EXPECTED_COUNTS
        ]
        assert len(cells) == sum(EXPECTED_COUNTS.values())
        assert _sha256_json(cells) == (
            "36c3147e1e10acb929e3f145bf4502b39982a1bdc63f0e9347f6d789518c6a1b"
        )
