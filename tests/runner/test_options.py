"""One declaration per experiment option, one answer on every surface.

Each experiment declares the options its ``units`` reads.  The runner
(``expand_units``, ``run_all``) and the service (``parse_spec``) check
overrides through the one resolver, so a value is refused everywhere or
nowhere, in the same words, before any cell runs.
"""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings, strategies as st

from repro.runner import (
    DEFAULT_OPTIONS,
    all_experiments,
    expand_units,
    get_experiment,
    run_all,
)
from repro.runner.registry import (
    COUNT,
    COUNT_SERIES,
    FLAG,
    SEED,
    resolve_options,
)
from repro.serve.http import HttpError
from repro.serve.jobs import parse_spec

STANDARD = [
    get_experiment(name)
    for name in (
        "table2", "table4", "table7", "fig7", "table5", "mitigations",
        "hierarchy", "hierarchy_sweep", "largepages", "sweeps", "attacks",
    )
]

#: Every option the standard experiments declare, with its experiment.
DECLARED = [
    (experiment.name, option)
    for experiment in STANDARD
    for option in experiment.declared_options
]

#: What each kind admits, spelled independently of its implementation.
ORACLE = {
    COUNT: lambda value: type(value) is int and value >= 1,
    COUNT_SERIES: lambda value: type(value) is list
    and len(value) > 0
    and all(type(item) is int and item >= 1 for item in value),
    SEED: lambda value: type(value) is int,
    FLAG: lambda value: type(value) is bool,
}

SCALARS = st.one_of(
    st.integers(min_value=-3, max_value=3),
    st.integers(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.none(),
)
JSON_VALUES = st.one_of(SCALARS, st.lists(SCALARS, max_size=4))


def _refusal(experiment, options):
    """The resolver's message for ``options``, or ``None`` if admitted."""
    try:
        resolve_options(options, experiment)
    except ValueError as error:
        return str(error)
    return None


def _served_refusal(payload):
    try:
        parse_spec(payload)
    except HttpError as error:
        assert (error.status, error.code) == (400, "bad-spec")
        return error.detail
    return None


def test_the_standard_set_declares_nineteen_options_of_four_kinds():
    assert sorted(option.name for _name, option in DECLARED) == sorted(
        DEFAULT_OPTIONS
    )
    assert {option.kind for _name, option in DECLARED} == set(ORACLE)


@pytest.mark.parametrize(
    "experiment,option", DECLARED, ids=[option.name for _e, option in DECLARED]
)
@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(value=JSON_VALUES)
def test_serve_admits_exactly_what_the_resolver_admits(
    experiment, option, value
):
    expected = _refusal(experiment, {option.name: value})
    assert (expected is None) == ORACLE[option.kind](value)
    if expected is not None:
        assert expected == f"option {option.name!r} must be {option.kind.noun}"
    payload = {"experiment": experiment, "options": {option.name: value}}
    assert _served_refusal(payload) == expected


#: The bad values each surface once admitted, with the message every
#: surface now refuses them with.
MOTIVATION = [
    ("attacks", {"covert_seed": [1]}, "option 'covert_seed' must be an integer"),
    ("fig7", {"fig7_fastpath": "no"}, "option 'fig7_fastpath' must be a boolean"),
    (
        "attacks",
        {"attack_key_seed": -3.5},
        "option 'attack_key_seed' must be an integer",
    ),
    (
        "attacks",
        {"attack_key_bits": -4},
        "option 'attack_key_bits' must be a positive integer",
    ),
    ("table4", {"table4_trails": 3}, "unknown option 'table4_trails'; known: "),
]


@pytest.mark.parametrize(
    "experiment,options,message",
    MOTIVATION,
    ids=[next(iter(options)) for _e, options, _m in MOTIVATION],
)
def test_serve_and_run_all_refuse_alike_before_anything_runs(
    tmp_path, experiment, options, message
):
    served = _served_refusal({"experiment": experiment, "options": options})
    assert served is not None and served.startswith(message)
    with pytest.raises(ValueError) as raised:
        run_all(
            filters=[f"{experiment}*"],
            options=options,
            results_dir=tmp_path / "results",
            cache_dir=tmp_path / "cache",
            progress=False,
        )
    assert str(raised.value) == served
    assert not (tmp_path / "results").exists()
    assert not (tmp_path / "cache").exists()


def test_a_misspelt_option_is_refused_not_ignored():
    # Once, this enumerated the cells at the 500-trial default.
    with pytest.raises(ValueError, match="unknown option 'table4_trails'"):
        expand_units({"table4_trails": 3}, ["table4/SA/*"])


def test_serve_refuses_an_option_its_experiment_does_not_read():
    detail = _served_refusal(
        {"experiment": "table2", "options": {"table4_trials": 3}}
    )
    assert detail == (
        "option 'table4_trials' is read by experiment 'table4', not 'table2'"
    )
    # The same cells no longer fork into a second content hash.
    assert _served_refusal({"experiment": "table2"}) is None


def test_the_trials_shorthand_sets_the_declared_trial_option():
    shorthand = {
        experiment.name: experiment.trials_option
        for experiment in all_experiments()
        if experiment.trials_option is not None
    }
    assert shorthand == {
        "table4": "table4_trials",
        "table7": "table7_trials",
        "mitigations": "mitigation_trials",
        "hierarchy": "hierarchy_trials",
        "hierarchy_sweep": "hierarchy_sweep_trials",
        "largepages": "largepage_trials",
        "sweeps": "rf_region_trials",
    }
    for experiment, option in shorthand.items():
        spec = parse_spec({"experiment": experiment, "trials": 3})
        assert spec.options_dict == resolve_options({option: 3}, experiment)


class RecordingOptions(Mapping):
    """A read-only option mapping that remembers every key read."""

    def __init__(self, options):
        self._options = options
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return self._options[key]

    def __iter__(self):
        self.read.update(self._options)
        return iter(self._options)

    def __len__(self):
        return len(self._options)


@pytest.mark.parametrize(
    "experiment", STANDARD, ids=lambda experiment: experiment.name
)
def test_units_reads_exactly_the_options_it_declares(experiment):
    options = RecordingOptions(resolve_options({}))
    assert experiment.units(options)
    assert options.read == {
        option.name for option in experiment.declared_options
    }
