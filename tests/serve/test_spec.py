"""Unit tests for spec parsing, content hashing, and result documents."""

import dataclasses
import enum
import json

import pytest

from repro.runner.registry import (
    COUNT,
    REGISTRY,
    Experiment,
    Option,
    get_experiment,
    register,
)
from repro.serve.http import HttpError
from repro.serve.jobs import (
    JobSpec,
    canonical_payload,
    parse_spec,
    result_document,
    to_jsonable,
)


def _reject(payload, **kwargs):
    with pytest.raises(HttpError) as excinfo:
        parse_spec(payload, **kwargs)
    assert excinfo.value.status == 400
    assert excinfo.value.code == "bad-spec"
    return excinfo.value.detail


class TestParseSpec:
    def test_minimal(self):
        spec = parse_spec({"experiment": "table2"})
        assert spec.experiment == "table2"
        assert spec.options == ()
        assert spec.filters == ()
        assert spec.priority == 0
        assert spec.client == "anonymous"

    def test_design_workload_become_filters(self):
        spec = parse_spec(
            {"experiment": "table2", "design": "SP", "workload": "mcf"}
        )
        assert spec.filters == ("table2/SP/*", "table2/*mcf*")

    def test_trials_lower_onto_the_option(self):
        spec = parse_spec({"experiment": "table4", "trials": 7})
        assert dict(spec.options)["table4_trials"] == 7

    def test_hierarchy_sweep_trials_lower_onto_their_option(self):
        spec = parse_spec({"experiment": "hierarchy_sweep", "trials": 3})
        assert dict(spec.options)["hierarchy_sweep_trials"] == 3

    def test_trials_unsupported_experiment(self):
        detail = _reject({"experiment": "table2", "trials": 7})
        assert "no trials knob" in detail

    def test_unknown_experiment_lists_known(self):
        detail = _reject({"experiment": "tableX"})
        assert "table2" in detail

    def test_unknown_option_key(self):
        detail = _reject({"experiment": "table2", "options": {"nope": 1}})
        assert "unknown option" in detail

    def test_a_declared_toy_option_is_admitted_for_its_experiment_only(self):
        class KnobToy(Experiment):
            declared_options = (Option("custom_knob", 1, COUNT),)

        _reject({"experiment": "table2", "options": {"custom_knob": 1}})
        register("knob-toy")(KnobToy)
        try:
            spec = parse_spec(
                {"experiment": "knob-toy", "options": {"custom_knob": 2}}
            )
            assert dict(spec.options)["custom_knob"] == 2
            detail = _reject(
                {"experiment": "table2", "options": {"custom_knob": 2}}
            )
            assert detail == (
                "option 'custom_knob' is read by experiment 'knob-toy',"
                " not 'table2'"
            )
            detail = _reject(
                {"experiment": "knob-toy", "options": {"table4_trials": 2}}
            )
            assert "'table4_trials' is read by experiment 'table4'" in detail
        finally:
            REGISTRY.pop("knob-toy", None)

    def test_rejections(self):
        _reject("not a dict")
        _reject({"experiment": "table2", "typo": 1})
        _reject({"experiment": ""})
        _reject({"experiment": "table2", "design": "XX"})
        _reject({"experiment": "table2", "workload": ""})
        _reject({"experiment": "table2", "trials": 0})
        _reject({"experiment": "table2", "trials": True})
        _reject({"experiment": "table2", "priority": 10})
        _reject({"experiment": "table2", "priority": True})
        _reject({"experiment": "table2", "filters": "oops"})
        _reject({"experiment": "table2", "filters": [""]})
        _reject({"experiment": "table2", "client": ""})
        _reject({"experiment": "table2", "options": []})
        _reject({"experiment": "attacks", "options": {"attack_key_bits": -4}})
        _reject({"experiment": "fig7", "options": {"fig7_rsa_runs": [0]}})
        _reject({"experiment": "attacks", "options": {"covert_bits": 0}})
        _reject(
            {"experiment": "fig7", "options": {"fig7_spec_instructions": "many"}}
        )

    @pytest.mark.parametrize("count", [0, -3, True, 2.5, "many", None])
    @pytest.mark.parametrize(
        "experiment,option",
        [
            ("table4", "table4_trials"),
            ("table7", "table7_trials"),
            ("mitigations", "mitigation_trials"),
            ("hierarchy", "hierarchy_trials"),
            ("hierarchy_sweep", "hierarchy_sweep_trials"),
            ("largepages", "largepage_trials"),
            ("sweeps", "rf_region_trials"),
            ("fig7", "fig7_spec_instructions"),
            ("fig7", "fig7_key_bits"),
            ("hierarchy_sweep", "hierarchy_sweep_rsa_runs"),
            ("attacks", "attack_key_bits"),
            ("attacks", "covert_bits"),
            ("attacks", "dpf_seeds"),
            ("attacks", "profiling_seeds"),
        ],
    )
    def test_a_trial_count_is_positive_however_spelled(
        self, experiment, option, count
    ):
        detail = _reject({"experiment": experiment, "options": {option: count}})
        assert detail == f"option {option!r} must be a positive integer"
        # A null shorthand means "not given"; only trial counts have one.
        if (
            count is not None
            and get_experiment(experiment).trials_option == option
        ):
            detail = _reject({"experiment": experiment, "trials": count})
            assert detail == "'trials' must be a positive integer"
        spec = parse_spec({"experiment": experiment, "options": {option: 3}})
        assert dict(spec.options)[option] == 3

    @pytest.mark.parametrize("option", ["fig7_rsa_runs", "series_rsa_runs"])
    @pytest.mark.parametrize("value", [[0], [], [50, -1], [True], 50, "50"])
    def test_a_run_count_series_is_a_nonempty_list(self, option, value):
        detail = _reject({"experiment": "fig7", "options": {option: value}})
        assert detail == (
            f"option {option!r} must be a non-empty list of positive integers"
        )
        spec = parse_spec({"experiment": "fig7", "options": {option: [5, 10]}})
        assert dict(spec.options)[option] == [5, 10]

    def test_client_default(self):
        spec = parse_spec({"experiment": "table2"}, default_client="bob")
        assert spec.client == "bob"
        spec = parse_spec({"experiment": "table2", "client": "carol"})
        assert spec.client == "carol"


class TestContentHash:
    def test_stable_and_order_insensitive(self):
        one = JobSpec(
            "table2", options=(("a", 1), ("b", 2))
        ).content_hash("v1")
        two = JobSpec(
            "table2", options=(("a", 1), ("b", 2))
        ).content_hash("v1")
        assert one == two
        assert len(one) == 64

    def test_sensitive_to_every_identity_field(self):
        base = JobSpec("table2").content_hash("v1")
        assert JobSpec("table4").content_hash("v1") != base
        assert JobSpec("table2", options=(("a", 1),)).content_hash("v1") != base
        assert JobSpec("table2", filters=("x/*",)).content_hash("v1") != base
        # Code changes invalidate old results.
        assert JobSpec("table2").content_hash("v2") != base

    def test_every_spelling_of_a_default_shares_one_hash(self):
        # The same 72 cells at 500 trials, spelt three ways.
        hashes = {
            parse_spec(payload).content_hash("v1")
            for payload in (
                {"experiment": "table4"},
                {"experiment": "table4", "options": {"table4_trials": 500}},
                {"experiment": "table4", "trials": 500},
            )
        }
        assert len(hashes) == 1
        assert parse_spec(
            {"experiment": "table4", "trials": 499}
        ).content_hash("v1") not in hashes

    def test_priority_and_client_are_not_identity(self):
        # Who asked and how urgently must not fork the result space.
        one = JobSpec("table2", priority=0, client="a").content_hash("v1")
        two = JobSpec("table2", priority=9, client="b").content_hash("v1")
        assert one == two


class TestToJsonable:
    def test_plain_passthrough(self):
        assert to_jsonable({"a": [1, 2.5, "x", None, True]}) == {
            "a": [1, 2.5, "x", None, True]
        }

    def test_dataclass_and_enum(self):
        class Color(enum.Enum):
            RED = "red"

        @dataclasses.dataclass
        class Point:
            x: int
            color: Color

        assert to_jsonable(Point(1, Color.RED)) == {"x": 1, "color": "red"}

    def test_tuples_and_sets(self):
        assert to_jsonable((1, 2)) == [1, 2]
        assert to_jsonable({"b", "a"}) == ["a", "b"]

    def test_fallback_is_str(self):
        assert to_jsonable(complex(1, 2)) == "(1+2j)"


class TestResultDocument:
    def _document(self, selected=2, full=2):
        return result_document(
            spec=JobSpec("table2", options=(("a", 1),)),
            content_hash="c" * 64,
            code_version="v1",
            values=[10, 20],
            selected=selected,
            full=full,
            assembled={"table": [10, 20]},
        )

    def test_complete_uses_assembled(self):
        document = self._document()
        assert document["cells"]["complete"] is True
        assert document["result"] == {"table": [10, 20]}

    def test_partial_uses_raw_values(self):
        document = self._document(selected=2, full=5)
        assert document["cells"]["complete"] is False
        assert document["result"] == [10, 20]

    def test_canonical_payload_is_deterministic(self):
        payload = canonical_payload(self._document())
        assert payload == canonical_payload(self._document())
        assert payload.endswith(b"\n")
        assert json.loads(payload)["content_hash"] == "c" * 64
        # No timestamps anywhere: byte-identical forever.
        assert b"time" not in payload
