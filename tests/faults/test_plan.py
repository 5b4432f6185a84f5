"""FaultPlan/FaultSpec: validation, serialization, seeded determinism."""

import pytest

from repro.faults import (
    FAULT_KINDS,
    RUNNER_FAULT_KINDS,
    SIM_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    default_runner_plan,
    default_sim_plan,
)


class TestFaultSpec:
    def test_every_kind_is_constructible(self):
        for kind in FAULT_KINDS:
            spec = FaultSpec(kind=kind)
            assert spec.layer in ("sim", "runner")

    def test_layer_partition(self):
        assert set(SIM_FAULT_KINDS).isdisjoint(RUNNER_FAULT_KINDS)
        assert set(FAULT_KINDS) == set(SIM_FAULT_KINDS) | set(RUNNER_FAULT_KINDS)
        for kind in SIM_FAULT_KINDS:
            assert FaultSpec(kind=kind).layer == "sim"
        for kind in RUNNER_FAULT_KINDS:
            assert FaultSpec(kind=kind).layer == "runner"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meltdown")

    def test_trigger_and_count_validated(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="bitflip-ppn", trigger=0)
        with pytest.raises(ValueError):
            FaultSpec(kind="bitflip-ppn", count=0)


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = default_sim_plan(seed=7)
        restored = FaultPlan.from_json(plan.to_json())
        assert restored == plan

    def test_dict_round_trip_runner(self):
        plan = default_runner_plan(seed=11)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_default_plans_cover_their_layer(self):
        assert {spec.kind for spec in default_sim_plan().specs} == set(
            SIM_FAULT_KINDS
        )
        assert {spec.kind for spec in default_runner_plan().specs} == set(
            RUNNER_FAULT_KINDS
        )

    def test_rng_is_deterministic_per_spec(self):
        plan = default_sim_plan(seed=2019)
        first = [plan.rng_for(0).random() for _ in range(3)]
        second = [plan.rng_for(0).random() for _ in range(3)]
        assert first == second
        # Different spec positions draw independent streams.
        assert plan.rng_for(0).random() != plan.rng_for(1).random()

    def test_rng_depends_on_plan_seed(self):
        assert (
            default_sim_plan(seed=1).rng_for(0).random()
            != default_sim_plan(seed=2).rng_for(0).random()
        )
