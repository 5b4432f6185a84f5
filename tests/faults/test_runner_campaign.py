"""The runner fault matrix: every fault mode under each backend that has it.

The full matrix runs in CI (``python -m repro chaos all``); here the
unit layer pins the deterministic fault decision function, the one
fault-mode vocabulary and which backend implements which mode, and one
end-to-end slice drives a crash fault through a real two-process pool
and a real two-worker work-stealing topology to the byte-identical
verdict -- fast enough for the tier-1 suite, honest enough to catch a
broken recovery path.
"""

import pytest

from repro.faults import (
    FAULT_MODES,
    RUNNER_FAULT_KINDS,
    ChaosConfig,
    FaultPlan,
    FaultSpec,
    default_runner_plan,
    run_runner_campaign,
)
from repro.faults.campaign import MECHANISMS, backends_for
from repro.runner import BACKEND_FAULT_MODES


class TestRunnerPlan:
    def test_default_plan_covers_every_kind(self):
        plan = default_runner_plan()
        assert [spec.kind for spec in plan.specs] == list(RUNNER_FAULT_KINDS)
        for spec in plan.specs:
            assert spec.layer == "runner"
            assert spec.trigger == 1

    def test_modes_and_kinds_agree(self):
        # Every chaos mode is a campaign kind; the campaign adds only the
        # torn cache entry, which it injects into the cache itself.
        assert set(FAULT_MODES) | {"torn-cache"} == set(RUNNER_FAULT_KINDS)
        assert set(MECHANISMS) == set(RUNNER_FAULT_KINDS)

    def test_every_mode_has_a_backend(self):
        implemented = set().union(*BACKEND_FAULT_MODES.values())
        assert implemented == set(FAULT_MODES)

    def test_the_matrix_keeps_every_mode_and_backend_pair(self):
        pairs = {
            (kind, backend)
            for kind in RUNNER_FAULT_KINDS
            for backend in backends_for(kind)
        }
        pool = {"hang", "crash", "corrupt-result", "torn-cache", "poison"}
        stealing = {
            "crash", "heartbeat-freeze", "duplicate-lease", "stale-lease",
            "torn-journal", "corrupt-result", "poison", "torn-cache",
        }
        assert pairs == {(kind, "pool") for kind in pool} | {
            (kind, "work-stealing") for kind in stealing
        }


class TestChaosConfig:
    MODES = tuple(mode for mode in FAULT_MODES if mode != "poison")

    def test_fault_decision_is_deterministic(self):
        config = ChaosConfig(seed=4, modes=self.MODES, rate=1.0)
        decisions = [
            config.fault_for(f"cell-{i}", 1) for i in range(10)
        ]
        assert decisions == [
            config.fault_for(f"cell-{i}", 1) for i in range(10)
        ]
        assert all(mode in self.MODES for mode in decisions)

    def test_rate_zero_is_honest(self):
        config = ChaosConfig(seed=4, modes=self.MODES, rate=0.0)
        assert all(
            config.fault_for(f"cell-{i}", 1) is None for i in range(10)
        )

    def test_no_modes_is_honest(self):
        config = ChaosConfig(seed=4, rate=1.0)
        assert config.fault_for("cell", 1) is None

    def test_attempts_beyond_max_are_honest(self):
        config = ChaosConfig(
            seed=4, modes=self.MODES, rate=1.0, max_attempt=1
        )
        assert config.fault_for("cell", 2) is None

    def test_poison_overrides_everything(self):
        config = ChaosConfig(seed=4, rate=0.0, poison_idents=("bad/cell",))
        for attempt in (1, 2, 5):
            assert config.fault_for("bad/cell", attempt) == "poison"

    @pytest.mark.parametrize("mode", ["made-up", "worker-sigkill", "poison"])
    def test_unknown_mode_rejected(self, mode):
        with pytest.raises(ValueError, match="unknown fault mode"):
            ChaosConfig(modes=(mode,))

    @pytest.mark.parametrize(
        "backend,config,missing",
        [
            ("work-stealing", ChaosConfig(modes=("hang",)), "hang"),
            ("pool", ChaosConfig(modes=("crash", "stale-lease")), "stale-lease"),
            ("serial", ChaosConfig(poison_idents=("x",)), "poison"),
        ],
    )
    def test_a_backend_refuses_a_mode_it_lacks(self, backend, config, missing):
        with pytest.raises(ValueError, match=f"fault mode {missing};"):
            config.check_backend(backend)

    @pytest.mark.parametrize("backend", sorted(BACKEND_FAULT_MODES))
    def test_a_backend_takes_every_mode_it_implements(self, backend):
        modes = tuple(
            mode for mode in BACKEND_FAULT_MODES[backend] if mode != "poison"
        )
        ChaosConfig(modes=modes, poison_idents=("x",)).check_backend(backend)


class TestRunnerCampaignSlice:
    def test_crash_slice_masked_and_byte_identical_under_both_backends(
        self, tmp_path
    ):
        plan = FaultPlan(
            name="crash-slice",
            seed=2019,
            specs=(FaultSpec(kind="crash", trigger=1),),
        )
        report = run_runner_campaign(tmp_path, plan=plan, cells=4, workers=2)
        assert report.baseline_violations == []
        assert report.silent_faults == []
        assert report.ok
        assert [(row.kind, row.backend) for row in report.rows] == [
            ("crash", "pool"), ("crash", "work-stealing"),
        ]
        for row in report.rows:
            assert row.injections >= 1
            assert "crash-recovery" in row.detected_by
            assert "artifact-match" in row.detected_by
