"""Tests for the two-level hierarchy security ablation."""

import pytest

from repro.ablations import format_hierarchy_results
from repro.model.patterns import Strategy
from repro.runner import run_experiment

TRIALS = 25


def sweep_estimate(spec, vulnerability, trials):
    """One sweep cell: a row on a design at the sweep's settings."""
    from repro.ablations import HIERARCHY_EVALUATION
    from repro.security import SecurityEvaluator

    evaluator = SecurityEvaluator(HIERARCHY_EVALUATION)
    return evaluator.evaluate_vulnerability(
        vulnerability, spec, trials
    ).estimate


@pytest.fixture(scope="module")
def study():
    """The three combinations in order: SA/SA, RF/SA, RF/RF."""
    return run_experiment("hierarchy", {"hierarchy_trials": TRIALS})


@pytest.fixture(scope="module")
def sa_sa(study):
    return study[0]


@pytest.fixture(scope="module")
def rf_sa(study):
    return study[1]


@pytest.fixture(scope="module")
def rf_rf(study):
    return study[2]


class TestHierarchySecurity:
    def test_standard_hierarchy_is_vulnerable(self, sa_sa):
        assert sa_sa.defended < 14

    def test_protecting_only_l1_is_insufficient(self, rf_sa):
        # The paper's "can be applied to other levels of TLB" is necessary:
        # the victim's translations land in the standard L2 on the walk
        # path, so several rows leak through L2 evictions/hits.
        assert rf_sa.defended < 24
        leaked = {v.strategy for v in rf_sa.vulnerable_rows()}
        assert Strategy.INTERNAL_COLLISION in leaked

    def test_l1_protection_still_helps(self, sa_sa, rf_sa):
        assert rf_sa.defended > sa_sa.defended

    def test_protecting_both_levels_defends_everything(self, rf_rf):
        assert rf_rf.defended == 24

    def test_formatting(self, sa_sa, rf_rf):
        text = format_hierarchy_results([sa_sa, rf_rf])
        assert "RF L1 + RF L2" in text
        assert "/24" in text


# -- the declarative cross-design sweep -----------------------------------------


class TestSweepEnumeration:
    def test_24_designs_with_unique_labels(self):
        from repro.ablations import sweep_specs

        specs = sweep_specs()
        assert len(specs) == 24
        labels = [spec.label() for spec in specs]
        assert len(set(labels)) == 24
        assert "SA+SA" in labels and "RF+RF+pwc" in labels
        assert "RF" in labels  # the flat (no-L2) designs are included

    def test_one_row_per_strategy(self):
        from repro.ablations import sweep_rows

        rows = sweep_rows()
        strategies = [vulnerability.strategy for _, vulnerability in rows]
        assert len(strategies) == len(set(strategies)) == 7

    def test_specs_survive_the_cell_param_round_trip(self):
        from repro.ablations import sweep_specs
        from repro.tlb.spec import coerce_spec

        for spec in sweep_specs():
            assert coerce_spec(spec.to_dict()) == spec


class TestSweepCells:
    def find_row(self, strategy):
        from repro.ablations import sweep_rows

        for _, vulnerability in sweep_rows():
            if vulnerability.strategy is strategy:
                return vulnerability
        raise AssertionError(strategy)

    def test_cell_is_deterministic(self):
        from repro.ablations import sweep_specs

        spec = sweep_specs()[0]
        vulnerability = self.find_row(Strategy.PRIME_PROBE)
        first = sweep_estimate(spec, vulnerability, trials=6)
        second = sweep_estimate(spec, vulnerability, trials=6)
        assert (first.p1, first.p2) == (second.p1, second.p2)

    def test_sa_sa_leaks_prime_probe_and_rf_rf_defends(self):
        from repro.tlb import HierarchySpec, TLBConfig

        l1 = TLBConfig(entries=32, ways=8, hit_latency=1)
        l2 = TLBConfig(entries=256, ways=8, hit_latency=8)
        vulnerability = self.find_row(Strategy.PRIME_PROBE)
        leaky = sweep_estimate(
            HierarchySpec.two_level("SA", "SA", l1, l2),
            vulnerability,
            trials=12,
        )
        assert not leaky.defends()
        safe = sweep_estimate(
            HierarchySpec.two_level("RF", "RF", l1, l2),
            vulnerability,
            trials=12,
        )
        assert safe.defends()

    def test_perf_point_reports_the_design(self):
        from repro.ablations import sweep_perf_point, sweep_specs

        point = sweep_perf_point(sweep_specs()[0], rsa_runs=2)
        assert point["design"] == "SA+SA"
        assert 0 < point["ipc"] <= 1
        assert point["walks"] > 0


class TestRefillLeakage:
    @pytest.fixture(scope="class")
    def leaky(self):
        from repro.ablations import refill_leakage

        return refill_leakage()

    def test_leaky_workload_has_secret_correlated_refills(self, leaky):
        assert leaky["workload"] == "rsa"
        assert leaky["correlated_refill_pages"]
        assert max(leaky["refills"]) > 0

    def test_constant_time_workload_is_flat(self):
        from repro.ablations import refill_leakage

        clean = refill_leakage(workload_name="rsa-ct")
        assert clean["correlated_refill_pages"] == []


def _leakage_variant(l1_kind, l2_kind, pwc=False):
    """The cross-check shape (tiny protected L1, big L2) with kinds swapped."""
    from repro.ablations import leakage_spec
    from repro.tlb import HierarchySpec, LevelSpec, PWCSpec

    base = leakage_spec()
    tiny, big = base.levels
    levels = (
        LevelSpec.from_dict({**tiny.to_dict(), "kind": l1_kind}),
        LevelSpec.from_dict(
            {
                **big.to_dict(),
                "kind": l2_kind,
                "victim_ways": big.ways // 2 if l2_kind == "SP" else None,
            }
        ),
    )
    return HierarchySpec(levels=levels, pwc=PWCSpec() if pwc else None)


class TestRefillLeakageAcrossDesigns:
    """The refill channel is a property of inter-level movement, not of the
    specific RF+SA design: any tiny-L1/shared-L2 hierarchy round-trips the
    victim's working set through the L2, and the TaintObserver sees the
    secret in the refill stream regardless of the level kinds or a PWC."""

    VARIANTS = {
        "RF+SP": ("RF", "SP", False),
        "SA+RF": ("SA", "RF", False),
        "RF+SA+pwc": ("RF", "SA", True),
    }

    @pytest.mark.parametrize("label", sorted(VARIANTS))
    def test_rsa_refills_correlate_with_secret(self, label):
        from repro.ablations import refill_leakage

        spec = _leakage_variant(*self.VARIANTS[label])
        assert spec.label() == label
        leaky = refill_leakage(spec)
        # Same two secret-correlated pages as the RF+SA baseline: the
        # square page (0x500) and the multiply page (0x502).
        assert sorted(leaky["correlated_refill_pages"]) == [0x500, 0x502]
        assert max(leaky["refills"]) > min(leaky["refills"])

    @pytest.mark.parametrize("label", sorted(VARIANTS))
    def test_constant_time_workload_is_flat_everywhere(self, label):
        from repro.ablations import refill_leakage

        spec = _leakage_variant(*self.VARIANTS[label])
        clean = refill_leakage(spec, workload_name="rsa-ct")
        assert clean["correlated_refill_pages"] == []
        assert clean["correlated_access_pages"] == []
        assert len(set(clean["refills"])) == 1


class TestSweepFormatting:
    def test_matrix_and_leakage_footer(self):
        from repro.ablations import (
            SweepDesignResult,
            format_hierarchy_sweep,
            sweep_specs,
        )

        spec = sweep_specs()[0]
        vulnerability = TestSweepCells().find_row(Strategy.PRIME_PROBE)
        estimate = sweep_estimate(spec, vulnerability, trials=4)
        result = SweepDesignResult(
            label=spec.label(),
            spec=spec.to_dict(),
            estimates={vulnerability: estimate},
            perf={
                "design": spec.label(), "ipc": 0.99, "mpki": 0.1,
                "walks": 3, "accesses": 100, "cycles": 100, "pwc_hits": 0,
            },
        )
        leakage = {
            "design": "RF+SA",
            "workload": "rsa",
            "correlated_access_pages": [0x500],
            "correlated_refill_pages": [0x500, 0x502],
            "refills": [64, 2, 126],
            "accesses": [1000, 900, 1100],
        }
        text = format_hierarchy_sweep([result], leakage)
        assert "SA+SA" in text
        assert "refill-leakage cross-check" in text
        assert "0x500" in text
