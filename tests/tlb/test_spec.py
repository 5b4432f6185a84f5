"""Tests for the declarative hierarchy specification layer."""

import pytest

from repro.tlb import HierarchySpec, LevelSpec, PWCSpec, TLBConfig

L1_CONFIG = TLBConfig(entries=32, ways=4, hit_latency=1)
L2_CONFIG = TLBConfig(entries=256, ways=8, hit_latency=8)


class TestLevelSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            LevelSpec(kind="LRU", sets=8, ways=4)

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            LevelSpec(kind="SA", sets=0, ways=4)
        with pytest.raises(ValueError):
            LevelSpec(kind="SA", sets=8, ways=0)

    def test_entries_and_config_round_trip(self):
        level = LevelSpec.from_config("SA", L2_CONFIG)
        assert level.entries == 256
        assert level.config() == L2_CONFIG

    def test_dict_round_trip(self):
        level = LevelSpec(
            kind="SP", sets=8, ways=4, hit_latency=3, victim_ways=1,
            sec_bit=False,
        )
        assert LevelSpec.from_dict(level.to_dict()) == level

    # -- the victim-ways satellite: the SP split is per-level data, not a
    # hard-coded ``ways // 2``.

    def test_sp_victim_ways_defaults_to_even_split(self):
        level = LevelSpec.from_config("SP", L2_CONFIG)
        assert level.victim_ways is None
        assert level.effective_victim_ways() == L2_CONFIG.ways // 2

    def test_sp_victim_ways_override(self):
        level = LevelSpec.from_config("SP", L2_CONFIG, victim_ways=2)
        assert level.effective_victim_ways() == 2

    def test_sp_victim_ways_must_leave_both_partitions_room(self):
        with pytest.raises(ValueError):
            LevelSpec(kind="SP", sets=8, ways=4, victim_ways=4)
        with pytest.raises(ValueError):
            LevelSpec(kind="SP", sets=8, ways=4, victim_ways=0)


class TestHierarchySpec:
    def test_requires_at_least_one_level(self):
        with pytest.raises(ValueError):
            HierarchySpec(levels=())

    def test_label_reads_outermost_first(self):
        spec = HierarchySpec.two_level("RF", "SA", L1_CONFIG, L2_CONFIG)
        assert spec.label() == "RF+SA"

    def test_label_marks_the_page_walk_cache(self):
        spec = HierarchySpec.two_level(
            "SA", "SP", L1_CONFIG, L2_CONFIG, pwc=PWCSpec()
        )
        assert spec.label() == "SA+SP+pwc"

    def test_flat_design_label(self):
        spec = HierarchySpec(levels=(LevelSpec.from_config("RF", L1_CONFIG),))
        assert spec.label() == "RF"

    def test_dict_round_trip(self):
        spec = HierarchySpec.two_level(
            "SP", "RF", L1_CONFIG, L2_CONFIG,
            pwc=PWCSpec(entries=8, hit_latency=4),
        )
        rebuilt = HierarchySpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.label() == spec.label()

    def test_dict_payload_is_plain_data(self):
        import json

        spec = HierarchySpec.two_level(
            "SA", "SA", L1_CONFIG, L2_CONFIG, pwc=PWCSpec()
        )
        payload = json.loads(json.dumps(spec.to_dict()))
        assert HierarchySpec.from_dict(payload) == spec

    def test_flat_and_named_constructors(self):
        flat = HierarchySpec.flat("SP", L1_CONFIG)
        assert flat.levels == (LevelSpec.from_config("SP", L1_CONFIG),)
        assert flat.label() == "SP"
        study = HierarchySpec.two_level(
            "RF", "SA", L1_CONFIG, L2_CONFIG, name="RF/SA"
        )
        assert study.label() == "RF/SA"
        assert HierarchySpec.from_dict(study.to_dict()) == study

    def test_three_levels_round_trip(self):
        spec = HierarchySpec(
            levels=(
                LevelSpec.from_config("SA", L1_CONFIG),
                LevelSpec.from_config("SP", L2_CONFIG),
                LevelSpec(kind="SA", sets=64, ways=8, hit_latency=20),
            )
        )
        assert spec.label() == "SA+SP+SA"
        assert HierarchySpec.from_dict(spec.to_dict()) == spec


class TestPWCSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            PWCSpec(entries=0)
        with pytest.raises(ValueError):
            PWCSpec(hit_latency=-1)

    def test_dict_round_trip(self):
        pwc = PWCSpec(entries=4, hit_latency=3)
        assert PWCSpec.from_dict(pwc.to_dict()) == pwc

