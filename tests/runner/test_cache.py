"""Tests for the content-addressed result cache."""

from repro.runner import (
    ResultCache,
    ResultEnvelope,
    TaskOutcome,
    Unit,
    unit_cache_key,
)


def make_unit(**overrides):
    fields = dict(
        experiment="table4",
        key="SA/x",
        params={"kind": "SA", "row": 0, "trials": 40},
        seed=123,
    )
    fields.update(overrides)
    return Unit(**fields)


def sealed(unit, value, elapsed=0.0):
    """A freshly run cell's outcome, as an executor hands it over."""
    return TaskOutcome(
        unit, value, elapsed, envelope=ResultEnvelope.seal(value)
    )


class TestKeying:
    def test_key_is_stable(self):
        unit = make_unit()
        assert unit_cache_key(unit, "v1") == unit_cache_key(unit, "v1")

    def test_key_changes_with_params(self):
        a = make_unit(params={"kind": "SA", "row": 0, "trials": 40})
        b = make_unit(params={"kind": "SA", "row": 0, "trials": 41})
        assert unit_cache_key(a, "v1") != unit_cache_key(b, "v1")

    def test_key_changes_with_seed(self):
        assert unit_cache_key(make_unit(seed=1), "v1") != unit_cache_key(
            make_unit(seed=2), "v1"
        )

    def test_key_changes_with_code_version(self):
        unit = make_unit()
        assert unit_cache_key(unit, "v1") != unit_cache_key(unit, "v2")


class TestStore:
    def test_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        hit, _ = cache.get(unit)
        assert not hit
        cache.put(sealed(unit, {"answer": 42}, elapsed=0.5))
        hit, value = cache.get(unit)
        assert hit and value == {"answer": 42}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_param_change_invalidates(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        cache.put(sealed(make_unit(), "old"))
        changed = make_unit(params={"kind": "SA", "row": 0, "trials": 99})
        hit, _ = cache.get(changed)
        assert not hit

    def test_code_change_invalidates(self, tmp_path):
        unit = make_unit()
        ResultCache(tmp_path, code_version="v1").put(sealed(unit, "old"))
        hit, _ = ResultCache(tmp_path, code_version="v2").get(unit)
        assert not hit

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(sealed(unit, "value"))
        key = unit_cache_key(unit, "v1")
        (tmp_path / key[:2] / f"{key}.pkl").write_bytes(b"not a pickle")
        hit, _ = cache.get(unit)
        assert not hit

    def test_sidecar_written(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(sealed(unit, "value"))
        key = unit_cache_key(unit, "v1")
        sidecar = (tmp_path / key[:2] / f"{key}.json").read_text()
        assert '"experiment": "table4"' in sidecar
