"""Cache robustness: torn entries are misses, writes are atomic."""

import pickle
import struct
from pathlib import Path

import pytest

from repro.runner import (
    REGISTRY,
    Experiment,
    ResultCache,
    Unit,
    code_fingerprint,
    expand_units,
    register,
    run_all,
    unit_cache_key,
)

from .test_cache import sealed


def make_unit(**overrides):
    fields = dict(
        experiment="table4",
        key="SA/x",
        params={"kind": "SA", "row": 0, "trials": 40},
        seed=123,
    )
    fields.update(overrides)
    return Unit(**fields)


def entry_path(cache_dir, unit, version="v1"):
    key = unit_cache_key(unit, version)
    return cache_dir / key[:2] / f"{key}.pkl"


class TestTornEntries:
    def test_truncated_pickle_is_counted_and_repaired(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(sealed(unit, {"answer": 42}))
        path = entry_path(tmp_path, unit)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])  # torn mid-write

        hit, _ = cache.get(unit)
        assert not hit
        assert cache.stats.corrupt == 1
        assert cache.stats.misses == 1

        # The next store repairs the entry in place.
        cache.put(sealed(unit, {"answer": 42}))
        hit, value = cache.get(unit)
        assert hit and value == {"answer": 42}
        assert cache.stats.corrupt == 1

    def test_empty_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(sealed(unit, "value"))
        entry_path(tmp_path, unit).write_bytes(b"")
        hit, _ = cache.get(unit)
        assert not hit
        assert cache.stats.corrupt == 1


class TestAtomicWrites:
    def test_no_staging_debris_after_puts(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        for index in range(5):
            cache.put(sealed(make_unit(key=f"SA/{index}"), index))
        assert list(tmp_path.rglob("*.tmp*")) == []
        assert len(list(tmp_path.rglob("*.pkl"))) == 5
        assert len(list(tmp_path.rglob("*.json"))) == 5

    def test_entry_is_a_whole_pickle(self, tmp_path):
        cache = ResultCache(tmp_path, code_version="v1")
        unit = make_unit()
        cache.put(sealed(unit, {"nested": [1, 2, 3]}))
        record = pickle.loads(entry_path(tmp_path, unit).read_bytes())
        assert pickle.loads(record["blob"]) == {"nested": [1, 2, 3]}
        assert record["identity"] == unit.identity("v1")


RESULTS = Path(__file__).resolve().parents[2] / "results"


class EighthToyExperiment(Experiment):
    """Two cells whose values are ``1 / 2**shift``."""

    def units(self, options):
        return [self.unit("a", shift=3), self.unit("b", shift=1)]

    @staticmethod
    def run(params):
        return 1 / 2 ** params["shift"]

    def assemble(self, values, options):
        return values


@pytest.fixture
def eighth():
    register("eighth-toy")(EighthToyExperiment)
    yield REGISTRY["eighth-toy"]
    REGISTRY.pop("eighth-toy", None)


def stored_entry(cache_dir, unit):
    """Where the cache keeps ``unit``'s result under this source tree."""
    return entry_path(cache_dir, unit, code_fingerprint())


def run_into(tmp_path, filters):
    return run_all(
        jobs=1,
        filters=filters,
        results_dir=tmp_path / "results",
        cache_dir=tmp_path / "cache",
        progress=False,
    )


class TestVerifiedReads:
    """A cache entry reads back as the bytes its cell sealed, or not at all."""

    def test_a_flipped_bit_in_the_value_is_a_corrupt_miss(
        self, tmp_path, eighth
    ):
        assert run_into(tmp_path, ["eighth-toy/a"]).ok
        path = stored_entry(tmp_path / "cache", eighth.units({})[0])
        data = bytearray(path.read_bytes())
        at = bytes(data).index(struct.pack(">d", 0.125))
        data[at + 7] ^= 0x01  # the lowest mantissa bit: 0.12500000000000003
        path.write_bytes(bytes(data))

        warm = run_into(tmp_path, ["eighth-toy/a"])
        assert warm.ok
        assert (warm.cache_hits, warm.cache_corrupt) == (0, 1)
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(eighth.units({})[0]) == (True, 0.125)

    def test_an_entry_copied_under_another_units_key_is_refused(
        self, tmp_path, eighth
    ):
        assert run_into(tmp_path, ["eighth-toy/*"]).ok
        first, second = eighth.units({})
        stored_entry(tmp_path / "cache", second).write_bytes(
            stored_entry(tmp_path / "cache", first).read_bytes()
        )
        cache = ResultCache(tmp_path / "cache")
        assert cache.get(second) == (False, None)
        assert (cache.stats.corrupt, cache.stats.misses) == (1, 1)
        assert cache.get(first) == (True, 0.125)

    def test_a_changed_byte_in_table5_is_recomputed_not_written(
        self, tmp_path
    ):
        assert run_into(tmp_path, ["table5"]).ok
        (unit,) = expand_units({}, ["table5"])
        path = stored_entry(tmp_path / "cache", unit)
        data = path.read_bytes()
        at = data.index(b"35351")  # SA 1E's modelled LUTs
        path.write_bytes(data[:at] + b"35352" + data[at + 5:])

        warm = run_into(tmp_path, ["table5"])
        assert warm.ok and warm.cache_corrupt == 1
        assert (tmp_path / "results" / "table5.txt").read_bytes() == (
            RESULTS / "table5.txt"
        ).read_bytes()
