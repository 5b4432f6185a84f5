"""Tests for the synthetic SPEC trace generators."""

import random

import pytest

from repro.workloads.spec import (
    CACTUSADM,
    OMNETPP,
    POVRAY,
    SPEC_BENCHMARKS,
    SpecProfile,
    by_name,
)
from repro.workloads.trace import collect


class TestProfiles:
    def test_four_benchmarks(self):
        assert len(SPEC_BENCHMARKS) == 4
        assert {p.name for p in SPEC_BENCHMARKS} == {
            "povray",
            "omnetpp",
            "xalancbmk",
            "cactusADM",
        }

    def test_by_name(self):
        assert by_name("povray") is POVRAY
        with pytest.raises(KeyError):
            by_name("gcc")

    def test_address_ranges_are_disjoint(self):
        ranges = [
            range(p.base_vpn, p.base_vpn + p.working_set_pages)
            for p in SPEC_BENCHMARKS
        ]
        for index, first in enumerate(ranges):
            for second in ranges[index + 1 :]:
                assert set(first).isdisjoint(second)

    @pytest.mark.parametrize("profile", SPEC_BENCHMARKS, ids=lambda p: p.name)
    def test_pages_stay_in_declared_range(self, profile):
        rng = random.Random(0)
        events = profile.events(rng)
        for _ in range(2000):
            _gap, vpn = next(events)
            assert (
                profile.base_vpn
                <= vpn
                < profile.base_vpn + profile.working_set_pages
            )

    @pytest.mark.parametrize("profile", SPEC_BENCHMARKS, ids=lambda p: p.name)
    def test_memory_ratio_approximated(self, profile):
        stats = collect(profile, instructions=60_000)
        assert stats.memory_ratio == pytest.approx(
            profile.memory_ratio, rel=0.25
        )

    def test_traces_are_deterministic_per_seed(self):
        def sample(seed):
            events = POVRAY.events(random.Random(seed))
            return [next(events) for _ in range(100)]

        assert sample(3) == sample(3)
        assert sample(3) != sample(4)


class TestShapes:
    """The TLB-sensitivity shapes Figure 7 depends on."""

    def _mpki(self, profile, entries, instructions=80_000):
        from repro.mmu import PageTableWalker
        from repro.perf.timing import ScheduledProcess, simulate
        from repro.tlb import SetAssociativeTLB, TLBConfig

        tlb = SetAssociativeTLB(TLBConfig(entries=entries, ways=4))
        results = simulate(
            tlb,
            [ScheduledProcess(profile, asid=1, instructions=instructions)],
            walker=PageTableWalker(auto_map=True),
        )
        return results["total"].mpki

    def test_size_sensitive_benchmarks_improve_with_entries(self):
        for profile in (POVRAY, OMNETPP):
            small = self._mpki(profile, entries=32)
            large = self._mpki(profile, entries=128)
            assert large < small * 0.7, profile.name

    def test_cactusadm_is_insensitive_to_tlb_size(self):
        # The paper: "although cactusADM was specified as TLB-intensive,
        # it is not affected much by TLB size."
        small = self._mpki(CACTUSADM, entries=32)
        large = self._mpki(CACTUSADM, entries=128)
        assert large == pytest.approx(small, rel=0.15)

    def test_omnetpp_has_the_highest_pressure(self):
        mpkis = {p.name: self._mpki(p, entries=32) for p in SPEC_BENCHMARKS}
        assert max(mpkis, key=mpkis.get) == "omnetpp"


class TestValidation:
    def test_bad_memory_ratio(self):
        with pytest.raises(ValueError):
            SpecProfile("x", 10, 2, 0.5, 0.0, 0)

    def test_bad_hot_fraction(self):
        with pytest.raises(ValueError):
            SpecProfile("x", 10, 2, 1.5, 0.5, 0)

    def test_hot_set_larger_than_working_set(self):
        with pytest.raises(ValueError):
            SpecProfile("x", 10, 20, 0.5, 0.5, 0)

    @pytest.mark.parametrize(
        "hot_pages,hot_fraction", [(0, 0.5), (-1, 0.5), (-1, 0.0)]
    )
    def test_a_hot_fraction_needs_a_hot_set(self, hot_pages, hot_fraction):
        # No hot page could be drawn: the generator would never yield one.
        with pytest.raises(ValueError, match="hot set"):
            SpecProfile("x", 10, hot_pages, hot_fraction, 0.5, 0)

    def test_an_empty_hot_set_without_a_hot_fraction_is_valid(self):
        events = SpecProfile("x", 10, 0, 0.0, 0.5, 0).events(random.Random(1))
        assert all(0 <= next(events)[1] < 10 for _ in range(200))


def _specified_events(profile, rng):
    """The generator's specification: ``SpecProfile.events`` spelt with
    ``random.Random``'s own methods.  The generator must yield exactly
    this stream for every profile and seed."""
    mean_gap = 1.0 / profile.memory_ratio - 1.0
    sweep_position = 0
    dwell_left = profile.dwell
    while True:
        gap = 0
        if mean_gap > 0:
            gap = min(int(rng.expovariate(1.0 / mean_gap)), 200)
        if rng.random() < profile.hot_fraction:
            vpn = profile.base_vpn + rng.randrange(profile.hot_pages)
        elif profile.streaming:
            vpn = profile.base_vpn + sweep_position
            dwell_left -= 1
            if dwell_left == 0:
                dwell_left = profile.dwell
                sweep_position = (sweep_position + 1) % profile.working_set_pages
        else:
            vpn = profile.base_vpn + rng.randrange(profile.working_set_pages)
        yield (gap, vpn)


#: Every profile Figure 7 runs, plus a gap-free one (``memory_ratio`` 1
#: draws no gap) and a one-page hot set (``randrange(1)``).
SPECIFIED_PROFILES = SPEC_BENCHMARKS + (
    SpecProfile("dense", 48, 1, 0.3, 1.0, 0x9000),
    SpecProfile("sweep", 33, 3, 0.2, 0.6, 0xA000, streaming=True, dwell=3),
)


class TestSpecifiedStream:
    @pytest.mark.parametrize(
        "profile", SPECIFIED_PROFILES, ids=lambda p: p.name
    )
    @pytest.mark.parametrize(
        # simulate() seeds process i of a run seeded s with s * 1000003 + i.
        "stream_seed", [seed * 1000003 + index
                        for seed in (0, 1, 7) for index in (0, 1)],
    )
    def test_events_match_the_specification(self, profile, stream_seed):
        count = 6_000
        actual = profile.events(random.Random(stream_seed))
        expected = _specified_events(profile, random.Random(stream_seed))
        assert [next(actual) for _ in range(count)] == [
            next(expected) for _ in range(count)
        ]
