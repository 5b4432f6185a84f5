"""Synthetic SPEC CPU2006 page-trace generators (Section 6.2's workloads).

The paper pressure-tests the TLB designs with four TLB-intensive SPEC 2006
benchmarks run under Linux on the FPGA.  SPEC binaries and inputs are not
redistributable, so each benchmark is substituted by a synthetic generator
calibrated to the *TLB-relevant shape* of its published behaviour:

===============  ===============================================================
povray           medium working set with strong hot-page reuse: moderate MPKI,
                 benefits from larger TLBs
omnetpp          pointer-chasing over a large heap: near-uniform references
                 across hundreds of pages, the most TLB-size-sensitive
xalancbmk        large working set with mixed locality
cactusADM        streaming stencil sweep: compulsory-miss dominated, hence
                 (as the paper observes) largely insensitive to TLB size
===============  ===============================================================

The generators are seeded and deterministic; Figure 7 only needs each
workload's MPKI/IPC *sensitivity* to TLB organization, which these shapes
reproduce.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from typing import Iterator

from .trace import MemoryEvent


@dataclass(frozen=True)
class SpecProfile:
    """A synthetic page-reference generator."""

    name: str
    #: Total pages the workload cycles through.
    working_set_pages: int
    #: Size of the frequently reused hot set.
    hot_pages: int
    #: Fraction of accesses that hit the hot set.
    hot_fraction: float
    #: Fraction of instructions that are loads/stores.
    memory_ratio: float
    #: First page of the workload's address range.
    base_vpn: int
    #: Streaming mode: sweep the working set sequentially (cactusADM-style
    #: compulsory misses) instead of referencing it uniformly.
    streaming: bool = False
    #: Consecutive accesses spent on a page during a streaming sweep.
    dwell: int = 8

    def __post_init__(self) -> None:
        if not 0 < self.memory_ratio <= 1:
            raise ValueError("memory_ratio must be in (0, 1]")
        if not 0 <= self.hot_fraction <= 1:
            raise ValueError("hot_fraction must be in [0, 1]")
        if self.hot_pages > self.working_set_pages:
            raise ValueError("hot set cannot exceed the working set")
        if self.hot_pages < 0 or (self.hot_pages == 0 and self.hot_fraction > 0):
            raise ValueError("a hot fraction needs a nonempty hot set")
        if self.working_set_pages <= 0 or self.dwell <= 0:
            raise ValueError("sizes must be positive")

    def events(self, rng: random.Random) -> Iterator[MemoryEvent]:
        """Infinite (gap, vpn) stream.

        The gap is ``min(int(rng.expovariate(1 / mean_gap)), 200)`` (no
        draw at all when ``memory_ratio`` is 1), then ``rng.random()``
        picks the hot set or the rest, and a page is
        ``rng.randrange(pages)`` (or the sweep's next).  Both calls are
        spelt out here as ``Random`` computes them -- ``-log(1 -
        random()) / lambd``, and ``getrandbits(k)`` redrawn until it is
        below ``pages`` -- which yields the same stream for half the
        cost of the method calls.
        """
        random_ = rng.random
        getrandbits = rng.getrandbits
        mean_gap = 1.0 / self.memory_ratio - 1.0
        rate = 1.0 / mean_gap if mean_gap > 0 else 0.0
        hot_fraction = self.hot_fraction
        base_vpn = self.base_vpn
        hot_pages = self.hot_pages
        hot_bits = hot_pages.bit_length()
        pages = self.working_set_pages
        page_bits = pages.bit_length()
        streaming = self.streaming
        dwell = self.dwell
        sweep_position = 0
        dwell_left = dwell
        gap = 0
        while True:
            if rate:
                gap = int(-log(1.0 - random_()) / rate)
                if gap > 200:
                    gap = 200
            if random_() < hot_fraction:
                page = getrandbits(hot_bits)
                while page >= hot_pages:
                    page = getrandbits(hot_bits)
            elif streaming:
                page = sweep_position
                dwell_left -= 1
                if dwell_left == 0:
                    dwell_left = dwell
                    sweep_position = (sweep_position + 1) % pages
            else:
                page = getrandbits(page_bits)
                while page >= pages:
                    page = getrandbits(page_bits)
            yield (gap, base_vpn + page)


#: The four selected TLB-intensive benchmarks (Section 6.2), with disjoint
#: address ranges so multiprogrammed runs do not share pages.
POVRAY = SpecProfile(
    name="povray",
    working_set_pages=64,
    hot_pages=12,
    hot_fraction=0.90,
    memory_ratio=0.35,
    base_vpn=0x1000,
)
OMNETPP = SpecProfile(
    name="omnetpp",
    working_set_pages=256,
    hot_pages=24,
    hot_fraction=0.80,
    memory_ratio=0.40,
    base_vpn=0x2000,
)
XALANCBMK = SpecProfile(
    name="xalancbmk",
    working_set_pages=160,
    hot_pages=16,
    hot_fraction=0.85,
    memory_ratio=0.40,
    base_vpn=0x3000,
)
CACTUSADM = SpecProfile(
    name="cactusADM",
    working_set_pages=4096,
    hot_pages=4,
    hot_fraction=0.50,
    memory_ratio=0.45,
    base_vpn=0x4000,
    streaming=True,
)

SPEC_BENCHMARKS = (POVRAY, OMNETPP, XALANCBMK, CACTUSADM)


def by_name(name: str) -> SpecProfile:
    for profile in SPEC_BENCHMARKS:
        if profile.name == name:
            return profile
    raise KeyError(
        f"unknown benchmark {name!r}; available: "
        f"{[p.name for p in SPEC_BENCHMARKS]}"
    )
