"""The declarative fault plan: what to inject, where, when, which seed.

A :class:`FaultPlan` is the complete, JSON-serializable description of one
chaos campaign.  Each :class:`FaultSpec` names a *fault class* from a fixed
taxonomy -- sim-layer faults corrupt the simulated hardware below the
architectural interface, runner-layer faults misbehave inside the
orchestration stack (either executor backend, or the result cache) --
plus a trigger point and repeat count.  All
randomness (which entry to corrupt, which bit to flip, how much jitter) is
drawn from a :class:`random.Random` derived from the plan seed and the
spec's position, so a campaign replays bit-for-bit from its plan alone.
"""

from __future__ import annotations

import json
import zlib
import random
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, Mapping, Tuple

from repro.runner.policy import FAULT_MODES

#: Sim-layer fault classes: hardware misbehaviour below the ISA.
SIM_FAULT_KINDS: Tuple[str, ...] = (
    # Corrupt one live TLB entry's physical page number (a stored-state
    # bit flip altering where a translation points).
    "bitflip-ppn",
    # Corrupt one live entry's ASID tag (a translation leaks across
    # address spaces -- exactly the paper's cross-process hazard).
    "bitflip-asid",
    # Corrupt one live entry's Sec bit (Section 4.2.2's secure-region
    # marker claims/loses protection it should not).
    "bitflip-sec",
    # Drop an ``sfence.vma`` / flush: the maintenance op is acknowledged
    # but the entries survive (stale-translation hazard).
    "drop-flush",
    # Add latency jitter to page-table walks (timing no longer a pure
    # function of the levels touched).
    "walk-jitter",
    # Silently invalidate a live entry with no eviction or flush event.
    "spurious-evict",
    # Corrupt the fast-lookup index (repro.sim.kernel): rebind a live
    # entry's index slot under a wrong key, breaking the index/array
    # coherence invariant the fast path relies on.
    "index-corrupt",
)

#: Runner-layer fault classes: every executor fault mode
#: (:data:`repro.runner.policy.FAULT_MODES`) plus a cache entry truncated
#: mid-write.
RUNNER_FAULT_KINDS: Tuple[str, ...] = FAULT_MODES + ("torn-cache",)

FAULT_KINDS: Tuple[str, ...] = SIM_FAULT_KINDS + RUNNER_FAULT_KINDS


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    ``trigger`` is the injection point in the layer's own clock: for sim
    faults, the 1-based translation count after which the fault fires; for
    runner faults, the 1-based attempt number on which a worker
    misbehaves.  ``count`` repeats the injection (each drawing fresh
    randomness from the spec's RNG).
    """

    kind: str
    trigger: int = 40
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {FAULT_KINDS}"
            )
        if self.trigger < 1:
            raise ValueError("trigger is 1-based and must be >= 1")
        if self.count < 1:
            raise ValueError("count must be >= 1")

    @property
    def layer(self) -> str:
        return "sim" if self.kind in SIM_FAULT_KINDS else "runner"


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded sequence of faults to inject."""

    name: str
    seed: int = 2019
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)

    def rng_for(self, index: int) -> random.Random:
        """The injection RNG of ``specs[index]``.

        Seeded from the plan seed and the spec's identity via CRC32 (like
        :func:`repro.runner.registry.stable_seed`): stable across
        processes and interpreter runs, independent of execution order.
        """
        spec = self.specs[index]
        label = f"{self.seed}/{index}/{spec.kind}"
        return random.Random(zlib.crc32(label.encode()))

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "FaultPlan":
        return cls(
            name=payload["name"],
            seed=int(payload.get("seed", 2019)),
            specs=tuple(
                FaultSpec(**spec) for spec in payload.get("specs", ())
            ),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def default_sim_plan(seed: int = 2019) -> FaultPlan:
    """One spec per sim-layer fault class: the detection-matrix campaign.

    Triggers are tuned to the campaign workload
    (:func:`repro.faults.campaign.drive_workload`): maintenance-clocked
    faults drop the *second* flush (the first must complete so state
    exists to go stale), translation-clocked faults fire after the
    workload's own flushes, so the corruption survives to the final audit.
    """
    triggers = {
        "drop-flush": 2,
        # Fire after the workload's last re-translation of any live entry:
        # a legally announced refill of the victim would otherwise erase
        # the evidence before the final audit.
        "spurious-evict": 64,
    }
    return FaultPlan(
        name="sim-default",
        seed=seed,
        specs=tuple(
            FaultSpec(
                kind=kind,
                trigger=triggers.get(kind, 40),
                # Jitter several consecutive walks: on the RF design some
                # walks belong to bus-invisible random fills, and at least
                # one jittered walk must be a requested (visible) one.
                count=3 if kind == "walk-jitter" else 1,
            )
            for kind in SIM_FAULT_KINDS
        ),
    )


def default_runner_plan(seed: int = 2019) -> FaultPlan:
    """One spec per runner-layer fault class: the chaos-hardening campaign.

    Every spec triggers on the first attempt: each backend must recover
    from each fault with honest retries, so faults firing any later
    would only retest the same mechanism with less budget left.
    """
    return FaultPlan(
        name="runner-default",
        seed=seed,
        specs=tuple(
            FaultSpec(kind=kind, trigger=1) for kind in RUNNER_FAULT_KINDS
        ),
    )
