"""A TLB covert channel and its empirical capacity.

Section 3.1 notes every side channel doubles as a covert channel: the
victim becomes a cooperating *sender*.  This module builds the highest-rate
variant from Table 2 -- Prime + Probe -- as a covert channel: per bit, the
receiver primes a TLB set, the sender touches a page mapping to that set
to send 1 (or stays idle for 0), and the receiver probes.

The empirical error probabilities plug straight into Equation 1, linking
the end-to-end experiment back to the channel-capacity framework of
Section 5.2: the standard TLB carries ~1 bit per symbol, the SP TLB and RF
TLB drive the measured capacity to ~0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.model.capacity import channel_capacity
from repro.mmu import make_walker
from repro.sim.events import EventBus
from repro.sim.probe import SetProber
from repro.sim.system import MemorySystem
from repro.tlb import RandomFillTLB, TLBConfig, TLBKind, make_tlb

SENDER_ASID = 1  # The "victim" role: the protected process.
RECEIVER_ASID = 2

SIGNAL_BASE = 0x100  # The sender's page region (RF secure region).
PROBE_BASE = 0x600


@dataclass(frozen=True)
class CovertChannelResult:
    """Transmission statistics for one message."""

    sent: str
    received: str
    kind: TLBKind
    cycles: int

    @property
    def bit_error_rate(self) -> float:
        if not self.sent:
            return 0.0
        errors = sum(1 for a, b in zip(self.sent, self.received) if a != b)
        return errors / len(self.sent)

    @property
    def bits_per_kilocycle(self) -> float:
        if self.cycles == 0:
            return 0.0
        return 1000.0 * len(self.sent) / self.cycles

    def empirical_capacity(self) -> float:
        """Per-symbol mutual information from the observed error pattern.

        ``p1``/``p2`` are estimated as the probability of the receiver
        reading 1 given the sender sent 1 / sent 0 (Table 3's structure with
        "miss" = "read 1").
        """
        ones = [i for i, bit in enumerate(self.sent) if bit == "1"]
        zeros = [i for i, bit in enumerate(self.sent) if bit == "0"]
        if not ones or not zeros:
            raise ValueError("need both symbols to estimate the capacity")
        p1 = sum(1 for i in ones if self.received[i] == "1") / len(ones)
        p2 = sum(1 for i in zeros if self.received[i] == "1") / len(zeros)
        return channel_capacity(p1, p2)


def transmit(
    bits: str,
    kind: TLBKind = TLBKind.SA,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    monitored_set: int = 0,
    seed: int = 0,
    bus: Optional[EventBus] = None,
) -> CovertChannelResult:
    """Send ``bits`` over the Prime + Probe covert channel."""
    if not bits or any(bit not in "01" for bit in bits):
        raise ValueError("message must be a non-empty string of 0s and 1s")
    tlb = make_tlb(
        kind,
        config,
        victim_asid=SENDER_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    nsets = config.sets
    signal_page = SIGNAL_BASE - (SIGNAL_BASE % nsets) + monitored_set
    if isinstance(tlb, RandomFillTLB):
        # The sender's signalling region is "secure" -- the scenario where
        # the defence must break the channel.
        tlb.set_secure_region(signal_page, nsets, victim_asid=SENDER_ASID)
    memory = MemorySystem(tlb, make_walker(), bus=bus)
    receiver = SetProber.for_set(
        memory, PROBE_BASE, monitored_set, RECEIVER_ASID, nsets, config.ways
    )

    # Sending 0 accesses a different-set page rather than idling: Table 3's
    # binary behaviours are "maps to the tested block" vs "does not", which
    # is what the RF TLB's randomization equalizes.
    zero_page = signal_page + 1

    received: List[str] = []
    for bit in bits:
        receiver.prime()
        # Sender signals.
        sender_page = signal_page if bit == "1" else zero_page
        memory.translate(sender_page, SENDER_ASID)
        received.append("1" if receiver.probe().evicted else "0")
    return CovertChannelResult(
        sent=bits, received="".join(received), kind=kind, cycles=memory.cycles
    )


def random_message(length: int, seed: int = 1) -> str:
    """A balanced random test message."""
    rng = random.Random(seed)
    return "".join(rng.choice("01") for _ in range(length))


def parallel_transmit(
    bits: str,
    kind: TLBKind = TLBKind.SA,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
    bus: Optional[EventBus] = None,
) -> CovertChannelResult:
    """Several covert-channel bits per prime/probe round.

    TLBleed monitors many sets in parallel; the covert-channel analogue
    uses *differential lanes*: each lane owns a pair of TLB sets, the
    sender touches the pair's first set for 1 and its second for 0, and
    the receiver decodes by comparing the two sets' probe misses.  The
    pairing keeps lanes from interfering (every send lands in exactly one
    lane's sets).  A 4-set TLB carries 2 bits per round; the message is
    padded to whole rounds with zeros.

    The differential pairing spends two sets per bit, so the raw
    access-count throughput is no better than the serial channel's; its
    value is needing ``lanes``-fold fewer sender/receiver synchronization
    rounds, which is what dominates a real cross-process channel.
    """
    if not bits or any(bit not in "01" for bit in bits):
        raise ValueError("message must be a non-empty string of 0s and 1s")
    nsets = config.sets
    lanes = nsets // 2
    if lanes < 1:
        raise ValueError("the parallel channel needs at least two TLB sets")
    tlb = make_tlb(
        kind,
        config,
        victim_asid=SENDER_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    if isinstance(tlb, RandomFillTLB):
        tlb.set_secure_region(
            SIGNAL_BASE - (SIGNAL_BASE % nsets), nsets, victim_asid=SENDER_ASID
        )
    memory = MemorySystem(tlb, make_walker(), bus=bus)

    signal_base = SIGNAL_BASE - (SIGNAL_BASE % nsets)
    # Lane i signals in sets 2i (bit 1) / 2i+1 (bit 0).
    probers = [
        SetProber.for_set(
            memory, PROBE_BASE, set_index, RECEIVER_ASID, nsets, config.ways
        )
        for set_index in range(nsets)
    ]

    padded = bits + "0" * ((-len(bits)) % lanes)
    received = []
    for round_start in range(0, len(padded), lanes):
        symbols = padded[round_start : round_start + lanes]
        for prober in probers:
            prober.prime()
        for lane, bit in enumerate(symbols):
            set_index = 2 * lane + (0 if bit == "1" else 1)
            memory.translate(signal_base + set_index, SENDER_ASID)
        for lane, _bit in enumerate(symbols):
            counts = [
                probers[set_index].probe().misses
                for set_index in (2 * lane, 2 * lane + 1)
            ]
            received.append("1" if counts[0] >= counts[1] else "0")
    return CovertChannelResult(
        sent=padded,
        received="".join(received),
        kind=kind,
        cycles=memory.cycles,
    )
