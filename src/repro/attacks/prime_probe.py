"""A TLBleed-style Prime + Probe attack on the traced RSA victim.

The attack instantiates Table 2's ``A_d ~> V_u ~> A_d (slow)`` row against
the real workload of Section 5.1: libgcrypt-style modular exponentiation,
where the page behind the ``tp`` pointer is touched only in exponent-bit
windows whose bit is 1 (Figure 5).  Per window the attacker:

1. **primes** the TLB set the ``tp`` page maps to with its own pages,
2. lets the victim execute one square-(multiply)-swap window,
3. **probes** its pages and reads the TLB miss counter: an eviction in the
   monitored set marks the bit as 1.

Against the standard SA TLB the recovery is near-perfect (the paper cites
TLBleed's 92% single-trace success on real hardware; the simulator has no
system noise).  Against the RF TLB the victim's secure-region accesses fill
*random* region pages, decorrelating evictions from ``tp`` and driving the
recovery toward guessing.

Attacker and victim share one :class:`repro.sim.MemorySystem`; the
prime/probe mechanics come from :class:`repro.sim.SetProber`.  Every
entry point accepts an optional ``bus`` for event-trace observability.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.mmu import PageTableWalker, make_walker
from repro.sim.events import EventBus
from repro.sim.probe import SetProber, pages_for_set
from repro.sim.system import MemorySystem
from repro.tlb import RandomFillTLB, TLBConfig, TLBKind, make_tlb
from repro.tlb.base import BaseTLB
from repro.workloads.rsa import MPIBuffers, RSAKey, TracedModExp, generate_key

VICTIM_ASID = 1
ATTACKER_ASID = 2
#: Attacker-owned pages used for priming (disjoint from the victim's).
PROBE_BASE = 0x600


@dataclass(frozen=True)
class AttackResult:
    """Outcome of one key-recovery attempt."""

    true_bits: str
    recovered_bits: str
    kind: TLBKind

    @property
    def accuracy(self) -> float:
        matches = sum(
            1 for a, b in zip(self.true_bits, self.recovered_bits) if a == b
        )
        return matches / len(self.true_bits) if self.true_bits else 0.0

    @property
    def recovered_exactly(self) -> bool:
        return self.true_bits == self.recovered_bits


class PrimeProbeAttacker(SetProber):
    """Monitors one TLB set through the prime/probe cycle."""

    def __init__(
        self,
        memory: MemorySystem,
        monitored_set: int,
        nsets: int,
        ways: int,
        asid: int = ATTACKER_ASID,
    ) -> None:
        super().__init__(
            memory, pages_for_set(PROBE_BASE, monitored_set, nsets, ways), asid
        )


def recover_secret_bits(
    tlb: BaseTLB,
    walker: PageTableWalker,
    victim,
    monitored_page: int,
    nsets: Optional[int] = None,
    bus: Optional[EventBus] = None,
) -> str:
    """Prime + Probe a traced victim's secret-dependent page, per window.

    ``victim`` is any traced computation exposing the protocol of
    :class:`repro.workloads.rsa.TracedModExp` /
    :class:`repro.workloads.ecc.TracedScalarMult`: its ``run()`` yields
    ``("bit", index, _)`` window boundaries and ``("access", gap, vpn)``
    page touches.  Returns one recovered bit per window, MSB first.
    """
    memory = MemorySystem(tlb, walker, bus=bus)
    nsets = nsets if nsets is not None else tlb.config.sets
    attacker = PrimeProbeAttacker(
        memory,
        monitored_set=monitored_page % nsets,
        nsets=nsets,
        ways=tlb.config.ways,
    )
    recovered: List[str] = []
    pending_probe = False
    for kind, _arg1, vpn in victim.run():
        if kind == "bit":
            if pending_probe:
                recovered.append("1" if attacker.probe().evicted else "0")
            attacker.prime()
            pending_probe = True
        else:
            memory.translate(vpn, VICTIM_ASID)
    if pending_probe:
        recovered.append("1" if attacker.probe().evicted else "0")
    return "".join(recovered)


def recover_exponent(
    tlb: BaseTLB,
    walker: PageTableWalker,
    key: RSAKey,
    ciphertext: int,
    buffers: MPIBuffers = MPIBuffers(),
    nsets: Optional[int] = None,
    bus: Optional[EventBus] = None,
) -> str:
    """Run one decryption under Prime + Probe; return the recovered bits."""
    victim = TracedModExp(ciphertext, key.d, key.n, buffers)
    recovered = recover_secret_bits(
        tlb, walker, victim, monitored_page=buffers.tp_vpn, nsets=nsets,
        bus=bus,
    )
    assert victim.result == pow(ciphertext, key.d, key.n)
    return recovered


def tlbleed_attack(
    kind: TLBKind = TLBKind.SA,
    key: Optional[RSAKey] = None,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
    bus: Optional[EventBus] = None,
) -> AttackResult:
    """End-to-end TLBleed-style attack against one TLB design."""
    key = key or generate_key(bits=64, seed=11)
    buffers = MPIBuffers()
    tlb = make_tlb(
        kind,
        config,
        victim_asid=VICTIM_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    if isinstance(tlb, RandomFillTLB):
        tlb.set_secure_region(
            buffers.sbase, buffers.ssize, victim_asid=VICTIM_ASID
        )
    walker = make_walker()
    ciphertext = key.encrypt(0xC0FFEE % key.n)
    recovered = recover_exponent(tlb, walker, key, ciphertext, buffers, bus=bus)
    true_bits = format(key.d, "b")
    return AttackResult(true_bits=true_bits, recovered_bits=recovered, kind=kind)


def noisy_tlbleed_attack(
    kind: TLBKind = TLBKind.SA,
    key: Optional[RSAKey] = None,
    noise_accesses_per_window: int = 2,
    traces: int = 1,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
) -> AttackResult:
    """TLBleed with a third, unrelated process generating TLB noise.

    On real hardware the attacker shares the TLB with the whole system --
    the reason TLBleed post-processes its signals with machine learning.
    Here a noise process touches ``noise_accesses_per_window`` random
    pages inside every prime/probe window; noise landing in the monitored
    set produces false-positive evictions, and per-window majority voting
    over repeated ``traces`` recovers the accuracy (the classic
    noise-vs-repetition trade-off).
    """
    if traces < 1 or traces % 2 == 0:
        raise ValueError("traces must be a positive odd number")
    if noise_accesses_per_window < 0:
        raise ValueError("noise level cannot be negative")
    key = key or generate_key(bits=64, seed=11)
    buffers = MPIBuffers()
    walker = make_walker()
    ciphertext = key.encrypt(0xC0FFEE % key.n)
    rng = random.Random(seed)
    noise_asid = 3
    noise_base = 0x700

    votes: Optional[List[int]] = None
    for _trace in range(traces):
        tlb = make_tlb(
            kind,
            config,
            victim_asid=VICTIM_ASID,
            victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
            rng=rng,
        )
        if isinstance(tlb, RandomFillTLB):
            tlb.set_secure_region(
                buffers.sbase, buffers.ssize, victim_asid=VICTIM_ASID
            )
        memory = MemorySystem(tlb, walker)
        attacker = PrimeProbeAttacker(
            memory,
            monitored_set=buffers.tp_vpn % config.sets,
            nsets=config.sets,
            ways=config.ways,
        )
        victim = TracedModExp(ciphertext, key.d, key.n, buffers)
        recovered: List[str] = []
        pending_probe = False
        for kind_name, _arg1, vpn in victim.run():
            if kind_name == "bit":
                if pending_probe:
                    recovered.append(
                        "1" if attacker.probe().evicted else "0"
                    )
                attacker.prime()
                for _ in range(noise_accesses_per_window):
                    noise_vpn = noise_base + rng.randrange(
                        8 * config.sets
                    )
                    memory.translate(noise_vpn, noise_asid)
                pending_probe = True
            else:
                memory.translate(vpn, VICTIM_ASID)
        if pending_probe:
            recovered.append("1" if attacker.probe().evicted else "0")
        if votes is None:
            votes = [0] * len(recovered)
        for index, bit in enumerate(recovered):
            votes[index] += 1 if bit == "1" else -1
    assert votes is not None
    majority = "".join("1" if vote > 0 else "0" for vote in votes)
    return AttackResult(
        true_bits=format(key.d, "b"), recovered_bits=majority, kind=kind
    )


def itlb_attack(
    kind: TLBKind = TLBKind.SA,
    hardened: bool = False,
    key: Optional[RSAKey] = None,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
) -> AttackResult:
    """Prime + Probe against the *instruction* TLB.

    The classic (unhardened) square-and-multiply executes the multiply
    routine only in 1-bit windows, so the routine's *code page* is a
    secret-dependent I-TLB access -- the designs "can be applied to
    instruction TLBs as well" (Section 4) precisely because this channel
    exists.  With ``hardened=True`` (libgcrypt 1.8.2's unconditional
    multiply, Figure 5) the code-page pattern is constant and the I-TLB
    channel closes -- while the data-TLB ``tp`` channel of
    :func:`tlbleed_attack` remains.
    """
    from repro.workloads.rsa import CodePages

    key = key or generate_key(bits=64, seed=11)
    code = CodePages()
    buffers = MPIBuffers()
    itlb = make_tlb(
        kind,
        config,
        victim_asid=VICTIM_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    if isinstance(itlb, RandomFillTLB):
        itlb.set_secure_region(
            min(code.pages()), len(code.pages()), victim_asid=VICTIM_ASID
        )
    # The data TLB is irrelevant to this channel; a plain SA one absorbs
    # the rp/xp/tp accesses.
    dtlb = make_tlb(TLBKind.SA, config)
    walker = make_walker()
    imem = MemorySystem(itlb, walker)
    dmem = MemorySystem(dtlb, walker)

    attacker = PrimeProbeAttacker(
        imem,
        monitored_set=code.multiply_vpn % config.sets,
        nsets=config.sets,
        ways=config.ways,
    )
    ciphertext = key.encrypt(0xC0FFEE % key.n)
    victim = TracedModExp(
        ciphertext,
        key.d,
        key.n,
        buffers,
        hardened=hardened,
        code_pages=code,
    )
    code_pages = set(code.pages())
    recovered = []
    pending_probe = False
    for event, _arg1, vpn in victim.run():
        if event == "bit":
            if pending_probe:
                recovered.append("1" if attacker.probe().evicted else "0")
            attacker.prime()
            pending_probe = True
        elif vpn in code_pages:
            imem.translate(vpn, VICTIM_ASID)
        else:
            dmem.translate(vpn, VICTIM_ASID)
    if pending_probe:
        recovered.append("1" if attacker.probe().evicted else "0")
    assert victim.result == pow(ciphertext, key.d, key.n)
    return AttackResult(
        true_bits=format(key.d, "b"),
        recovered_bits="".join(recovered),
        kind=kind,
    )


def multi_trace_attack(
    kind: TLBKind = TLBKind.SA,
    key: Optional[RSAKey] = None,
    traces: int = 9,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
) -> AttackResult:
    """TLBleed with per-window majority voting over repeated decryptions.

    Real attackers average traces to beat noise (TLBleed post-processes
    with machine learning).  Against the SA TLB one trace already suffices;
    against the RF TLB voting sharpens the *residual access-count bias*
    (1-bit windows perform one extra secure access, hence one extra random
    fill) without recovering the key: the per-access channel of Table 4 is
    closed, and what remains is the count channel the paper's threat model
    does not cover (see EXPERIMENTS.md).
    """
    if traces < 1 or traces % 2 == 0:
        raise ValueError("traces must be a positive odd number")
    key = key or generate_key(bits=64, seed=11)
    buffers = MPIBuffers()
    walker = make_walker()
    ciphertext = key.encrypt(0xC0FFEE % key.n)
    votes: Optional[List[int]] = None
    rng = random.Random(seed)
    for _ in range(traces):
        tlb = make_tlb(
            kind,
            config,
            victim_asid=VICTIM_ASID,
            victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
            rng=rng,
        )
        if isinstance(tlb, RandomFillTLB):
            tlb.set_secure_region(
                buffers.sbase, buffers.ssize, victim_asid=VICTIM_ASID
            )
        recovered = recover_exponent(tlb, walker, key, ciphertext, buffers)
        if votes is None:
            votes = [0] * len(recovered)
        for index, bit in enumerate(recovered):
            votes[index] += 1 if bit == "1" else -1
    assert votes is not None
    majority = "".join("1" if vote > 0 else "0" for vote in votes)
    return AttackResult(
        true_bits=format(key.d, "b"), recovered_bits=majority, kind=kind
    )


def eddsa_attack(
    kind: TLBKind = TLBKind.SA,
    scalar: Optional[int] = None,
    config: TLBConfig = TLBConfig(entries=32, ways=8),
    seed: int = 0,
) -> AttackResult:
    """The TLBleed EdDSA variant: recover an EC scalar via Prime + Probe.

    The monitored page is the point-addition temporaries touched only in
    1-bit windows of the double-and-add (the EdDSA analogue of ``tp``).
    """
    from repro.workloads.ecc import (
        ECCBuffers,
        TracedScalarMult,
        random_scalar,
    )

    scalar = scalar if scalar is not None else random_scalar(bits=64, seed=13)
    buffers = ECCBuffers()
    tlb = make_tlb(
        kind,
        config,
        victim_asid=VICTIM_ASID,
        victim_ways=(config.ways // 2 if kind is TLBKind.SP else None),
        rng=random.Random(seed),
    )
    if isinstance(tlb, RandomFillTLB):
        tlb.set_secure_region(
            buffers.sbase, buffers.ssize, victim_asid=VICTIM_ASID
        )
    walker = make_walker()
    victim = TracedScalarMult(scalar, buffers=buffers)
    recovered = recover_secret_bits(
        tlb, walker, victim, monitored_page=buffers.add_vpn
    )
    return AttackResult(
        true_bits=format(scalar, "b"), recovered_bits=recovered, kind=kind
    )
