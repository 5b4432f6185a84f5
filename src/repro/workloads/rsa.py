"""A libgcrypt-style RSA workload with page-granular trace emission.

The paper's victim is the RSA decryption of libgcrypt 1.8.2, whose modular
exponentiation (Figure 5) works on three multi-precision-integer buffers
reached through the ``rp``/``xp``/``tp`` pointers; the pages behind those
pointers are the 3-page secure region of the SecRSA configuration.  Per
exponent bit the routine:

* always squares (``_gcry_mpih_sqr_n_basecase`` -- touches ``rp``/``xp``),
* always multiplies when the exponent is secret (the Flush + Reload
  mitigation -- touches ``rp``/``xp`` again),
* swaps the result pointers through ``tp`` *only when the bit is 1* --
  the secret-dependent page access TLBleed keys on.

This module implements genuine RSA (Miller-Rabin key generation, real
square-and-multiply over Python integers) and emits the corresponding page
trace, so the attack demonstrations recover actual key bits and the
performance harness replays realistic decryption behaviour.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

from .trace import MemoryEvent

# -- number theory -------------------------------------------------------------


def is_probable_prime(candidate: int, rng: random.Random, rounds: int = 24) -> bool:
    """Miller-Rabin primality test."""
    if candidate < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for prime in small_primes:
        if candidate % prime == 0:
            return candidate == prime
    # Write candidate - 1 as d * 2^r with d odd.
    d = candidate - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for _ in range(rounds):
        witness = rng.randrange(2, candidate - 1)
        x = pow(witness, d, candidate)
        if x in (1, candidate - 1):
            continue
        for _ in range(r - 1):
            x = (x * x) % candidate
            if x == candidate - 1:
                break
        else:
            return False
    return True


def generate_prime(bits: int, rng: random.Random) -> int:
    """A random prime with exactly ``bits`` bits."""
    if bits < 3:
        raise ValueError("need at least 3 bits for a prime")
    while True:
        candidate = rng.getrandbits(bits) | (1 << (bits - 1)) | 1
        if is_probable_prime(candidate, rng):
            return candidate


@dataclass(frozen=True)
class RSAKey:
    """A textbook RSA keypair."""

    n: int
    e: int
    d: int
    bits: int

    def encrypt(self, message: int) -> int:
        if not 0 <= message < self.n:
            raise ValueError("message out of range")
        return pow(message, self.e, self.n)

    def decrypt(self, ciphertext: int) -> int:
        return pow(ciphertext, self.d, self.n)


def generate_key(bits: int = 256, seed: int = 42, e: int = 65537) -> RSAKey:
    """Generate an RSA keypair (deterministic given the seed)."""
    if bits < 16 or bits % 2:
        raise ValueError("key size must be an even number of bits >= 16")
    rng = random.Random(seed)
    while True:
        p = generate_prime(bits // 2, rng)
        q = generate_prime(bits // 2, rng)
        if p == q:
            continue
        phi = (p - 1) * (q - 1)
        if phi % e == 0:
            continue
        d = pow(e, -1, phi)
        return RSAKey(n=p * q, e=e, d=d, bits=bits)


# -- the traced modular exponentiation ----------------------------------------------


@dataclass(frozen=True)
class MPIBuffers:
    """Pages behind the three MPI result pointers (the secure region)."""

    rp_vpn: int = 0x500
    xp_vpn: int = 0x501
    tp_vpn: int = 0x502

    def pages(self) -> Tuple[int, int, int]:
        return (self.rp_vpn, self.xp_vpn, self.tp_vpn)

    @property
    def sbase(self) -> int:
        return min(self.pages())

    @property
    def ssize(self) -> int:
        return max(self.pages()) - self.sbase + 1


#: Events produced by the traced exponentiation: memory events, tagged with
#: the exponent-bit window they belong to.
TraceEvent = Tuple[str, int, int]  # ("access", gap, vpn) | ("bit", index, 0)


@dataclass(frozen=True)
class CodePages:
    """Instruction pages of the exponentiation routines.

    When supplied to :class:`TracedModExp`, instruction-fetch page touches
    are emitted alongside the data accesses: the square routine's page
    every window, the multiply routine's page whenever a multiplication
    executes.  In the *unhardened* square-and-multiply the multiply runs
    only for 1-bits, so its code page is itself a secret-dependent I-TLB
    signal -- the channel libgcrypt's unconditional multiply (Figure 5's
    comment: "unconditional multiply ... to mitigate FLUSH+RELOAD")
    closes.
    """

    square_vpn: int = 0x520
    multiply_vpn: int = 0x521

    def pages(self) -> Tuple[int, int]:
        return (self.square_vpn, self.multiply_vpn)


class TracedModExp:
    """Left-to-right square-and-multiply with libgcrypt's access pattern.

    Iterating :meth:`run` drives the computation bit by bit, yielding
    ``("bit", i, 0)`` at each exponent-bit boundary (most significant bit
    first) and ``("access", gap, vpn)`` for every MPI page touch.  After
    exhaustion, :attr:`result` holds ``base ** exponent % modulus``.

    ``hardened`` selects libgcrypt 1.8.2's behaviour (Figure 5): multiply
    unconditionally and only the ``tp`` pointer swap is secret-dependent.
    ``hardened=False`` models the classic square-and-multiply whose whole
    multiply routine runs only for 1-bits.  ``code_pages`` additionally
    emits the routines' instruction pages (the I-TLB surface).
    """

    #: Page touches per limb pass; scaled by the operand size in limbs.
    _TOUCHES_PER_LIMB = 2

    def __init__(
        self,
        base: int,
        exponent: int,
        modulus: int,
        buffers: MPIBuffers = MPIBuffers(),
        gap: int = 3,
        hardened: bool = True,
        code_pages: Optional[CodePages] = None,
    ) -> None:
        if modulus <= 0:
            raise ValueError("modulus must be positive")
        if exponent < 0:
            raise ValueError("exponent cannot be negative")
        self.base = base % modulus
        self.exponent = exponent
        self.modulus = modulus
        self.buffers = buffers
        self.gap = gap
        self.hardened = hardened
        self.code_pages = code_pages
        self.result: Optional[int] = None

    def _limbs(self) -> int:
        return max(1, (self.modulus.bit_length() + 63) // 64)

    def run(self) -> Iterator[TraceEvent]:
        buffers = self.buffers
        code = self.code_pages
        limbs = self._limbs()
        touches = max(1, self._TOUCHES_PER_LIMB * limbs // 4)
        gap = self.gap

        r = 1
        if self.exponent == 0:
            self.result = 1 % self.modulus
            return
        bits = self.exponent.bit_length()
        for index in range(bits - 1, -1, -1):
            yield ("bit", index, 0)
            bit = (self.exponent >> index) & 1
            # Square: _gcry_mpih_sqr_n_basecase(xp, rp).
            x = (r * r) % self.modulus
            if code is not None:
                yield ("access", gap, code.square_vpn)
            for _ in range(touches):
                yield ("access", gap, buffers.rp_vpn)
                yield ("access", gap, buffers.xp_vpn)
            multiply = self.hardened or bit
            if multiply:
                # Multiply: unconditional when hardened (the Flush+Reload
                # mitigation), secret-dependent otherwise.
                x_mul = (x * self.base) % self.modulus
                if code is not None:
                    yield ("access", gap, code.multiply_vpn)
                for _ in range(touches):
                    yield ("access", gap, buffers.xp_vpn)
                    yield ("access", gap, buffers.rp_vpn)
            if bit:
                if self.hardened:
                    # e_bit is 1: use the multiplied result; the pointer
                    # swap goes through tp -- the secret-dependent page.
                    yield ("access", gap, buffers.tp_vpn)
                r = x_mul
            else:
                r = x
        self.result = r


# -- the workload --------------------------------------------------------------------


@dataclass(frozen=True)
class RSAWorkload:
    """Repeated RSA decryptions as a trace workload (Section 6.2's "RSA").

    ``runs`` mirrors the paper's 50/100/150 decryption series.  The same
    hard-coded key is used for every run, as in the paper.  Frozen, so
    it compares and hashes by value: the compiled-trace store
    (:class:`repro.sim.kernel.TraceStore`) shares one trace among all
    equal workloads.
    """

    key: RSAKey
    runs: int = 50
    ciphertext: Optional[int] = None
    buffers: MPIBuffers = field(default_factory=MPIBuffers)
    name: str = "RSA"

    def __post_init__(self) -> None:
        if self.runs <= 0:
            raise ValueError("need at least one decryption run")
        if self.ciphertext is None:
            object.__setattr__(
                self, "ciphertext", self.key.encrypt(0x1234567 % self.key.n)
            )

    def events(self, rng: random.Random) -> Iterator[MemoryEvent]:
        for _ in range(self.runs):
            traced = TracedModExp(
                self.ciphertext, self.key.d, self.key.n, self.buffers
            )
            for kind, gap, vpn in traced.run():
                if kind == "access":
                    yield (gap, vpn)
            assert traced.result == self.key.decrypt(self.ciphertext)

    def secure_region(self) -> Tuple[int, int]:
        """(sbase, ssize) for the SecRSA configuration: the 3 MPI pages."""
        return (self.buffers.sbase, self.buffers.ssize)
