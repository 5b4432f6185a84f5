"""The Random-Fill (RF) TLB (Section 4.2).

The RF TLB de-correlates what the CPU requested from what the TLB caches.
Hits behave exactly like the standard SA TLB.  On a miss the design first
*probes* the replacement victim ``R`` that a normal fill would displace and
then decides (Figure 3):

* ``Sec_R = 0`` and ``Sec_D = 0`` -- a normal miss: walk and fill ``D``.
* ``Sec_R = 1`` and ``Sec_D = 0`` -- the fill would displace a secure
  entry.  Instead, a random *non-secure* page ``D'`` -- same high address
  bits as ``D``, set-index bits randomized over the secure region's sets
  (footnote 6) -- is filled, and ``D``'s translation is returned to the CPU
  through the one-entry buffer without filling.  An attacker can therefore
  never deterministically evict a secure translation.
* ``Sec_D = 1`` -- the request itself is secure.  A random page ``D'``
  drawn uniformly from the secure region ``[sbase, sbase + ssize)`` is
  filled instead, and ``D`` is again returned through the buffer.  The
  attacker observes TLB state changes caused by the *random* page, not the
  secret one.

``Sec_D`` is set when the requesting process is the protected victim and
the page lies inside the secure region held in the ``sbase``/``ssize``
registers (managed by a trusted OS; Section 4.2.2).  The walker is assumed
to be able to translate any ``D'`` the Random Fill Engine produces
(footnote 5: the OS pre-generates those page-table entries).

The extra ``D'`` walk happens off the critical path of the CPU's response
(the Random Fill Logic withholds the random fill's result from the
processor, Figure 4), so the latency returned for a miss is the ordinary
walk latency of ``D``.

Only the secure branches are this design's own code (``_handle_miss``,
``_random_fill``).  With no Sec-bit entry resident and a non-secure
request, Figure 3 is the plain fill, which the run kernel's shared miss
path in :class:`repro.tlb.base.BaseTLB` performs; it takes this design's
``_handle_miss`` otherwise.
"""

from __future__ import annotations

import random
from typing import Optional

from .base import AccessResult, BaseTLB, Translator
from .config import TLBConfig
from .entry import TLBEntry


class RandomFillEngine:
    """The RFE of Figure 4a: draws the random page addresses for fills."""

    def __init__(self, rng: Optional[random.Random] = None) -> None:
        self._rng = rng or random.Random(0x5EC0)

    def secure_page(self, sbase: int, ssize: int) -> int:
        """A page drawn uniformly from the secure region."""
        if ssize <= 0:
            raise ValueError("secure region is empty")
        return sbase + self._rng.randrange(ssize)

    def randomized_set_page(
        self, vpn: int, sbase: int, ssize: int, nsets: int
    ) -> int:
        """``vpn`` with its set-index bits re-drawn over the secure region.

        Footnote 6: the randomized index spans ``min(ssize, nsets)`` sets
        starting at the region's own starting index, so the non-secure
        random fill lands in the same sets the secure region occupies.
        """
        if ssize <= 0:
            raise ValueError("secure region is empty")
        span = min(ssize, nsets)
        base_index = sbase % nsets
        new_index = (base_index + self._rng.randrange(span)) % nsets
        return (vpn // nsets) * nsets + new_index


class RandomFillTLB(BaseTLB):
    """SA TLB extended with the Sec bit, region registers, RFE and buffer."""

    #: The run kernel must clean :attr:`buffer` per request, exactly like
    #: :meth:`translate` does, and take :meth:`_handle_miss` for a miss
    #: Figure 3's secure branches may decide.
    _NOFILL_BUFFER = True

    def __init__(
        self,
        config: TLBConfig,
        victim_asid: int = 1,
        sbase: int = 0,
        ssize: int = 0,
        rng: Optional[random.Random] = None,
        name: str = "rf-tlb",
    ) -> None:
        super().__init__(config, name)
        self.victim_asid = victim_asid
        self.sbase = sbase
        self.ssize = ssize
        self.engine = RandomFillEngine(rng)
        #: The one-entry no-fill buffer (Figure 4b).  Holds the translation
        #: most recently returned to the CPU without filling; cleared on the
        #: next request, mirroring the hardware's clean-up.
        self.buffer: Optional[TLBEntry] = None

    def checkpoint(self) -> tuple:
        # The engine's RNG is never saved: in the security evaluator it
        # is the row's stream, which must run on across a rewind.  A
        # buffered entry is replaced, never edited, so keeping it keeps
        # its contents.
        return (
            super().checkpoint(),
            self.victim_asid,
            self.sbase,
            self.ssize,
            self.buffer,
        )

    def rewind(self, state: tuple) -> None:
        base, self.victim_asid, self.sbase, self.ssize, self.buffer = state
        super().rewind(base)

    # -- the trusted-OS-managed registers ---------------------------------------

    def set_secure_region(
        self, sbase: int, ssize: int, victim_asid: Optional[int] = None
    ) -> None:
        """Program the ``sbase``/``ssize`` (and victim process) registers."""
        if ssize < 0:
            raise ValueError("ssize cannot be negative")
        self.sbase = sbase
        self.ssize = ssize
        if victim_asid is not None:
            self.victim_asid = victim_asid
        # Reprogramming the region changes the Sec_D predicate out from
        # under the run kernel's proofs: conservatively break any active
        # hit-run (see BaseTLB.translate_runs).
        self._mutations += 1

    def is_secure(self, vpn: int, asid: int) -> bool:
        """The ``Sec_D`` predicate for a request."""
        return (
            asid == self.victim_asid
            and self.ssize > 0
            and self.sbase <= vpn < self.sbase + self.ssize
        )

    # -- access handling ----------------------------------------------------------

    def _oracle_universe(self, asid: int):
        # With no secure region programmed for this ASID, Sec_D is
        # identically false; if no running ASID has one, then --
        # cold-starting from an empty TLB, so no Sec-bit entry can ever
        # become resident -- Sec_R is too: every miss takes Figure 3's
        # plain-SA branch and the whole TLB is the fill universe every
        # ASID shares.  A programmed region vetoes the victim's
        # engagement, and with it every lane of its run (the random-fill
        # paths are not a function of the trace); programming one later
        # bumps the mutation epoch, failing the resume check.
        if self.ssize > 0 and asid == self.victim_asid:
            return None
        return super()._oracle_universe(asid)

    def translate(self, vpn: int, asid: int, translator: Translator) -> AccessResult:
        self.buffer = None  # The buffer is cleaned after each return.
        return super().translate(vpn, asid, translator)

    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        walk = translator.walk(vpn, asid)
        miss_cycles = self.config.hit_latency + walk.cycles
        sec_d = self.is_secure(vpn, asid)
        replacement_victim = self._policy.select(self._set_for(vpn, walk.level))
        sec_r = replacement_victim.valid and replacement_victim.sec

        if not sec_d and not sec_r:
            evicted = self._fill_entry(
                replacement_victim, vpn, walk.ppn, asid, level=walk.level
            )
            return AccessResult(
                hit=False,
                ppn=walk.ppn,
                cycles=miss_cycles,
                evicted=evicted,
                filled=True,
            )

        if sec_d:
            # Random fill from inside the secure region.
            random_vpn = self.engine.secure_page(self.sbase, self.ssize)
        else:
            # Sec_R = 1, Sec_D = 0: protect R by filling a random page over
            # the secure region's sets instead of D.
            random_vpn = self.engine.randomized_set_page(
                vpn, self.sbase, self.ssize, self.config.sets
            )
        self._random_fill(random_vpn, asid, translator)

        # D's translation goes back through the buffer, never into the TLB.
        # A no-fill is replacement-visible state the run kernel must hear
        # about even when this miss runs *outside* translate_runs (an
        # evented quantum interleaved with run-kernel ones): the requested
        # page was touched yet left non-resident, which breaks the
        # threshold proof's "touched => resident" invariant.
        self._mutations += 1
        self.stats.no_fills += 1
        buffered = TLBEntry()
        buffered.fill(vpn, walk.ppn, asid, now=self._clock, sec=sec_d)
        self.buffer = buffered
        return AccessResult(
            hit=False,
            ppn=walk.ppn,
            cycles=miss_cycles,
            evicted=None,
            filled=False,
        )

    def _random_fill(self, vpn: int, asid: int, translator: Translator) -> None:
        """Install the RFE-chosen page ``D'``, evicting its set's LRU ``R'``."""
        existing = self._find(vpn, asid)
        if existing is not None:
            # D' already cached: the fill degenerates to an LRU refresh.
            existing.touch(self._clock)
            return
        walk = translator.walk(vpn, asid)
        victim = self._policy.select(self._set_for(vpn))
        self._fill_entry(
            victim, vpn, walk.ppn, asid, sec=self.is_secure(vpn, asid)
        )
        self.stats.random_fills += 1
