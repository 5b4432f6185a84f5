"""The standard set-associative TLB (the paper's baseline).

Covers every "Standard TLB" organization of the evaluation: set-associative
(``2W``/``4W``), fully associative (``FA``, one set) and the single-entry
``1E`` configuration, depending only on :class:`repro.tlb.TLBConfig`.

On a miss the requested translation is walked and filled into the victim
way chosen by the replacement policy over the *whole* set -- any process can
evict any other process's entries, which is precisely what the external
miss-based attack rows (TLB Prime + Probe, TLB Evict + Time) exploit.  Hits
require matching ASID, which is what defends the cross-process hit-based
rows (TLB Flush + Reload).

That is :class:`repro.tlb.base.BaseTLB`'s plain miss as it stands -- the
reference ``_handle_miss`` and the run kernel's ``_run_miss_fast`` over
the whole set, which the base ``_fill_ways`` grants every ASID -- so this
design adds nothing to the template.
"""

from __future__ import annotations

from .base import BaseTLB


class SetAssociativeTLB(BaseTLB):
    """Standard SA/FA TLB with ASID tags and per-set replacement."""
