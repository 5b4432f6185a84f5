"""What the operating system does to the TLB on a context switch.

The performance evaluation (Section 6) runs the victim (RSA) alongside
SPEC benchmarks under Linux.  :meth:`repro.sim.MemorySystem.context_switch`
applies one of these policies on every switch, so the software mitigations
of Section 2.3 can be reproduced as ablations: keep entries (standard
ASID-tagged Linux behaviour), flush everything (the Sanctum / SGX "flush on
enclave switch" defence), or flush the outgoing ASID.
"""

from __future__ import annotations

import enum


class SwitchPolicy(enum.Enum):
    """What happens to the TLB on a context switch."""

    #: ASID-tagged entries survive switches (today's Linux on RISC-V).
    KEEP = "keep"
    #: Flush everything on every switch (Sanctum's security-monitor flush,
    #: Intel SGX's enclave-exit flush -- defends the 4 EM rows on top of SA).
    FLUSH_ALL = "flush_all"
    #: Flush only the outgoing process's entries.
    FLUSH_OUTGOING = "flush_outgoing"
