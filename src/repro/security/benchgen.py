"""Micro security benchmark generation (Section 5.1, Figure 6).

Every three-step vulnerability is translated into a runnable assembly
program following the paper's template: set the secure-region registers,
execute the three steps with ``process_id`` switches emulating the attacker
and the victim, read ``tlb_miss_count`` around Step 3, and report PASS when
the probe observed a TLB miss (slow) and FAIL when it hit (fast).

:func:`expand` turns the symbolic steps into the benchmark's ops
(accesses and fences, each with its process and step), once:
:func:`generate` renders them as the program, and
:mod:`repro.analysis.certify` executes them on its lifted machine.  The
expansion mirrors the paper's experimental setup (Section 5.3, 8-way
32-entry TLB, secure region of 3 or 31 contiguous pages):

* miss-based patterns fill the tested set in their prime/evict steps (the
  Figure 6 comment: "Attacker primes the whole TLB/specific set"), with
  the number of priming pages matched to the ways the acting process can
  actually occupy (the whole set for SA/RF, its partition for SP);
* hit-based patterns access single pages -- the signal is a collision hit,
  not an eviction;
* the secret access ``u`` is placed so that it maps (or does not map) to
  the tested block, with "maps" resolved per-pattern from the effectiveness
  analysis: ``u == a`` for the collision-style rows, "same set, different
  page" for the eviction-style rows;
* the secure region is 31 pages when the pattern involves the known
  in-range page in Step 1 or 2 (so in-region aliases and contention exist),
  3 pages otherwise -- the paper's two victim scenarios.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import List, NamedTuple, Optional

from repro.model.effectiveness import Relation, applicable_relations, step3_timings
from repro.model.patterns import Observation, Vulnerability
from repro.model.states import Actor, AddressClass, Operation, State
from repro.tlb.spec import HierarchySpec


@dataclass(frozen=True)
class BenchmarkLayout:
    """Page-number geometry shared by all generated benchmarks."""

    #: TLB geometry under test (Section 5.3 uses 4 sets x 8 ways).
    nsets: int = 4
    nways: int = 8
    #: First page of the victim's security-critical region ``x``.
    sbase: int = 0x100
    #: Base of the out-of-range ``d`` pages (same set as ``sbase``).
    dbase: int = 0x200
    #: Base of filler pages used to top up a set during ``a`` primes.
    fillbase: int = 0x300
    #: Simulated process IDs (Figure 6: 0 is the attacker, 1 the victim).
    attacker_pid: int = 0
    victim_pid: int = 1
    #: How many pages a prime/evict step uses per actor (see
    #: :func:`layout_for_spec`).
    prime_ways_victim: int = 8
    prime_ways_attacker: int = 8

    def __post_init__(self) -> None:
        if self.nsets <= 0 or self.nways <= 0:
            raise ValueError("geometry must be positive")
        for name in ("sbase", "dbase", "fillbase"):
            base = getattr(self, name)
            if base % self.nsets:
                raise ValueError(
                    f"{name}={base:#x} must map to set 0 (multiple of nsets)"
                )
        if len({self.sbase, self.dbase, self.fillbase}) != 3:
            raise ValueError("page bases must be distinct")

    @property
    def target_set(self) -> int:
        """The TLB set under test (the set ``sbase`` maps to)."""
        return self.sbase % self.nsets

    def prime_ways(self, actor: Actor) -> int:
        if actor is Actor.VICTIM:
            return self.prime_ways_victim
        return self.prime_ways_attacker

    def pid(self, actor: Actor) -> int:
        if actor is Actor.VICTIM:
            return self.victim_pid
        return self.attacker_pid


def region_size_for(vulnerability: Vulnerability) -> int:
    """3 or 31 pages, per the paper's two victim scenarios (Section 5.3).

    Patterns that involve the known in-range page ``a`` (or its alias) in
    Step 1 or Step 2 need in-region aliases/contention, hence 31 pages; the
    rest use the small 3-page region.
    """
    in_range = {AddressClass.A, AddressClass.A_ALIAS}
    steps12 = vulnerability.pattern.steps[:2]
    if any(step.address in in_range for step in steps12):
        return 31
    return 3


@functools.lru_cache(maxsize=None)
def secret_maps_to_a(vulnerability: Vulnerability) -> bool:
    """True when the informative observation requires ``u == a`` exactly.

    Cached: :func:`generate` and the certifier each place ``u`` twice per
    program, and the effectiveness analysis dominates a program's cost.
    """
    pattern = vulnerability.pattern
    consistent = {
        relation
        for relation in applicable_relations(pattern)
        if vulnerability.observation in step3_timings(pattern, relation)
    }
    return Relation.EQ_A in consistent


def secret_page(
    vulnerability: Vulnerability, layout: BenchmarkLayout, mapped: bool, ssize: int
) -> int:
    """The victim's secret page ``u`` for a mapped or unmapped trial."""
    if not mapped:
        # A page of the region in a *different* set than the tested block.
        # A fully associative TLB has a single set, so the distinction
        # collapses (the reason FA organizations defend the miss-based
        # rows, Section 2.3); the trial still uses a distinct page.
        unmapped = layout.sbase + 1
        assert layout.nsets == 1 or unmapped % layout.nsets != layout.target_set
        return unmapped
    if secret_maps_to_a(vulnerability):
        return layout.sbase  # u == a
    # Same set as the tested block, distinct from a (and the alias).
    if ssize > 2 * layout.nsets:
        return layout.sbase + 2 * layout.nsets
    return layout.sbase


def alias_page(layout: BenchmarkLayout) -> int:
    """The in-region page aliasing ``a`` (same set, different page)."""
    return layout.sbase + layout.nsets


def prime_pages(
    layout: BenchmarkLayout,
    state: State,
    ssize: int,
    count: int,
    u_page: int,
) -> List[int]:
    """The pages a prime/evict step accesses, key page first.

    ``d`` steps use out-of-range pages in the tested set.  ``a``/alias
    steps access the key page first (making it the LRU victim once the set
    fills) and then top the set up: the victim tops up with its own
    in-region same-set pages (they exist when the region is 31 pages),
    falling back to out-of-range fillers; the attacker always uses fillers.
    The secret page ``u`` is excluded -- priming it would pre-cache the very
    translation whose presence the attack is trying to infer.
    """
    step = layout.nsets
    if state.address is AddressClass.D:
        return [layout.dbase + i * step for i in range(count)]

    key = layout.sbase if state.address is AddressClass.A else alias_page(layout)
    pages = [key]
    if state.actor is Actor.VICTIM:
        candidate = layout.sbase
        while len(pages) < count and candidate < layout.sbase + ssize:
            if (
                candidate % layout.nsets == layout.target_set
                and candidate != key
                and candidate != u_page
            ):
                pages.append(candidate)
            candidate += 1
    filler = 0
    while len(pages) < count:
        pages.append(layout.fillbase + filler * step)
        filler += 1
    return pages


class Op(NamedTuple):
    """One operation of a micro benchmark, as the program performs it.

    ``kind`` is ``"access"`` (a load from page ``vpn``), ``"sfence_all"``
    (a full fence) or ``"sfence_page"`` (a fence of the entry process
    ``owner`` holds for page ``vpn``).  ``pid`` is the process that
    performs it, and ``step`` the pattern step (0-2) it belongs to; step
    2 is the measured window.
    """

    kind: str
    pid: int
    vpn: int = 0
    owner: int = 0
    step: int = 0


def expand(
    vulnerability: Vulnerability,
    layout: BenchmarkLayout,
    mapped: bool,
    ssize: int,
) -> List[Op]:
    """The ops of one micro benchmark, in program order.

    :func:`generate` renders exactly these ops as the CPU's program, and
    :mod:`repro.analysis.certify` executes them on its lifted machine.
    ``mapped`` selects the victim behaviour of Table 3 and ``ssize`` is
    the secure region's size in pages.
    """
    u_page = secret_page(vulnerability, layout, mapped, ssize)
    steps = vulnerability.pattern.steps
    # Eviction-style rows need their prime/evict steps to fill the set.
    # For an access probe that is the *slow* rows; for an invalidation
    # probe the polarity inverts (fast = entry absent = evicted).
    if steps[2].operation is Operation.INVALIDATE_TARGET:
        miss_based = vulnerability.observation is Observation.FAST
    else:
        miss_based = vulnerability.observation is Observation.SLOW
    ops: List[Op] = []
    for index, state in enumerate(steps):
        pid = _acting_pid(layout, state)
        if state.operation is Operation.INVALIDATE_ALL:
            ops.append(Op("sfence_all", pid, step=index))
        elif state.operation is Operation.INVALIDATE_TARGET:
            # In-range pages belong to the victim's address space, so a
            # targeted invalidation of u/a/alias names the victim's entry
            # regardless of who triggers it (e.g. via mprotect-induced
            # shootdown); a ``d`` invalidation names the actor's own entry.
            in_range = state.address in (
                AddressClass.U,
                AddressClass.A,
                AddressClass.A_ALIAS,
            )
            owner = layout.victim_pid if in_range else pid
            vpn = single_page(state, layout, u_page)
            ops.append(Op("sfence_page", pid, vpn, owner, index))
        elif state.operation is Operation.ACCESS:
            role = role_of(index, steps, miss_based)
            if state.address is AddressClass.U or role == "single":
                pages = [single_page(state, layout, u_page)]
            else:
                count = layout.prime_ways(state.actor)
                pages = prime_pages(layout, state, ssize, count, u_page)
                if role == "probe" and state.address in (
                    AddressClass.A,
                    AddressClass.A_ALIAS,
                ):
                    # The probe of an ``a`` pattern re-checks only the key
                    # page.
                    pages = pages[:1]
            ops += [Op("access", pid, vpn, step=index) for vpn in pages]
    return ops


def generate(
    vulnerability: Vulnerability,
    layout: BenchmarkLayout = BenchmarkLayout(),
    mapped: bool = True,
    ssize: Optional[int] = None,
) -> str:
    """Generate the micro security benchmark for one vulnerability.

    ``mapped`` selects the victim behaviour of Table 3: whether the secret
    access collides with the tested block.  The program performs
    :func:`expand`'s ops in order, one load or fence each; around them it
    only sets the secure region, switches the process and reads the
    measured counter.  The returned text assembles with
    :func:`repro.isa.assemble`; the program finishes with PASS when Step
    3 observed a TLB miss and FAIL when it hit, and leaves the Step-3
    miss count in ``a0``.
    """
    if ssize is None:
        ssize = region_size_for(vulnerability)
    u_page = secret_page(vulnerability, layout, mapped, ssize)
    ops = expand(vulnerability, layout, mapped, ssize)
    steps = vulnerability.pattern.steps
    # Invalidations do not count as TLB misses; their timing signal is the
    # extra cycle spent clearing a present entry (Appendix B), so an
    # invalidation probe measures cycles instead.
    probe_is_invalidation = steps[2].operation is Operation.INVALIDATE_TARGET
    counter = "cycle" if probe_is_invalidation else "tlb_miss_count"
    lines = [
        f"# micro security benchmark: {vulnerability.pretty()}",
        f"# trial: u {'maps' if mapped else 'does not map'} "
        f"to the tested block (u = page {u_page:#x})",
        f"csrw sbase, {layout.sbase}",
        f"csrw ssize, {ssize}",
    ]
    pid = None
    for index, state in enumerate(steps):
        lines.append(f"# step {index + 1}: {state.pretty()}")
        if index == 2:
            pid = _switch(lines, pid, _acting_pid(layout, state))
            lines.append(f"csrr x5, {counter}")
        for op in ops:
            if op.step != index:
                continue
            pid = _switch(lines, pid, op.pid)
            if op.kind == "sfence_all":
                lines.append("sfence.vma")
                continue
            lines.append(f"la x1, page_{op.vpn:x}")
            if op.kind == "sfence_page":
                lines += [f"li x7, {op.owner}", "sfence.vma x1, x7"]
                continue
            secure = (
                op.pid == layout.victim_pid
                and layout.sbase <= op.vpn < layout.sbase + ssize
            )
            lines.append(f"{'ldrand' if secure else 'ldnorm'} x2, 0(x1)")
    lines += [f"csrr x6, {counter}", "sub x10, x6, x5"]
    if probe_is_invalidation:
        # Fixed cycles inside an invalidation-probe window: the first
        # csrr's own cycle + la + li + the fast (one-cycle) sfence = 4; a
        # present entry costs one more (Appendix B).
        lines.append("addi x10, x10, -4")
    lines += [
        # a0 > 0 <=> the probe was slow (missed / paid the extra
        # invalidation cycle).
        "beq x10, x0, fast_path",
        "pass",  # PASS: slow observed
        "fast_path:",
        "fail",  # FAIL: fast observed
        ".data",
    ]
    for vpn in sorted({op.vpn for op in ops if op.kind != "sfence_all"}):
        lines += [f".org {vpn << 12:#x}", f"page_{vpn:x}: .dword 0"]
    return "\n".join(lines) + "\n"


def _switch(lines: List[str], current: Optional[int], pid: int) -> int:
    """Make ``pid`` the running process; returns it."""
    if pid != current:
        lines.append(f"csrw process_id, {pid}")
    return pid


def role_of(index: int, steps, miss_based: bool) -> str:
    """Classify the step: prime (fill set), probe (re-check), or single."""
    if not miss_based:
        return "single"
    shape_known_u_known = steps[1].is_secret
    if shape_known_u_known:
        if index == 0:
            return "prime"
        if index == 2:
            return "probe"
        return "single"
    # Shape u ~> known ~> u: the middle step evicts.
    return "prime" if index == 1 else "single"


def _acting_pid(layout: BenchmarkLayout, state: State) -> int:
    if state.actor is None:
        return layout.attacker_pid
    return layout.pid(state.actor)


def single_page(state: State, layout: BenchmarkLayout, u_page: int) -> int:
    if state.address is AddressClass.U:
        return u_page
    if state.address is AddressClass.A:
        return layout.sbase
    if state.address is AddressClass.A_ALIAS:
        return alias_page(layout)
    return layout.dbase  # d


def layout_for_spec(
    spec: HierarchySpec, partitioned_primes: bool = False
) -> BenchmarkLayout:
    """The benchmark geometry for a design: its *last* level's.

    The last level is the one whose misses the walk counter exposes, so
    its sets are what the attacker primes, and each prime/evict step
    fills a whole set (as many pages as it has ways).  With
    ``partitioned_primes`` an SP last level narrows each actor's primes
    to its own partition (the Table 4 family's SP rule); the hierarchy
    study and sweep keep whole-set primes.  The evaluator and
    :func:`repro.analysis.certify.certify` both take their layout here.
    """
    last = spec.levels[-1]
    victim_ways = attacker_ways = last.ways
    if partitioned_primes and last.kind == "SP":
        victim_ways = last.effective_victim_ways()
        attacker_ways = last.ways - victim_ways
    return BenchmarkLayout(
        nsets=last.sets,
        nways=last.ways,
        prime_ways_victim=victim_ways,
        prime_ways_attacker=attacker_ways,
    )
