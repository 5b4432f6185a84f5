"""Shared TLB machinery: lookup, flush, invalidation, and the miss path.

Every design (standard SA/FA, Static-Partition, Random-Fill) shares the same
hit path -- a hit requires matching page number *and* process ID -- and the
same maintenance operations; the designs differ only in how a miss is
handled.  :class:`BaseTLB` implements the common template, including the
plain miss -- walk, then fill the replacement victim -- both as the
reference :meth:`BaseTLB._handle_miss` and as the run kernel's
allocation-free :meth:`BaseTLB._run_miss_fast`.  A design states only
what differs: which ways an ASID's miss may fill
(:meth:`BaseTLB._fill_ways`; SP's partitions) and, for RF, Figure 3's
secure branches (its own ``_handle_miss``).

Translations come from a *translator* (the page-table walker in the full
system; tests use :class:`IdentityTranslator`).  The walker reports its
latency so the TLB can expose the fast/slow timing the attacks measure.

Lookups are backed by a *fast index*: a dict from ``(tag, asid, level)``
to the resident entry, maintained alongside ``_sets`` by every fill,
eviction, flush and invalidation (the coherence invariant
:meth:`BaseTLB.audit` checks).  The index turns the per-access way scan
into at most three dict probes -- one per superpage level -- and backs the
allocation-free :meth:`BaseTLB.translate_runs` kernel used by the trace
simulator (see :mod:`repro.sim.kernel`).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from operator import attrgetter
from typing import Dict, List, Optional, Protocol, Tuple

from .config import TLBConfig
from .entry import TLBEntry
from .replacement import LRUPolicy, ReplacementPolicy, make_policy
from .stats import TLBStats

#: Sort key for :meth:`BaseTLB._rebuild_victim_queue` (stable sort keeps
#: candidate order on the impossible-in-practice tie, matching reference
#: ``select``'s first-minimum rule).
_BY_LAST_USED = attrgetter("last_used")


@dataclass(frozen=True)
class WalkResult:
    """A page-table walk's outcome: the physical page and its latency.

    ``level`` reports the leaf's superpage level (0 = 4 KiB): superpage
    walks touch fewer radix levels and their translations cover a whole
    aligned region in the TLB.
    """

    ppn: int
    cycles: int
    level: int = 0


class Translator(Protocol):
    """Anything that can resolve a (vpn, asid) to a physical page."""

    def walk(self, vpn: int, asid: int) -> WalkResult:  # pragma: no cover
        ...


class IdentityTranslator:
    """A trivial translator mapping every page to itself.

    Used by unit tests and the security benchmarks, where only hit/miss
    behaviour matters; the full system uses :class:`repro.mmu.walker`.
    """

    def __init__(self, cycles: int = 30) -> None:
        self.cycles = cycles
        self.walks = 0

    def walk(self, vpn: int, asid: int) -> WalkResult:
        self.walks += 1
        return WalkResult(ppn=vpn, cycles=self.cycles)


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one translation request."""

    hit: bool
    ppn: int
    #: Total latency in cycles: the architectural timing the attacker sees.
    cycles: int
    #: The valid entry displaced by this access's fill, if any.
    evicted: Optional[TLBEntry] = None
    #: Whether the *requested* translation was inserted into the TLB.  The
    #: Random-Fill TLB returns secure-region translations through its buffer
    #: without filling (Section 4.2.1), in which case this is False.
    filled: bool = True

    @property
    def miss(self) -> bool:
        return not self.hit


class BaseTLB:
    """Template for all TLB designs."""

    def __init__(self, config: TLBConfig, name: str = "tlb") -> None:
        self.config = config
        self.name = name
        self.stats = TLBStats()
        self._policy: ReplacementPolicy = make_policy(config.replacement)
        self._clock = 0
        self._sets: List[List[TLBEntry]] = [
            [TLBEntry() for _way in range(config.ways)]
            for _set in range(config.sets)
        ]
        #: Fast lookup index: (tag, asid, level) -> the resident entry.
        #: Coherent with ``_sets`` at every step (see the module doc); a
        #: clean TLB has exactly one index key per valid entry.
        self._index: Dict[Tuple[int, int, int], TLBEntry] = {}
        #: Count of valid superpage (level > 0) entries: lets the fast
        #: path skip the level-1/2 index probes entirely for the common
        #: all-4KiB case.
        self._super_entries = 0
        #: Replacement-visible mutation epoch: bumped by every eviction,
        #: invalidation, flush and Sec-region change -- every state change
        #: that can make a previously-resident page non-resident.  Plain
        #: fills into invalid ways and MRU reordering do *not* bump it, so
        #: the run kernel's cross-quantum hit proofs (which only assert
        #: residency of recently-touched pages) survive them.  See
        #: :meth:`translate_runs`.
        self._mutations = 0
        #: Count of resident Sec-bit entries (Random-Fill designs); while
        #: it is nonzero, :meth:`_run_miss_fast` hands every RF miss to
        #: the reference ``_handle_miss`` (``Sec_R`` may be 1).
        self._sec_resident = 0
        #: Identity of the entry displaced by the most recent action-3
        #: :meth:`_run_miss_fast` miss, read back by
        #: :meth:`translate_runs` to place the eviction horizon (plain
        #: attributes instead of a return object keep the path
        #: allocation-free).
        self._evicted_vpn = 0
        self._evicted_asid = 0
        self._evicted_level = 0
        #: Amortised-O(1) LRU victim machinery (:meth:`_run_miss_fast`):
        #: per-set caches of the full LRU order, each pop validated
        #: against the entry's live ``last_used`` (timestamps only grow,
        #: so an unchanged snapshot proves the entry is still the set
        #: minimum).  ``_inval_epoch`` moves only on invalidations and
        #: flushes -- the events that can resurface reference
        #: ``select``'s invalid-way preference -- discarding every cached
        #: order wholesale.
        self._victim_queues: Dict[int, List] = {}
        self._inval_epoch = 0
        #: Hot-path copies of config-derived values (``config.sets`` is a
        #: computed property; the run kernel's miss path reads these per
        #: miss).
        self._nsets = config.sets
        self._hit_latency = config.hit_latency

    # -- the shared hit path ---------------------------------------------------

    def translate(self, vpn: int, asid: int, translator: Translator) -> AccessResult:
        """Translate one page access, updating state and statistics."""
        self._clock += 1
        entry = self._find(vpn, asid)
        if entry is not None:
            entry.touch(self._clock)
            self.stats.record_access(hit=True, asid=asid)
            # A hit inserts nothing: the entry was already resident (it may
            # even be a *random* fill's, never the requested translation).
            return AccessResult(
                hit=True,
                ppn=entry.translate(vpn),
                cycles=self.config.hit_latency,
                filled=False,
            )
        self.stats.record_access(hit=False, asid=asid)
        return self._handle_miss(vpn, asid, translator)

    #: Set by the Random-Fill TLB: its one-entry no-fill ``buffer`` must be
    #: cleaned at the start of every request, including batched ones, and
    #: :meth:`_run_miss_fast` must consult its Sec predicate (``Sec_R``,
    #: ``is_secure``), whose secure branches only its ``_handle_miss`` has.
    _NOFILL_BUFFER = False

    def translate_runs(
        self, trace, start: int, stop: int, asid: int,
        translator: Translator, state,
    ) -> Tuple[int, int]:
        """Run-granular batch translate over ``trace`` positions
        ``[start, stop)``; returns ``(total_cycles, misses)``.

        The one fast path beside the reference :meth:`translate` (Guo's
        trace-granularity idea): the structure columns of a complete
        :class:`repro.sim.kernel.CompiledTrace` (``prev``/``nxt`` plus
        block minima, built by ``ensure_structure`` over every compiled
        event before the first replay) let whole stretches of guaranteed
        hits be *proved* and retired in O(run) local arithmetic -- no
        per-access dict probe -- with a per-access index probe only at
        the positions a fill, eviction, no-fill return, superpage probe
        or Sec boundary could occur.

        The proof has two halves.  **Threshold**: ``state.threshold`` is
        a trace position ``T`` such that every page touched at a
        position ``>= T`` is still resident -- except the pages in the
        eviction ledger.  Hits only reorder MRU recency, so an access
        whose ``prev`` is ``>= T`` (and is below every ledger horizon)
        must hit.  **Ledger**: an ordinary eviction un-residents exactly
        one page ``V``, so instead of collapsing ``T`` the kernel
        bisects ``V``'s occurrence list (``trace.occ``) for its next
        appearance -- a forced miss -- and pushes it onto the min-heap
        of *next-eviction horizons*; hit-runs extend only below the heap
        top, and the horizon pops when its probe refills the page.  A
        page that never occurs again needs no horizon, since the trace
        is complete.  ``T`` itself moves only for effects the kernel
        cannot place: a superpage eviction or the eviction of a page
        the trace does not list (``T`` = the miss position), a no-fill
        return (``T`` moves *past* the miss: the requested page was left
        non-resident, and the ledger -- whose entries are all below the
        new ``T`` -- is cleared), or an external mutation (``_mutations``
        mismatch: the whole proof state restarts at the resume
        position).  Every probed miss goes through the one
        :meth:`_run_miss_fast`, whose action code says which of these
        it caused.

        A maximal provable stretch is a *run*: the kernel bulk-advances
        the clock, access and hit counters and the cycle total, then
        settles the LRU timestamp of each page's final touch (identified
        by ``nxt``; earlier touches are overwritten in the reference
        too, so only the last is architecturally visible).  The first
        unprovable access is probed individually; probed hits need no
        proof update -- their position is ``>= T`` already, extending
        the provable set for free.

        Statistics, walker counts, replacement state and timing are
        identical to :meth:`translate` over the same span -- the
        differential suite and ``python -m repro bench`` enforce it.

        Above both halves sits the *oracle tier*: when a fresh state
        starts at position 0 against an empty TLB and every ASID of its
        replay fills plain per-set LRU ways (:meth:`_oracle_engage`),
        the entire hit/miss schedule is a function of the planned
        access stream alone, precomputed by
        :class:`repro.sim.kernel.ReuseOracle` -- per trace for a process
        alone in its ways, over the merged stream for processes sharing
        them -- and retired slice-at-a-time by :meth:`_oracle_slice` in
        O(misses).  Any interference between slices -- accesses off the
        plan, mutations, remaps -- fails the resume check and drops
        every lane of the replay to the ledger tier permanently.
        """
        if stop > len(trace.prev) or len(trace.prev) != len(trace.gaps):
            raise ValueError(
                "translate_runs needs a complete trace: ensure_structure "
                "over every compiled event, through stop"
            )
        tier = state.o_tier
        if tier is not None and tier.active:
            universe = state.o_universe
            token_fn = getattr(translator, "memo_token", None)
            if (
                universe.placed(state.o_lane, start, stop)
                and universe.asids[state.o_slot] == asid
                and tier.mut == self._mutations
                and tier.accesses == self.stats.accesses
                and tier.fills == self.stats.fills
                and token_fn is not None
                and token_fn(asid) == tier.tokens.get(asid)
            ):
                return self._oracle_slice(
                    trace, start, stop, asid, translator, state
                )
            # Something beside the plan touched the TLB, its counters or
            # a mapping since the last oracle slice: the precomputed
            # schedules no longer apply.  Every lane drops to the ledger
            # tier for good -- its own mutation check (state.mut is
            # still -1) rebuilds each proof from its resume position.
            tier.active = False
        elif (
            state.mut == -1
            and start == 0
            and self._oracle_engage(trace, asid, translator, state)
        ):
            return self._oracle_slice(
                trace, start, stop, asid, translator, state
            )
        prev = trace.prev
        nxt = trace.nxt
        vpns = trace.vpns
        sub_min = trace.sub_min_prev
        blk_min = trace.blk_min_prev
        occ = trace.occ
        index = self._index
        stats = self.stats
        clock = self._clock
        hit_cycles = self.config.hit_latency
        clear_buffer = self._NOFILL_BUFFER
        index_get = index.get
        heap = state.hheap
        #: Per-invocation vpn -> exact level-0 entry memo for the settle
        #: and probe paths (int-key probes instead of tuple-key ones).
        #: Sound because nothing mutates the TLB mid-invocation except
        #: the probed misses themselves, whose action codes say exactly
        #: what to drop: the named evictee on action 3, everything on a
        #: no-fill (action 2).
        cache: Dict[int, TLBEntry] = {}
        cache_get = cache.get
        # Cross-quantum walk memo: engaged only for translators that
        # expose a validity token (real page-table walkers; hierarchy
        # adapters must re-run every miss for its lower-level effects).
        token_fn = getattr(translator, "memo_token", None)
        if token_fn is None:
            wcache = None
        else:
            wcache = state.walk_cache
            if wcache and token_fn(asid) != state.walk_token:
                wcache.clear()
        if state.mut != self._mutations:
            state.threshold = start
            if heap:
                heap.clear()
        threshold = state.threshold
        run_hits = 0
        probed = 0
        runs = 0
        total_cycles = 0
        misses = 0
        i = start
        while i < stop:
            # -- run detection: the maximal m with prev[i:m] all >= T,
            # capped at the nearest eviction horizon.
            hstop = stop
            if heap and heap[0] < stop:
                hstop = heap[0]
            # Aligned whole blocks are cleared with one precomputed-min
            # read (128 then 16 positions at a time); only a failing
            # sub-block is scanned element-wise.
            m = i
            while m < hstop:
                if (
                    not m & 127
                    and m + 128 <= hstop
                    and blk_min[m >> 7] >= threshold
                ):
                    m += 128
                elif (
                    not m & 15
                    and m + 16 <= hstop
                    and sub_min[m >> 4] >= threshold
                ):
                    m += 16
                elif prev[m] >= threshold:
                    m += 1
                else:
                    break
            if m > i:
                # -- retire the proven run [i, m) wholesale.
                count = m - i
                runs += 1
                run_hits += count
                total_cycles += hit_cycles * count
                if clear_buffer:
                    self.buffer = None
                # Settle LRU recency: position j's touch happened at
                # clock + (j - i + 1); only each page's last touch in
                # the run survives in the reference, and ascending order
                # leaves shared superpage entries at their maximum.
                base = clock - i + 1
                for j, horizon in enumerate(nxt[i:m], i):
                    if horizon >= m:
                        vpn = vpns[j]
                        entry = cache_get(vpn)
                        if entry is not None:
                            entry.last_used = base + j
                        else:
                            entry = index_get((vpn, asid, 0))
                            if (
                                entry is not None
                                and entry.valid
                                and entry.vpn == vpn
                                and entry.asid == asid
                            ):
                                entry.last_used = base + j
                                cache[vpn] = entry
                            else:
                                self._settle_touch(vpn, asid, base + j)
                clock += count
                if m >= stop:
                    break
            # -- the unprovable access at m: per-access probe.
            forced = False
            while heap and heap[0] <= m:
                if heap[0] == m:
                    forced = True
                heappop(heap)
            probed += 1
            clock += 1
            if clear_buffer:
                self.buffer = None
            vpn = vpns[m]
            # A heap-horizon probe is a *guaranteed* miss: the horizon is
            # the evicted page's next occurrence, so this very access is
            # its first chance to refill (another ASID's identical vpn
            # cannot hit, and evictions elsewhere would have reset the
            # proof via the mutation epoch) -- unless a superpage entry
            # could cover it, in which case probe properly.
            if not forced or self._super_entries:
                entry = cache_get(vpn)
                if entry is None:
                    entry = index_get((vpn, asid, 0))
                    if (
                        entry is not None
                        and entry.valid
                        and entry.vpn == vpn
                        and entry.asid == asid
                    ):
                        cache[vpn] = entry
                    else:
                        entry = None
                if entry is not None:
                    entry.last_used = clock
                    total_cycles += hit_cycles
                    i = m + 1
                    continue
                self._clock = clock
                found = self._find(vpn, asid) if self._super_entries else None
                if found is not None:
                    found.last_used = clock
                    total_cycles += hit_cycles
                    i = m + 1
                    continue
            else:
                self._clock = clock
            packed = self._run_miss_fast(vpn, asid, translator, wcache)
            total_cycles += packed >> 2
            misses += 1
            action = packed & 3
            if action == 3:
                # A known-identity eviction: another process's entry is
                # no threat to this trace's proofs, a superpage covers
                # pages this kernel cannot enumerate (collapse T), and an
                # ordinary same-process page becomes a ledger horizon at
                # its next occurrence.
                if self._evicted_asid == asid:
                    if self._evicted_level:
                        threshold = m
                    else:
                        chain = occ.get(self._evicted_vpn)
                        if chain is None:
                            threshold = m
                        else:
                            cursor = bisect_right(chain, m)
                            if cursor < len(chain):
                                heappush(heap, chain[cursor])
                        if cache:
                            cache.pop(self._evicted_vpn, None)
            elif action == 2:
                threshold = m + 1
                if heap:
                    heap.clear()
                if cache:
                    cache.clear()
            i = m + 1
        self._clock = clock
        # Bulk statistics: every retired or probed position is one
        # access; _run_miss_fast leaves the access/hit/miss counters to
        # this single settlement (the asid is constant per invocation).
        accesses = run_hits + probed
        if accesses:
            stats.accesses += accesses
            stats.hits += accesses - misses
            if misses:
                stats.misses += misses
                by_asid = stats.misses_by_asid
                by_asid[asid] = by_asid.get(asid, 0) + misses
        state.threshold = threshold
        state.mut = self._mutations
        state.run_hits += run_hits
        state.probed += probed
        state.runs += runs
        if token_fn is not None:
            # Re-snapshot *after* the quantum: our own auto-mapped pages
            # bumped the version, but mappings only grew, so everything
            # cached remains exactly what a fresh walk would return.
            state.walk_token = token_fn(asid)
        return total_cycles, misses

    def _oracle_universe(self, asid: int):
        """The (nsets, per-set way lists) an oracle replay for ``asid``
        would fill into, or None when the design's miss behaviour for
        this ASID is not plain per-set LRU even from a cold start.

        The base answer covers every design whose cold-start miss path
        is the plain fill: the ways :meth:`_fill_ways` grants the ASID
        (the whole TLB, or SP's partition).  RF overrides it to veto
        engagement (a programmed secure region makes the victim's misses
        take the random-fill paths).  ASIDs given the same list objects
        share one universe.
        """
        return self._nsets, self._fill_ways(asid)[0]

    def _oracle_engage(self, trace, asid: int, translator, state) -> bool:
        """Try to bind every lane of ``state``'s replay to the oracle
        tier; True when every engagement premise holds for all of them.

        The lanes are ``state.oracle_lanes(trace, asid)``: every runner
        of a planned ``simulate()``, or this state alone.  The premises
        make each universe's hit/miss schedule a pure function of its
        planned stream: the TLB starts empty (no residency the oracle
        cannot see), replacement is true LRU, the translator is a real
        page-table walker (auto-mapping, so no fault can diverge;
        ``memo_token`` + ``has_superpages`` so remaps and superpage
        leaves are detectable; ``peek`` + ``full_walk_cycles`` so
        reconciliation needs no per-miss WalkResult), no lane's table
        has ever held a superpage, and the design's universe hook grants
        plain per-set LRU for every lane's ASID.  If any premise fails,
        no lane engages.  Engagement is attempted once per replay (the
        lanes are taken); any later premise break fails the resume check
        instead.
        """
        lanes = state.oracle_lanes(trace, asid)
        if not lanes:
            return False
        if self._index or self._super_entries or self._sec_resident:
            return False
        if type(self._policy) is not LRUPolicy:
            return False
        if not getattr(translator, "auto_map", False):
            return False
        token_fn = getattr(translator, "memo_token", None)
        superpages_fn = getattr(translator, "has_superpages", None)
        if (
            token_fn is None
            or superpages_fn is None
            or getattr(translator, "peek", None) is None
            or getattr(translator, "full_walk_cycles", None) is None
        ):
            return False
        universes = []
        for _, lane_asid, _ in lanes:
            if superpages_fn(lane_asid):
                return False
            universe = self._oracle_universe(lane_asid)
            if universe is None:
                return False
            nsets, way_lists = universe
            if nsets <= 0 or not way_lists or not way_lists[0]:
                return False
            universes.append(universe)
        tier = state.o_tier
        tier.bind(lanes, universes)
        tier.accesses = self.stats.accesses
        tier.fills = self.stats.fills
        tier.mut = self._mutations
        for _, lane_asid, _ in lanes:
            tier.tokens[lane_asid] = token_fn(lane_asid)
        return True

    def _oracle_slice(
        self, trace, start: int, stop: int, asid: int, translator, state
    ) -> Tuple[int, int]:
        """Retire trace positions ``[start, stop)`` against the lane's
        universe's precomputed miss schedule; returns ``(cycles,
        misses)``.

        The slice is universe stream positions ``[base, base + n)`` from
        ``base = universe.pos``: trace positions themselves for a lane
        alone in its universe, merged positions for lanes sharing one.
        The replay costs O(misses in the slice) dict moves plus an
        O(resident) reconciliation: hits need no work at all (their
        entire effect is MRU reordering, reconstructed afterwards from
        the trace's occurrence lists), and a miss is one ``resident``
        dict move, keyed ``page + slot * stride`` (see
        :class:`repro.sim.kernel.OracleUniverse`).  Only each key's
        *first* miss runs a real walk -- that is the walk that may
        auto-map and must allocate the physical frame, and slices retire
        in the order the reference translates, so frames are allocated
        in the same order; every later miss of the same key walks an
        unchanged mapping, so its counter effect (``walks += 1``) and
        cycle cost (a full radix traversal: superpages are excluded by
        engagement) are applied in bulk.

        A fill stamps ``filled_at`` on its entry as it is replayed;
        reconciliation then sets ``last_used`` on every entry the slice
        touched (one bisect of the trace's occurrence list, mapped onto
        the TLB clock from the slice's start) and installs the
        translation -- vpn/ppn/asid/level/Sec and the fast-index key --
        in every entry it filled, so between quanta the TLB is
        indistinguishable from the reference's, entry for entry.
        """
        universe = state.o_universe
        oracle = universe.oracle
        n = stop - start
        base = universe.pos
        end = base + n
        stride = universe.stride
        offset = state.o_slot * stride
        miss_pos = oracle.miss_pos
        ka = universe.cursor
        kb = bisect_left(miss_pos, end, ka)
        k = kb - ka
        resident = universe.resident
        index = self._index
        # The TLB clock of the slice's first access: universe stream
        # position m runs at fresh - base + m.
        fresh = self._clock + 1
        evictions = 0
        if k:
            miss_key = oracle.miss_key
            miss_evict = oracle.miss_evict
            miss_first = oracle.miss_first
            free = universe.free
            asids = universe.asids
            nsets = oracle.nsets
            walk = translator.walk
            filled = fresh - base
            first_walks = 0
            for idx in range(ka, kb):
                key = miss_key[idx]
                evicted = miss_evict[idx]
                if evicted >= 0:
                    entry = resident.pop(evicted)
                    # Dropping the key is final only if the page stays
                    # out: reconciliation re-keys every page it fills.
                    slot = evicted // stride
                    index.pop((evicted - slot * stride, asids[slot], 0), None)
                    evictions += 1
                else:
                    entry = free[key % nsets].pop()
                entry.filled_at = filled + miss_pos[idx]
                resident[key] = entry
                if miss_first[idx]:
                    walk(key - offset, asid)
                    first_walks += 1
            translator.walks += k - first_walks
        # -- reconcile the architectural entry state at the slice edge.
        occ = trace.occ
        peek = translator.peek
        touched = fresh - start  # Trace position j runs at touched + j.
        for key, entry in resident.items():
            page = key - offset
            if page < 0 or page >= stride:
                continue  # Another ASID's page.
            chain = occ.get(page)
            if chain is None:
                continue  # Only another process of this ASID touches it.
            last = bisect_left(chain, stop)
            if not last or chain[last - 1] < start:
                # Untouched this slice: a prior reconciliation already
                # wrote this entry (and its index key) exactly.
                continue
            entry.last_used = touched + chain[last - 1]
            if entry.filled_at >= fresh:
                # Filled by this slice: install the translation itself.
                entry.vpn = page
                entry.ppn = peek(page, asid)
                entry.asid = asid
                entry.valid = True
                entry.level = 0
                entry.sec = False
                index[(page, asid, 0)] = entry
        stats = self.stats
        stats.accesses += n
        stats.hits += n - k
        if k:
            stats.misses += k
            by_asid = stats.misses_by_asid
            by_asid[asid] = by_asid.get(asid, 0) + k
            stats.fills += k
            if evictions:
                stats.evictions += evictions
                self._mutations += evictions
        self._clock += n
        if self._NOFILL_BUFFER:
            self.buffer = None
        total_cycles = n * self._hit_latency + k * translator.full_walk_cycles
        universe.cursor = kb
        universe.pos = end
        universe.step += 1
        tier = state.o_tier
        tier.accesses = stats.accesses
        tier.fills = stats.fills
        tier.mut = self._mutations
        # Re-snapshot after our own auto-maps bumped the version.
        tier.tokens[asid] = translator.memo_token(asid)
        state.run_hits += n - k
        state.probed += k
        if n > k:
            state.runs += 1
        return total_cycles, k

    def _fill_ways(self, asid: int) -> Tuple[List[List[TLBEntry]], int]:
        """The per-set way lists a miss of ``asid`` may fill, and a side
        (0 or 1) telling apart two such lists over one set.

        The one place a design states where a fill may land: the
        reference :meth:`_handle_miss`, the run kernel's
        :meth:`_run_miss_fast` and the oracle tier's
        :meth:`_oracle_universe` all read it.  The base answer is the
        whole set, shared by every ASID; SP narrows it to the
        requester's partition.  The lists must be persistent, since
        cached victim orders are keyed on (set, level, side).
        """
        return self._sets, 0

    def _handle_miss(
        self, vpn: int, asid: int, translator: Translator
    ) -> AccessResult:
        """The plain miss (SA and SP): walk, then fill the replacement
        policy's victim among the ways :meth:`_fill_ways` grants.

        RF overrides it with Figure 3's secure branches.
        """
        walk = translator.walk(vpn, asid)
        way_lists, _ = self._fill_ways(asid)
        victim = self._policy.select(
            way_lists[self.config.set_index_for_level(vpn, walk.level)]
        )
        evicted = self._fill_entry(
            victim, vpn, walk.ppn, asid, level=walk.level
        )
        return AccessResult(
            hit=False,
            ppn=walk.ppn,
            cycles=self.config.hit_latency + walk.cycles,
            evicted=evicted,
            filled=True,
        )

    def _run_miss_fast(
        self,
        vpn: int,
        asid: int,
        translator: Translator,
        wcache: Optional[Dict[int, int]] = None,
    ) -> int:
        """Handle a probed run-kernel miss; returns ``cycles << 2 | action``.

        The 2-bit action drives the proof update in
        :meth:`translate_runs`: 0 = filled without evicting (older
        residency intact), 2 = the requested translation was *not*
        installed (Random-Fill's no-fill return), 3 = filled and evicted
        exactly the entry named by ``_evicted_vpn`` / ``_evicted_asid``
        / ``_evicted_level``.

        The run kernel's one miss path, for every design: the
        allocation-free twin of the plain :meth:`_handle_miss`.  Walks
        come from the cross-quantum memo ``wcache`` when one is engaged
        (an architectural walk still happens -- the walker's counter
        says so), ``_set_for`` and ``_fill_entry`` are inlined, and no
        result object is built.  RF (the design with a no-fill buffer)
        takes its reference :meth:`_handle_miss` instead while a Sec-bit
        entry is resident (``Sec_R`` may be 1) or the request is secure
        (``Sec_D`` = 1), so the random fills, the buffer and both walks
        of Figure 3's secure branches stay implemented once; the action
        is then read off its result.

        Contract: this path must *not* touch the access/hit/miss
        counters -- :meth:`translate_runs` settles those in bulk at the
        end of the invocation (fill/eviction/no-fill counters stay with
        the code that performs them, exactly as on the reference path).
        """
        if self._NOFILL_BUFFER and (
            self._sec_resident or self.is_secure(vpn, asid)
        ):
            result = self._handle_miss(vpn, asid, translator)
            if not result.filled:
                return (result.cycles << 2) | 2
            evicted = result.evicted
            if evicted is None:
                return result.cycles << 2
            self._evicted_vpn = evicted.vpn
            self._evicted_asid = evicted.asid
            self._evicted_level = evicted.level
            return (result.cycles << 2) | 3
        if wcache is not None:
            packed_walk = wcache.get(vpn, -1)
            if packed_walk >= 0:
                translator.walks += 1
                level = packed_walk & 3
                cycles = (packed_walk >> 2) & 0x3FFFF
                ppn = packed_walk >> 20
            else:
                walk = translator.walk(vpn, asid)
                level = walk.level
                cycles = walk.cycles
                ppn = walk.ppn
                if cycles < 1 << 18:
                    wcache[vpn] = (ppn << 20) | (cycles << 2) | level
        else:
            walk = translator.walk(vpn, asid)
            level = walk.level
            cycles = walk.cycles
            ppn = walk.ppn
        if level:
            index = (vpn >> (9 * level)) % self._nsets
        else:
            index = vpn % self._nsets
        way_lists, side = self._fill_ways(asid)
        candidates = way_lists[index]
        # Victim choice, exactly ReplacementPolicy.select: the first
        # invalid way wins, else LRU's first entry of minimal last_used;
        # other policies ask the policy object, so stateful or random
        # ones draw as on the reference path.  Sets of up to 8 ways are
        # scanned -- intervening hits stale a tiny queue faster than its
        # pops repay the rebuild sort -- and wider ones pop the cached
        # order (see _rebuild_victim_queue).
        victim = None
        if type(self._policy) is LRUPolicy:
            if len(candidates) <= 8:
                oldest = None
                for entry in candidates:
                    if not entry.valid:
                        victim = entry
                        break
                    lu = entry.last_used
                    if oldest is None or lu < oldest:
                        oldest = lu
                        victim = entry
            else:
                set_key = (index << 3) | (level << 1) | side
                queue = self._victim_queues.get(set_key)
                if queue is not None and queue[0] == self._inval_epoch:
                    k = queue[1]
                    n = len(queue)
                    while k < n:
                        entry = queue[k]
                        if entry.valid and entry.last_used == queue[k + 1]:
                            queue[1] = k + 2
                            victim = entry
                            break
                        k += 2
                if victim is None:
                    victim = self._rebuild_victim_queue(candidates, set_key)
        else:
            victim = self._policy.select(candidates)
        # The fill: _fill_entry without the eviction snapshot (and with
        # entry.fill's level-0 masks skipped).
        tlb_index = self._index
        action = 0
        if victim.valid:
            self.stats.evictions += 1
            self._mutations += 1
            old_level = victim.level
            tlb_index.pop(
                (victim.vpn >> (9 * old_level), victim.asid, old_level), None
            )
            if old_level:
                self._super_entries -= 1
            if victim.sec:
                self._sec_resident -= 1
            self._evicted_vpn = victim.vpn
            self._evicted_asid = victim.asid
            self._evicted_level = old_level
            action = 3
        if level:
            mask = (1 << (9 * level)) - 1
            victim.vpn = vpn & ~mask
            victim.ppn = ppn & ~mask
            self._super_entries += 1
            tlb_index[(vpn >> (9 * level), asid, level)] = victim
        else:
            victim.vpn = vpn
            victim.ppn = ppn
            tlb_index[(vpn, asid, 0)] = victim
        victim.asid = asid
        victim.valid = True
        victim.level = level
        victim.sec = False
        now = self._clock
        victim.last_used = now
        victim.filled_at = now
        self.stats.fills += 1
        return ((self._hit_latency + cycles) << 2) | action

    def _rebuild_victim_queue(
        self, candidates: List[TLBEntry], set_key: int
    ) -> TLBEntry:
        """Re-sort one set's LRU order and return the current victim.

        Runs once per exhausted or stale queue (amortised over the pops
        it serves), so it may allocate freely.  Layout: a flat list
        ``[epoch, cursor, e0, snap0, e1, snap1, ...]`` ascending by
        ``last_used`` at build time, keyed by :meth:`_run_miss_fast` on
        ``set_index << 3 | level << 1 | side`` so that no two candidate
        lists share one.

        Each pop re-validates its entry against the recorded
        ``last_used``: timestamps only ever grow, so an unchanged
        snapshot proves the entry is still strictly below every other
        candidate (touched or refilled entries moved up and are skipped;
        reference-path evictions the queue never saw are caught the same
        way).  Ties cannot arise -- each access advances the clock and
        touches one entry.  Invalid ways would have to be preferred, but
        they appear only via invalidations and flushes, which bump
        ``_inval_epoch`` and void every cached order; while a set still
        *contains* invalid ways no order is cached for it.
        """
        for entry in candidates:
            if not entry.valid:
                # Reference select prefers invalid ways (warm-up only);
                # don't cache an order while any remain.
                self._victim_queues.pop(set_key, None)
                return entry
        order = sorted(candidates, key=_BY_LAST_USED)
        queue = [self._inval_epoch, 4]
        for entry in order:
            queue.append(entry)
            queue.append(entry.last_used)
        self._victim_queues[set_key] = queue
        return order[0]

    def _settle_touch(self, vpn: int, asid: int, when: int) -> None:
        """Record a proven run touch on a superpage-covered page (the
        level-0 index probe missed); guarded because a fault-injected
        index can desynchronise -- a lost recency update is the same
        spurious-miss failure mode the per-access path tolerates."""
        entry = self._find(vpn, asid)
        if entry is not None:
            entry.last_used = when

    # -- lookup helpers ---------------------------------------------------------

    #: Superpage levels a lookup probes (Sv39: 4 KiB, 2 MiB, 1 GiB).
    _LEVELS = (0, 1, 2)

    def _set_for(self, vpn: int, level: int = 0) -> List[TLBEntry]:
        return self._sets[self.config.set_index_for_level(vpn, level)]

    def _find(self, vpn: int, asid: int) -> Optional[TLBEntry]:
        """The resident entry covering ``(vpn, asid)``, via the fast index.

        One dict probe per superpage level, cheapest first.  The
        ``matches`` re-check keeps the lookup honest even if the index has
        been corrupted behind the TLB's back (the fault injector does
        exactly that): a stale or mispointed slot can cause a spurious
        miss -- which refills, and the refill plus :meth:`audit` expose the
        corruption -- but never a false hit.
        """
        index = self._index
        entry = index.get((vpn, asid, 0))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        entry = index.get((vpn >> 9, asid, 1))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        entry = index.get((vpn >> 18, asid, 2))
        if entry is not None and entry.matches(vpn, asid):
            return entry
        return None

    def resident(self, vpn: int, asid: int) -> bool:
        """Introspection for tests/harnesses: is the translation cached?"""
        return self._find(vpn, asid) is not None

    def entries(self) -> List[TLBEntry]:
        """All valid entries (copies), for inspection."""
        return [
            entry.snapshot()
            for tlb_set in self._sets
            for entry in tlb_set
            if entry.valid
        ]

    def occupancy(self) -> int:
        return sum(
            1 for tlb_set in self._sets for entry in tlb_set if entry.valid
        )

    def audit(self) -> List[str]:
        """Structural self-check; returns human-readable violations.

        The paper's security argument assumes the TLB state machine holds
        its structural invariants at every step; this is the programmatic
        form of the ``tests/tlb/test_invariants`` suite, callable against a
        *live* (possibly fault-injected) instance: every valid entry must
        sit in the set its VPN indexes to, and no set may hold two entries
        answering the same (tag, ASID) lookup.  A clean simulator returns
        ``[]`` always; the :mod:`repro.faults` detectors rely on seeded
        corruption making this non-empty.
        """
        problems: List[str] = []
        for index, tlb_set in enumerate(self._sets):
            seen: dict = {}
            for entry in tlb_set:
                if not entry.valid:
                    continue
                expected = self.config.set_index_for_level(
                    entry.vpn, entry.level
                )
                if expected != index:
                    problems.append(
                        f"entry vpn={entry.vpn:#x} asid={entry.asid} sits in"
                        f" set {index}, indexes to set {expected}"
                    )
                lookup = (entry._tag(entry.vpn), entry.asid, entry.level)
                if lookup in seen:
                    problems.append(
                        f"duplicate entries for vpn={entry.vpn:#x}"
                        f" asid={entry.asid} in set {index}"
                    )
                seen[lookup] = entry
        if self.occupancy() > self.config.entries:
            problems.append(
                f"occupancy {self.occupancy()} exceeds capacity"
                f" {self.config.entries}"
            )
        problems.extend(self._audit_index())
        return problems

    def _audit_index(self) -> List[str]:
        """Cross-check the fast index against ``_sets`` (both directions).

        Every valid entry must be indexed under its own key, and every
        index slot must point at the valid entry that owns its key -- the
        coherence invariant the fill/evict/flush/invalidate paths
        maintain.  A stale slot (entry evicted behind the TLB's back) or a
        mispointed one (index corruption) is silent-corruption surface the
        chaos campaign's ``tlb-audit`` detector must see.
        """
        problems: List[str] = []
        for tlb_set in self._sets:
            for entry in tlb_set:
                if entry.valid and self._index.get(entry.index_key()) is not entry:
                    problems.append(
                        f"valid entry vpn={entry.vpn:#x} asid={entry.asid}"
                        " is missing from the fast index (or its key points"
                        " at another entry)"
                    )
        for key, entry in self._index.items():
            if not entry.valid:
                problems.append(
                    f"fast-index key {key} points at an invalid entry"
                    " (stale mapping after an evict/flush)"
                )
            elif entry.index_key() != key:
                problems.append(
                    f"fast-index key {key} points at entry"
                    f" vpn={entry.vpn:#x} asid={entry.asid} whose own key is"
                    f" {entry.index_key()}"
                )
        return problems

    # -- checkpoints ----------------------------------------------------------------

    def checkpoint(self) -> tuple:
        """This TLB's state, for :meth:`rewind`.

        Saves a copy of every entry a fill has reached (``filled_at`` is
        0 only on a way no fill has reached, since every fill happens at
        a positive clock), the fast index, the victim queues, the
        counters and the replacement policy's own state.  Designs add
        their own fields.
        """
        return (
            [
                (entry, entry.snapshot())
                for tlb_set in self._sets
                for entry in tlb_set
                if entry.filled_at
            ],
            dict(self._index),
            {key: list(queue) for key, queue in self._victim_queues.items()},
            self.stats.snapshot(),
            self._policy.checkpoint(),
            (
                self._clock,
                self._super_entries,
                self._mutations,
                self._sec_resident,
                self._evicted_vpn,
                self._evicted_asid,
                self._evicted_level,
                self._inval_epoch,
            ),
        )

    def rewind(self, state: tuple) -> None:
        """Return to a :meth:`checkpoint`, in place.

        Every entry stays the same object, so the fast index, SP
        partition views and victim queues keep pointing at live slots.
        Only the ways a fill has reached are rewritten: each is blanked,
        then the checkpointed ones get their saved fields back.
        """
        entries, index, queues, stats, policy, counters = state
        blank = TLBEntry()
        for tlb_set in self._sets:
            for entry in tlb_set:
                if entry.filled_at:
                    entry.restore(blank)
        for entry, saved in entries:
            entry.restore(saved)
        self._index.clear()
        self._index.update(index)
        self._victim_queues.clear()
        for key, queue in queues.items():
            self._victim_queues[key] = list(queue)
        self.stats.restore(stats)
        self._policy.rewind(policy)
        (
            self._clock,
            self._super_entries,
            self._mutations,
            self._sec_resident,
            self._evicted_vpn,
            self._evicted_asid,
            self._evicted_level,
            self._inval_epoch,
        ) = counters

    # -- fill helper shared by the designs ---------------------------------------

    def _fill_entry(
        self,
        victim: TLBEntry,
        vpn: int,
        ppn: int,
        asid: int,
        sec: bool = False,
        level: int = 0,
    ) -> Optional[TLBEntry]:
        """Install a translation into ``victim``; return the displaced entry."""
        evicted = victim.snapshot() if victim.valid else None
        if evicted is not None:
            self.stats.evictions += 1
            self._mutations += 1
            self._index.pop(victim.index_key(), None)
            if victim.level:
                self._super_entries -= 1
            if victim.sec:
                self._sec_resident -= 1
        victim.fill(vpn, ppn, asid, now=self._clock, sec=sec, level=level)
        self._index[victim.index_key()] = victim
        if level:
            self._super_entries += 1
        if sec:
            self._sec_resident += 1
        self.stats.fills += 1
        return evicted

    def _invalidate_entry(self, entry: TLBEntry) -> None:
        """Invalidate one resident entry, keeping the fast index coherent.

        Every invalidation inside the TLB must go through here (or a
        flush): ``entry.invalidate()`` alone would leave a stale index
        mapping -- exactly the corruption :meth:`audit` exists to catch.
        """
        if entry.valid:
            self._mutations += 1
            self._inval_epoch += 1
            self._index.pop(entry.index_key(), None)
            if entry.level:
                self._super_entries -= 1
            if entry.sec:
                self._sec_resident -= 1
        entry.invalidate()

    # -- maintenance operations ---------------------------------------------------

    def flush_all(self) -> None:
        """Full flush (``sfence.vma`` with no operands / context switch)."""
        for tlb_set in self._sets:
            for entry in tlb_set:
                entry.invalidate()
        self._index.clear()
        self._super_entries = 0
        self._sec_resident = 0
        self._mutations += 1
        self._inval_epoch += 1
        self._victim_queues.clear()
        self.stats.flushes += 1

    def flush_asid(self, asid: int) -> None:
        """Flush every entry belonging to one process."""
        for tlb_set in self._sets:
            for entry in tlb_set:
                if entry.valid and entry.asid == asid:
                    self._invalidate_entry(entry)
        self._mutations += 1
        self.stats.flushes += 1

    def invalidate_page(self, vpn: int, asid: int) -> AccessResult:
        """Targeted invalidation of one translation (Appendix B semantics).

        Returns an :class:`AccessResult` whose ``cycles`` exposes the
        presence-dependent timing: invalidating a resident entry takes a
        second cycle (slow); invalidating an absent one completes in the
        probe cycle (fast).  ``hit`` reports whether the entry was present.
        """
        self._clock += 1
        self.stats.invalidations += 1
        entry = self._find(vpn, asid)
        if entry is None:
            return AccessResult(
                hit=False, ppn=0, cycles=self.config.hit_latency, filled=False
            )
        self.stats.invalidation_hits += 1
        ppn = entry.translate(vpn)
        self._invalidate_entry(entry)
        return AccessResult(
            hit=True,
            ppn=ppn,
            cycles=self.config.hit_latency + 1,
            filled=False,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<{type(self).__name__} {self.config.label()} "
            f"occupancy={self.occupancy()}/{self.config.entries}>"
        )
