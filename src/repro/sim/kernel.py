"""The allocation-free fast-path translation kernel.

The reference model pays, per translation, one frozen ``AccessResult``,
one ``WalkResult`` per walk, and (when traced) an event object -- fine for
correctness, ruinous for the millions of accesses behind Figure 7 and the
attack suites.  Following the specialisation idea of "Fast TLB Simulation
for RISC-V Systems" (Guo, 2019), the kernel keeps the *reference model as
the specification* and adds one differentially-verified fast path:

* :class:`CompiledTrace` materialises a workload's ``(gap, vpn)`` event
  stream into flat ``array('q')`` columns, chunk by chunk (streams may be
  infinite), so the timing model's quantum loop runs over array slices
  instead of generator frames and tuples.
* :class:`TraceStore` (process-wide instance :data:`TRACE_STORE`) keeps
  each distinct (workload, stream seed) trace compiled, structured and
  read-only, so every later ``simulate()`` of it -- another Figure 7
  cell, sweep point or serve job -- reuses it instead of recompiling.
* The **run kernel**: a structural pre-pass over the compiled columns
  (:meth:`CompiledTrace.ensure_structure`) records, per trace position,
  the previous and next occurrence of the same page.
  ``BaseTLB.translate_runs`` uses those columns to *prove* that whole
  stretches of the trace hit with no replacement-state-visible change
  beyond MRU reordering, advancing access/hit counters, the clock and
  the cycle accumulator for the entire run at once, and falls back to a
  per-access index probe only at the positions where a fill, eviction,
  no-fill buffer return, superpage probe or context switch could occur.
  :class:`RunState` carries the proof threshold across quanta
  (validated against the TLB's mutation counter), and
  :class:`KernelCounts` records how often the run proofs engaged in one
  cell (:func:`kernel_count`).
* The **oracle tier** above it: a :class:`ReuseOracle` precomputes the
  exact per-set LRU miss schedule of a stream, so slices retire in
  O(misses).  A planned ``simulate()`` hands every runner one
  :class:`OracleTier`; processes filling ways of their own replay
  against their trace's cached oracle, and processes sharing ways --
  the multiprogrammed Figure 7 cells -- against one
  :class:`OracleUniverse` oracle over the run's merged ``(asid, page)``
  stream, which :data:`TRACE_STORE` keeps by the stream's value.

The structure pre-pass is vectorised with numpy
(:mod:`repro.sim.kernel_np`), which also spares the oracle build the
accesses that cannot change an LRU set.  The run loop itself is pure
Python -- numpy's per-call overhead loses on the short runs that
dominate miss-heavy traces.

Equivalence is enforced three ways: by construction (both paths share
the TLB state machine, statistics and cycle model -- the run kernel only
skips work whose outcome the trace structure proves), by the
differential suite (``tests/sim/test_fastpath_equivalence.py``), and
continuously by ``python -m repro bench`` which refuses to report a
speedup whose counters diverge.  See ``docs/performance.md``.
"""

from __future__ import annotations

import random
import threading
from array import array
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Iterator, List, Optional, Sequence, Tuple

from . import kernel_np

#: Events materialised per :meth:`CompiledTrace.ensure` pull.  Large enough
#: to amortise the generator resumption, small enough that infinite SPEC
#: streams never over-materialise past the instruction budget.
CHUNK = 4096

#: ``nxt`` sentinel for "no later occurrence compiled (yet)".  Far above
#: any real trace position, so ``nxt[j] >= run_end`` stays true for final
#: touches; patched down in place when the next occurrence compiles.
INF_HORIZON = 1 << 62

#: Granularities of the precomputed run-detection minima: the run scanner
#: skips ``RUN_BLOCK`` (or ``SUB_BLOCK``) positions with one list read
#: when a whole block's minimum reuse distance clears the threshold.
RUN_BLOCK = 128
SUB_BLOCK = 16


class CompiledTrace:
    """A workload event stream compiled to flat columnar arrays.

    ``gaps[i]`` / ``vpns[i]`` are the i-th event's compute gap and page;
    ``cum[i]`` is the cumulative instruction cost ``sum(gaps[:i+1]) +
    (i+1)`` (each event costs its gap plus the access itself), which lets
    the quantum driver find a whole quantum's slice boundary with one
    binary search instead of per-event budget arithmetic.

    Materialisation is chunked: :meth:`ensure` pulls from the source
    generator a chunk at a time, so infinite streams (SPEC profiles run
    under an instruction budget) compile only as far as asked.  The
    arrays only ever grow in place -- callers may cache references to
    them.  A trace is replayed only once it is *complete*: compiled and
    structured through the last event any replay will read, and never
    grown afterwards (:func:`compile_trace` builds traces so).

    On top of the event columns, :meth:`ensure_structure` derives
    the *run-structure* columns the run kernel proves hit-runs with:

    ``prev[i]``
        Trace position of the previous access to ``vpns[i]`` (-1 if this
        is the first).  Immutable once written: given a threshold ``T``
        below which residency is unknown, ``prev[i] >= T`` proves access
        ``i`` hits (the page was touched at ``prev[i]`` and nothing since
        ``T`` evicted or invalidated any entry).
    ``nxt[i]``
        Position of the next access to ``vpns[i]``; :data:`INF_HORIZON`
        when the page does not occur again in the trace (patched down
        while later chunks are structured).  ``nxt[i] >= run_end``
        identifies the
        *last* touch of each page inside a run window -- the only touch
        whose LRU timestamp the run kernel must materialise.
    ``sub_min_prev`` / ``blk_min_prev``
        Minima of ``prev`` over aligned :data:`SUB_BLOCK` /
        :data:`RUN_BLOCK` windows, so run detection skips whole blocks at
        C speed instead of comparing element-wise.
    ``occ``
        Per-page sorted occurrence columns (``vpn -> positions``): when a
        fill evicts page ``V``, one bisect finds ``V``'s next occurrence
        -- the *next-eviction horizon* at which a hit-run must break
        because that access is a forced miss.  A page evicted with no
        later occurrence needs no horizon at all, since the trace is
        complete.

    ``prev``, ``nxt`` and each ``occ`` column are ``array('q')``: 8 bytes
    an element against a list's pointer plus a boxed int, which is what
    lets :data:`TRACE_STORE` hold every distinct trace of a run in each
    worker.  Reads re-box the ints, but replays barely notice: over the
    bench's five 400,000-event SPEC rows (best of 18 on a shared 2-vCPU
    host), the oracle tier took 0.66-1.09x (geometric mean 0.93x) and
    the ledger tier 0.92-1.32x (geometric mean 1.07x) of its time over
    list columns.  The pre-pass itself is :mod:`repro.sim.kernel_np`'s.
    """

    __slots__ = (
        "gaps",
        "vpns",
        "cum",
        "exhausted",
        "_source",
        "prev",
        "nxt",
        "sub_min_prev",
        "blk_min_prev",
        "occ",
        "_last_pos",
        "_oracles",
        "_oracle_lock",
        "key",
    )

    def __init__(self, events: Iterable[Tuple[int, int]]) -> None:
        self.gaps = array("q")
        self.vpns = array("q")
        self.cum = array("q")
        self.exhausted = False
        self._source: Iterator[Tuple[int, int]] = iter(events)
        self.prev = array("q")
        self.nxt = array("q")
        self.sub_min_prev: List[int] = []
        self.blk_min_prev: List[int] = []
        #: vpn -> ``array('q')`` of its structured positions, ascending.
        self.occ: dict = {}
        #: vpn -> position of its latest structured occurrence.
        self._last_pos: dict = {}
        #: (nsets, ways) -> cached :class:`ReuseOracle` over this trace.
        self._oracles: dict = {}
        self._oracle_lock = threading.Lock()
        #: The :func:`store_key` of the workload and seed this trace was
        #: compiled from (:func:`compile_trace` sets it), or None.
        self.key: Optional[tuple] = None

    def __len__(self) -> int:
        return len(self.gaps)

    def ensure(self, upto: int) -> int:
        """Compile until at least ``upto`` events exist (or the stream
        ends); returns the number of events available.

        An exception from the source generator propagates; the trace is
        then a prefix to discard (:func:`compile_trace` does, so
        :class:`TraceStore` publishes nothing for it).
        """
        gaps_append = self.gaps.append
        vpns_append = self.vpns.append
        cum_append = self.cum.append
        source = self._source
        total = self.cum[-1] if self.cum else 0
        while not self.exhausted and len(self.gaps) < upto:
            pulled = 0
            for gap, vpn in source:
                gaps_append(gap)
                vpns_append(vpn)
                total += gap + 1
                cum_append(total)
                pulled += 1
                if pulled >= CHUNK:
                    break
            if pulled < CHUNK:
                self.exhausted = True
        return len(self.gaps)

    def ensure_structure(self, upto: int) -> int:
        """Extend the run-structure columns over every compiled event.

        ``upto`` is a floor, not a budget: the structure always catches
        up with whatever :meth:`ensure` has compiled (events are only
        compiled because a run will consume them, so structuring them all
        wastes nothing and keeps the block minima chunk-aligned).
        Returns the number of structured positions.
        """
        limit = len(self.gaps)
        start = len(self.prev)
        if start < limit:
            kernel_np.extend_structure(self, start, limit, INF_HORIZON)
            self._extend_minima(limit)
        return len(self.prev)

    def _extend_minima(self, limit: int) -> None:
        """Extend the two block-minima tiers over fully-structured blocks.

        ``prev`` is immutable once appended, so the minima never go
        stale.
        """
        prev = self.prev
        sub = self.sub_min_prev
        for block in range(len(sub), limit // SUB_BLOCK):
            base = block * SUB_BLOCK
            sub.append(min(prev[base:base + SUB_BLOCK]))
        blk = self.blk_min_prev
        span = RUN_BLOCK // SUB_BLOCK
        for block in range(len(blk), limit // RUN_BLOCK):
            base = block * span
            blk.append(min(sub[base:base + span]))

    def reuse_oracle(self, nsets: int, ways: int) -> "ReuseOracle":
        """The (cached) exact LRU hit/miss oracle for one TLB geometry,
        covering every compiled event.

        The oracle is built whole before it is cached, under this
        trace's lock, so threads sharing a :data:`TRACE_STORE` trace
        never see one half-built; a lock per trace keeps builds for
        different traces (and the store's own lookups) from waiting on
        each other.
        """
        key = (nsets, ways)
        oracle = self._oracles.get(key)
        if oracle is None:
            with self._oracle_lock:
                oracle = self._oracles.get(key)
                if oracle is None:
                    oracle = ReuseOracle(nsets, ways)
                    oracle.extend(((self.vpns, 0),))
                    _tally("oracles_built")
                    self._oracles[key] = oracle
        return oracle


class ReuseOracle:
    """Exact per-set LRU miss schedule for one key stream x one TLB
    geometry.

    The run kernel's *horizon ledger* proves hit-runs incrementally, one
    probe per miss.  When the TLB starts empty and every process fills
    plain per-set LRU ways, the entire hit/miss schedule is a pure
    function of the stream of accesses and the geometry -- so this
    pre-pass simulates each set as an insertion-ordered dict (Python
    dicts *are* LRU stacks: delete + reinsert moves a key to MRU,
    ``next(iter(s))`` is the LRU victim) and records, per stream
    position, only the misses.  A key is a page, or -- in a stream
    merged from several ASIDs' segments -- the packed ``(asid, page)``
    of :class:`OracleUniverse`; either way ``key % nsets`` is its set.
    Accesses that re-touch their set's MRU key (hits that move nothing)
    are found vectorised (:func:`repro.sim.kernel_np.lru_changes`) and
    never simulated.

    ``miss_pos[k]`` / ``miss_key[k]``
        Stream position and key of the k-th miss.
    ``miss_evict[k]``
        The key evicted by the k-th miss's fill, or -1 when the fill
        took an invalid way (TLB not yet warm in that set).
    ``miss_first[k]``
        1 when the k-th miss is its key's first: its first-ever walk,
        the one that may auto-map and allocate the physical frame.

    ``BaseTLB.translate_runs`` replays a whole quantum slice against
    this schedule in O(misses), touching Python-level TLB entry objects
    only once per slice (reconciliation), instead of O(misses) probe
    calls through the ledger.  The engagement premises -- empty TLB,
    true-LRU policy, auto-mapping walker, no superpages, a fill universe
    per ASID -- live in the TLB layer, which falls back to the ledger
    (and from there to per-access probes) whenever any assumption
    breaks; the oracle itself is policy-free stream math.

    :meth:`CompiledTrace.reuse_oracle` builds and caches one over a
    complete trace's pages; :class:`OracleUniverse` takes one over a
    run's merged stream from :data:`TRACE_STORE`.  A fully-associative
    geometry is simply ``nsets == 1``.
    """

    __slots__ = (
        "nsets",
        "ways",
        "miss_pos",
        "miss_key",
        "miss_evict",
        "miss_first",
    )

    def __init__(self, nsets: int, ways: int) -> None:
        if nsets <= 0 or ways <= 0:
            raise ValueError("oracle geometry must be positive")
        self.nsets = nsets
        self.ways = ways
        self.miss_pos = array("q")
        self.miss_key = array("q")
        self.miss_evict = array("q")
        self.miss_first = bytearray()

    def __len__(self) -> int:
        """Miss entries: what :data:`TRACE_STORE` counts a merged oracle
        as against :data:`STORE_EVENTS`."""
        return len(self.miss_pos)

    def extend(self, chunks: Iterable[Tuple[array, int]]) -> None:
        """Fill this fresh oracle's schedule, in one pass, over the key
        stream that ``(column, offset)`` chunks spell out one after
        another: an ``array('q')`` of pages each, keyed ``page +
        offset``."""
        nsets = self.nsets
        ways = self.ways
        sets: List[dict] = [dict() for _ in range(nsets)]
        seen = set()
        append_pos = self.miss_pos.append
        append_key = self.miss_key.append
        append_evict = self.miss_evict.append
        append_first = self.miss_first.append
        base = 0
        for length, positions, keys in kernel_np.lru_changes(chunks, nsets):
            for position, key in zip(positions, keys):
                lru = sets[key % nsets]
                if key in lru:
                    del lru[key]  # Re-insert below: dict order is LRU order.
                    lru[key] = None
                    continue
                if len(lru) >= ways:
                    victim = next(iter(lru))
                    del lru[victim]
                    append_evict(victim)
                else:
                    append_evict(-1)
                lru[key] = None
                append_pos(base + position)
                append_key(key)
                if key in seen:
                    append_first(0)
                else:
                    seen.add(key)
                    append_first(1)
            base += length


#: Entries :data:`TRACE_STORE` keeps before it evicts its least-recently-
#: used ones: a trace counts its compiled events, a merged oracle its miss
#: entries.  A one-process ``run-all`` of Figure 7, the ablation sweeps
#: and the hierarchy sweep compiles 10 distinct traces of 513,356 events
#: in total, so it recompiles nothing.  At about 55 bytes an event with
#: its structure columns (per-trace reuse oracles extra) and 25 bytes a
#: miss entry, a full store is at most about 55 MiB: the most a
#: long-lived ``repro serve`` fed ever-new workload parameters keeps.
STORE_EVENTS = 1 << 20

#: First element of every merged-oracle key in :data:`TRACE_STORE` (a
#: trace's key starts with its workload).
MERGED_ORACLE = "merged-oracle"


def compile_trace(
    workload: Any, stream_seed: int, need: Optional[int] = None
) -> CompiledTrace:
    """Compile one process's trace complete, with its run structure.

    The workload's events under ``random.Random(stream_seed)`` compile to
    exhaustion, or -- with ``need`` -- at least through the first event
    whose cumulative cost reaches ``need``.  A runner with instruction
    limit ``L`` never reads past that event for ``need = L``: a quantum
    stops at the first event that spends the limit.  The structure
    pre-pass follows the compile chunk by chunk, so it never holds numpy
    temporaries the size of the whole trace.  A generator that raises
    propagates its exception and leaves nothing behind.
    """
    _tally("traces_compiled")
    trace = CompiledTrace(workload.events(random.Random(stream_seed)))
    trace.key = store_key(workload, stream_seed)
    while True:
        compiled = trace.ensure(len(trace) + 1)
        trace.ensure_structure(compiled)
        if _covers(trace, need):
            return trace


def _covers(trace: CompiledTrace, need: Optional[int]) -> bool:
    """Whether a :func:`compile_trace` result holds everything ``need``
    asks for (see there)."""
    return trace.exhausted or (need is not None and trace.cum[-1] >= need)


def store_key(workload: Any, stream_seed: int) -> Optional[tuple]:
    """The :class:`TraceStore` key of a trace, or None to bypass the store.

    Only a frozen dataclass compares and hashes by value.  Any other
    workload hashes by identity, and an identity can be reused by a new
    object once the old one is freed, so it never enters the store.
    """
    params = getattr(type(workload), "__dataclass_params__", None)
    if params is None or not params.frozen:
        return None
    key = (workload, stream_seed)
    try:
        hash(key)
    except TypeError:  # A frozen dataclass holding an unhashable field.
        return None
    return key


class TraceStore:
    """Compiled traces, and oracles over their merged streams, shared by
    every ``simulate()`` in a process.

    A trace is keyed by :func:`store_key` -- the workload's value and its
    stream seed -- and holds a :func:`compile_trace` result.  A merged
    oracle is keyed by the value of the stream it covers (see
    :class:`OracleUniverse`).  Entries are published only once complete
    and never changed afterwards, so concurrent readers (serve runs cells
    on executor threads) need no lock to use one; one thread builds a
    missing key while the others asking for it wait for its entry.  A
    trace compiled for a smaller ``need`` is replaced by a longer one when
    a later run needs more.  Once the stored entries -- events and miss
    entries, ``len()`` of each -- pass :data:`STORE_EVENTS`, the least-
    recently-used are evicted (an entry larger than the whole bound is
    returned but never stored); a runner still using an evicted entry
    keeps its reference.
    """

    def __init__(self) -> None:
        self.events = 0
        self._lock = threading.Lock()
        #: key -> trace or merged oracle, least recently used first.
        self._entries: "OrderedDict[tuple, Any]" = OrderedDict()
        #: key -> the lock its one building thread holds.
        self._building: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> List[tuple]:
        """Stored keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.events = 0

    def get(
        self, workload: Any, stream_seed: int, need: Optional[int] = None
    ) -> CompiledTrace:
        """The trace :func:`compile_trace` would build, from the store
        when an entry covers ``need``."""
        key = store_key(workload, stream_seed)
        if key is None:
            return compile_trace(workload, stream_seed, need)
        return self._get_or_build(
            key,
            lambda trace: _covers(trace, need),
            lambda: compile_trace(workload, stream_seed, need),
        )

    def merged_oracle(
        self, key: tuple, build: Callable[[], "ReuseOracle"]
    ) -> "ReuseOracle":
        """The merged oracle stored under ``key``, built by ``build`` on a
        miss (see :class:`OracleUniverse`)."""
        return self._get_or_build(key, lambda oracle: True, build)

    def _get_or_build(
        self, key: tuple, usable: Callable[[Any], bool], build: Callable[[], Any]
    ) -> Any:
        with self._lock:
            entry = self._hit(key, usable)
            if entry is not None:
                return entry
            building = self._building.setdefault(key, threading.Lock())
        with building:
            try:
                with self._lock:
                    entry = self._hit(key, usable)
                if entry is None:
                    entry = build()
                    with self._lock:
                        self._publish(key, entry)
            finally:
                with self._lock:
                    if self._building.get(key) is building:
                        del self._building[key]
        return entry

    def _hit(self, key: tuple, usable: Callable[[Any], bool]) -> Any:
        entry = self._entries.get(key)
        if entry is None or not usable(entry):
            return None
        self._entries.move_to_end(key)
        return entry

    def _publish(self, key: tuple, entry: Any) -> None:
        if len(entry) > STORE_EVENTS:
            return
        replaced = self._entries.pop(key, None)
        if replaced is not None:
            self.events -= len(replaced)
        self._entries[key] = entry
        self.events += len(entry)
        while self.events > STORE_EVENTS:
            _, evicted = self._entries.popitem(last=False)
            self.events -= len(evicted)


#: The process's compiled-trace store (see :class:`TraceStore`); the
#: fast-path ``simulate()`` takes every trace from it.
TRACE_STORE = TraceStore()


def supports_fastpath(tlb: object) -> bool:
    """Whether a TLB-like object implements the run kernel.

    True for every :class:`repro.tlb.BaseTLB` design and any
    :class:`repro.tlb.TLBHierarchy` depth (the run proofs concern only
    the outermost level); duck-typed so externally-composed stand-ins
    simply fall back to the reference path instead of breaking.
    """
    return hasattr(tlb, "translate_runs")


class RunState:
    """The run kernel's cross-quantum proof state for one (runner, trace).

    The proof has two halves (see :meth:`repro.tlb.BaseTLB.translate_runs`):

    ``threshold``
        An *absolute trace position* ``T`` such that every page touched
        at a position ``>= T`` is still resident -- except the pages in
        the eviction ledger below.  ``T`` only moves on the events whose
        exact effect the kernel cannot name: an eviction of unknown
        identity, a superpage eviction, a no-fill return (``T`` moves
        *past* the miss: the requested page itself was left non-resident),
        or an external mutation (reset to the resume position).
    ``hheap``
        The eviction ledger.  An ordinary eviction un-residents exactly
        one page ``V``; instead of collapsing ``T``, the kernel bisects
        ``V``'s occurrence list for its next appearance ``q`` -- a forced
        miss -- and pushes ``q`` onto the min-heap ``hheap`` of
        *next-eviction horizons*.  Hit-runs extend only below the heap
        top, and each horizon is popped when its probe refills the page.
        A page that never occurs again in the (complete) trace needs no
        horizon.

    ``mut`` snapshots the owning TLB's mutation counter at the end of the
    last quantum; a mismatch at the start of the next one means some
    other actor (another process's evictions, an ``sfence.vma``, a
    Sec-region update) touched replacement state in between, and the
    whole proof state restarts at the resume position.  It initialises
    to -1 so a fresh state never trusts an unvalidated proof.

    ``run_hits`` / ``probed`` / ``runs`` count accesses proven by runs,
    accesses that went through the per-access probe, and the number of
    nonempty runs -- added to the open :func:`kernel_count`.

    ``walk_cache`` / ``walk_token`` memoize page-table walks on the
    probed-miss path (``vpn -> ppn << 20 | cycles << 2 | level``),
    validated against the translator's ``memo_token`` (the page table's
    mapping version) once per quantum -- mappings cannot change *during*
    a quantum, so a stable token proves every cached result is what
    ``walk`` would return.  Translators without a ``memo_token``
    (hierarchy level adapters, whose "walks" have lower-level side
    effects) never engage the cache.

    The ``o_*`` fields carry the *oracle tier*: ``o_tier`` is the
    :class:`OracleTier` of the replay this state belongs to -- shared by
    every runner of one ``simulate()``, or made for this state alone by
    its first replay from position 0 -- and, once the tier bound it,
    ``o_lane`` is its lane's number there, ``o_universe`` the
    :class:`OracleUniverse` it retires against and ``o_slot`` its
    ASID's index in that universe.  While the tier is ``active`` whole
    quantum slices retire against the precomputed miss schedule and the
    ledger fields above lie fallow; once it drops, the ledger takes
    over from the resume position (``mut`` is still -1).
    """

    __slots__ = (
        "threshold",
        "mut",
        "hheap",
        "run_hits",
        "probed",
        "runs",
        "walk_cache",
        "walk_token",
        "o_tier",
        "o_lane",
        "o_universe",
        "o_slot",
    )

    def __init__(self) -> None:
        self.threshold = 0
        self.mut = -1
        self.hheap: List[int] = []
        self.run_hits = 0
        self.probed = 0
        self.runs = 0
        self.walk_cache: dict = {}
        self.walk_token = -1
        self.o_tier: Optional["OracleTier"] = None
        self.o_lane = 0
        self.o_universe: Optional["OracleUniverse"] = None
        self.o_slot = 0

    def oracle_lanes(self, trace: CompiledTrace, asid: int) -> Sequence:
        """The lanes a first replay of ``trace`` for ``asid`` may bind to
        the oracle tier, all or none; empty when it may bind none.

        Takes the tier's one engagement attempt: a state outside any
        ``simulate()`` gets a tier holding just its own lane, and a
        state whose tier was tried already, or whose lane does not match
        this replay, gets nothing.
        """
        tier = self.o_tier
        if tier is None:
            tier = self.o_tier = OracleTier([(trace, asid, self)])
        lanes = tier.lanes
        tier.lanes = ()
        for lane_trace, lane_asid, lane_state in lanes:
            if lane_state is self:
                if lane_trace is trace and lane_asid == asid:
                    return lanes
                break
        return ()


class OracleTier:
    """The oracle tier of one replay: its lanes, its plan, and the TLB
    snapshot every lane's resume check compares against.

    ``lanes`` lists ``(trace, asid, RunState)`` per runner, and
    ``plan`` every quantum's slice as ``(lane number, start, stop)`` in
    the order they will be translated.  The one engagement attempt
    (``BaseTLB._oracle_engage``) takes both and binds every lane or
    none (:meth:`bind`); a tier without lanes never engages --
    ``simulate()`` builds one for a run whose switch policy flushes
    between ASIDs, so that every runner stays on the ledger.  Nothing
    here refers back to a state once the attempt is over, so a replay's
    universes die with its runners (the oracles they retire against
    live on in their trace or in :data:`TRACE_STORE`).

    While ``active``, ``accesses`` / ``fills`` / ``mut`` snapshot the
    TLB's access and fill counters and its mutation epoch after the
    latest oracle slice of *any* lane, and ``tokens`` each ASID's
    mapping token.  A mismatch when a lane resumes means something
    beside the plan touched the TLB or a page table (an observer-driven
    evented quantum, a flush, a remap): the tier drops, and every lane
    falls to the ledger for good.
    """

    __slots__ = ("lanes", "plan", "active", "accesses", "fills", "mut", "tokens")

    def __init__(self, lanes: Sequence = (), plan: Sequence = ()) -> None:
        self.lanes = lanes
        self.plan = plan
        self.active = False
        self.accesses = 0
        self.fills = 0
        self.mut = 0
        self.tokens: dict = {}

    def bind(self, lanes: Sequence, universes: list) -> None:
        """Bind lane ``i`` to the fill universe ``universes[i]`` -- the
        ``(nsets, way lists)`` its ASID fills -- and activate the tier.
        Lanes whose ways are the same list objects share one
        :class:`OracleUniverse`."""
        shared: dict = {}
        for number, (nsets, way_lists) in enumerate(universes):
            shared.setdefault(id(way_lists), (nsets, way_lists, []))[2].append(
                number
            )
        plan = self.plan
        self.plan = ()
        for nsets, way_lists, numbers in shared.values():
            universe = OracleUniverse(nsets, way_lists, lanes, numbers, plan)
            for number in numbers:
                _, asid, state = lanes[number]
                state.o_lane = number
                state.o_universe = universe
                state.o_slot = universe.asids.index(asid)
        self.active = True


class OracleUniverse:
    """One fill universe's share of the oracle tier: the ways some lanes
    fill into, and the schedule they retire against.

    The lanes' pages are keyed per ASID: ``page + slot * stride``, where
    ``slot`` is the ASID's index in ``asids`` and ``stride`` is a
    multiple of ``nsets`` above every page, so ``key % nsets`` is still
    the page's set and a key decodes with one division.

    * A lane alone in its universe retires against its trace's own
      cached :meth:`CompiledTrace.reuse_oracle`: slot 0, key = page,
      stream positions = trace positions, any segmentation.
    * Lanes sharing a universe retire against one :class:`ReuseOracle`
      built over the plan's *merged* stream -- their slices' keys,
      concatenated in plan order.  ``segments`` lists those slices as
      ``(lane number, start, stop)``; each replayed slice must be the
      next one (``step``), or the tier drops.  The oracle is a pure
      function of that stream and the geometry, so :data:`TRACE_STORE`
      keeps it under their value: each lane's number, trace store key,
      ASID and slot, the segments, ``stride``, ``nsets`` and ``ways``.
      Every later run of the same stream -- the SA cells of both RSA
      scenarios and the plain RF cell of one organization, say -- takes
      it from there.  A lane whose workload bypasses the store has no
      key, so its universe builds its oracle for this call alone.

    ``pos`` / ``cursor`` are the stream position and miss-schedule
    index retired through, ``resident`` maps each resident key to its
    :class:`~repro.tlb.entry.TLBEntry` and ``free`` holds the per-set
    never-filled entries, reversed so ``.pop()`` hands them out in the
    reference's scan order (the first invalid way fills first), which
    keeps way occupancy bit-identical to the reference.
    """

    __slots__ = (
        "oracle",
        "stride",
        "asids",
        "segments",
        "step",
        "pos",
        "cursor",
        "resident",
        "free",
    )

    def __init__(
        self,
        nsets: int,
        way_lists: list,
        lanes: Sequence,
        numbers: List[int],
        plan: Sequence,
    ) -> None:
        self.asids: List[int] = []
        for number in numbers:
            asid = lanes[number][1]
            if asid not in self.asids:
                self.asids.append(asid)
        top = max(
            (max(lanes[number][0].occ) for number in numbers
             if lanes[number][0].occ),
            default=0,
        )
        self.stride = nsets * (top // nsets + 1)
        ways = len(way_lists[0])
        if len(numbers) == 1:
            self.oracle = lanes[numbers[0]][0].reuse_oracle(nsets, ways)
            self.segments = None
        else:
            slots = [self.asids.index(lanes[number][1]) for number in numbers]
            offsets = {
                number: slot * self.stride for number, slot in zip(numbers, slots)
            }
            self.segments = tuple(
                (number, start, stop)
                for number, start, stop in plan
                if number in offsets and stop > start
            )

            def build() -> ReuseOracle:
                oracle = ReuseOracle(nsets, ways)
                oracle.extend(self._merged_keys(lanes, offsets))
                _tally("oracles_built")
                return oracle

            keys = tuple(
                (number, lanes[number][0].key, lanes[number][1], slot)
                for number, slot in zip(numbers, slots)
            )
            if any(key[1] is None for key in keys):
                self.oracle = build()
            else:
                self.oracle = TRACE_STORE.merged_oracle(
                    (MERGED_ORACLE, keys, self.segments, self.stride, nsets, ways),
                    build,
                )
        self.step = 0
        self.pos = 0
        self.cursor = 0
        self.resident: dict = {}
        self.free = [list(reversed(ways_of_set)) for ways_of_set in way_lists]

    def _merged_keys(
        self, lanes: Sequence, offsets: dict
    ) -> Iterator[Tuple[array, int]]:
        """The merged stream as ``(pages, key offset)`` per segment."""
        for number, start, stop in self.segments:
            yield lanes[number][0].vpns[start:stop], offsets[number]

    def placed(self, lane: int, start: int, stop: int) -> bool:
        """Whether ``[start, stop)`` of lane ``lane``'s trace is the next
        stretch of this universe's stream."""
        segments = self.segments
        if segments is None:
            return self.pos == start
        if self.step >= len(segments):
            return False
        owner, first, last = segments[self.step]
        return owner == lane and first == start and last == stop


@dataclass
class KernelCounts:
    """How often the run kernel's proofs engaged, and what the fast path
    compiled and built, over one cell.

    The first three are the only sign that a cell did not quietly
    degenerate to the per-access probe, and they are the same whichever
    process runs the cell.  ``simulate()`` adds each fast runner's
    finished :class:`RunState` to the count :func:`kernel_count` opened
    in its context; the runner opens one per cell.  The last two depend
    on what the process had built before the cell: a trace or oracle
    found in :data:`TRACE_STORE` counts nothing.
    """

    #: Accesses retired by proven hit-runs without a per-access probe.
    run_hits: int = 0
    #: Accesses that went through the per-access probe.
    fallback_accesses: int = 0
    #: Nonempty proven runs.
    runs: int = 0
    #: Traces :func:`compile_trace` compiled.
    traces_compiled: int = 0
    #: :class:`ReuseOracle` schedules built, per trace and merged.
    oracles_built: int = 0

    def add(self, other: "KernelCounts") -> None:
        for count in fields(self):
            name = count.name
            setattr(self, name, getattr(self, name) + getattr(other, name))


_OPEN_COUNT: ContextVar[Optional[KernelCounts]] = ContextVar(
    "repro_kernel_count", default=None
)


@contextmanager
def kernel_count() -> Iterator[KernelCounts]:
    """Open a fresh :class:`KernelCounts` for the replays in this block.

    Context-local: replays on other threads never add to it, and replays
    outside an open count are not counted.
    """
    counts = KernelCounts()
    token = _OPEN_COUNT.set(counts)
    try:
        yield counts
    finally:
        _OPEN_COUNT.reset(token)


def count_run_state(state: RunState) -> None:
    """Add one runner's finished :class:`RunState` to the open count."""
    counts = _OPEN_COUNT.get()
    if counts is not None:
        counts.add(KernelCounts(state.run_hits, state.probed, state.runs))


def _tally(field: str) -> None:
    """Add one to ``field`` of the count open in this context, if any."""
    counts = _OPEN_COUNT.get()
    if counts is not None:
        setattr(counts, field, getattr(counts, field) + 1)
