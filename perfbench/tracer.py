"""Span tracer that wraps public ``repro`` layer functions by dotted name.

Installing the tracer replaces each hooked callable with a wrapper that
records a span: name, start, end, parent span and the current tag (the
cell being run).  A span's *self time* is its duration minus the part
its child spans cover, so the layer self times of one pass add up to
the traced time without double counting.  A call nested inside a span
of its own name (an override calling its base class, a hierarchy level
calling the next) is folded into the outer span.

Spans of coarse calls (cells, rows, certificates, cache I/O) are kept
in memory as records and written once, by :meth:`Tracer.dump`.
High-frequency leaf calls (one per translation, walk or guest run) would
need millions of records, so they are folded into per-name aggregates
as they close: their self time and counts are exact, only the
individual records are not kept.

A hook whose target no longer resolves is listed in
:attr:`Tracer.unresolved`; the layer metric it fed then reads absent
instead of the run crashing.  Untraced runs never import this module.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Events pulled from a workload generator per timed batch.  Equal to
#: ``repro.sim.kernel.CHUNK``, the batch ``CompiledTrace.ensure`` pulls,
#: so the wrapped generator advances in lockstep with the compiler.
GEN_BATCH = 4096

#: Span names whose individual records are not kept (see module docstring).
FOLDED = frozenset({
    "tlb.translate", "tlb.replay", "tlb.build", "mmu.walk", "mmu.map",
    "isa.assemble", "isa.load", "isa.exec", "security.benchgen",
    "workloads.gen", "kernel.compile", "kernel.structure", "kernel.oracle",
})

#: ``after(tracer, args, result)``: a counter fed from a call.
After = Callable[["Tracer", tuple, Any], None]
#: ``before(tracer, args, kwargs) -> args``: may rewrite the positional
#: arguments.
Before = Callable[["Tracer", tuple, dict], tuple]


class _Frame:
    __slots__ = ("name", "start", "child", "record")

    def __init__(self, name: str, start: float, record: int) -> None:
        self.name = name
        self.start = start
        self.child = 0.0
        self.record = record


class Tracer:
    """Collects spans and counters from hooked ``repro`` callables."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [outermost calls, outermost seconds, self seconds]
        self.spans: Dict[str, List[float]] = {}
        self.counts: Dict[str, int] = {}
        #: [name, start, end, parent record index, tag] of kept spans.
        self.records: List[list] = []
        self.unresolved: List[str] = []
        self.resolved: set = set()
        self._restore: List[Callable[[], None]] = []
        self._traces_seen: set = set()

    # -- spans -----------------------------------------------------------------

    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_tag(self, tag: Optional[str]) -> None:
        """Tag the spans this thread opens next (a cell identity)."""
        self._local.tag = tag

    def enter(self, name: str) -> _Frame:
        stack = self._stack()
        record = -1
        if name not in FOLDED:
            parent = next(
                (outer.record for outer in reversed(stack) if outer.record >= 0),
                -1,
            )
            with self._lock:
                record = len(self.records)
                self.records.append(
                    [name, 0.0, 0.0, parent, getattr(self._local, "tag", None)]
                )
        frame = _Frame(name, time.perf_counter(), record)
        stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> bool:
        """Close a span; returns whether it was the outermost of its name."""
        end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child += duration
        outermost = all(outer.name != frame.name for outer in stack)
        with self._lock:
            totals = self.spans.setdefault(frame.name, [0, 0.0, 0.0])
            totals[2] += duration - frame.child
            if outermost:
                totals[0] += 1
                totals[1] += duration
            if frame.record >= 0:
                self.records[frame.record][1:3] = [frame.start, end]
        return outermost

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def inside(self, name: str) -> bool:
        """Whether this thread's innermost open span is ``name``."""
        stack = self._stack()
        return bool(stack) and stack[-1].name == name

    # -- hooks -----------------------------------------------------------------

    @staticmethod
    def _resolve(dotted: str) -> Tuple[Any, str, Any]:
        """(owner, attribute, raw value) for ``pkg.module[.Class].attr``.

        A class attribute must be defined on that class itself, so a
        method that moves or disappears is reported, not silently
        resolved to an inherited one.
        """
        parts = dotted.split(".")
        for split in range(len(parts) - 1, 0, -1):
            try:
                owner: Any = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for name in parts[split:-1]:
                owner = getattr(owner, name)
            attribute = parts[-1]
            if isinstance(owner, type):
                return owner, attribute, owner.__dict__[attribute]
            return owner, attribute, getattr(owner, attribute)
        raise ImportError(dotted)

    def hook(
        self,
        dotted: str,
        key: str,
        span: bool = True,
        before: Optional[Before] = None,
        after: Optional[After] = None,
    ) -> None:
        """Wrap one callable in a span named ``key``, or only count.

        ``key`` also names the layer the hook feeds: :attr:`resolved`
        holds the keys with at least one installed hook.
        """
        try:
            owner, attribute, raw = self._resolve(dotted)
        except (ImportError, AttributeError, KeyError):
            self.unresolved.append(dotted)
            return
        self.resolved.add(key)
        descriptor = (
            type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
        )
        function = raw.__func__ if descriptor is not None else raw
        tracer = self
        name = key if span else None

        def traced(*args, **kwargs):
            if before is not None:
                args = before(tracer, args, kwargs)
            if name is None:
                result = function(*args, **kwargs)
                if after is not None:
                    after(tracer, args, result)
                return result
            frame = tracer.enter(name)
            try:
                result = function(*args, **kwargs)
            finally:
                outermost = tracer.exit(frame)
            if after is not None and outermost:
                after(tracer, args, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        setattr(owner, attribute, descriptor(traced) if descriptor else traced)
        self._restore.append(lambda: setattr(owner, attribute, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- generator timing and trace identity -------------------------------------

    def timed_events(self, events):
        """Yield ``events`` while timing each batch pulled from them."""
        source = iter(events)
        while True:
            frame = self.enter("workloads.gen")
            try:
                batch = list(itertools.islice(source, GEN_BATCH))
            finally:
                self.exit(frame)
            self.count("workloads.events", len(batch))
            yield from batch
            if len(batch) < GEN_BATCH:
                return

    def note_trace(self, key: Any) -> None:
        """Count one trace a ``simulate()`` call compiles, and repeats."""
        with self._lock:
            repeated = key in self._traces_seen
            self._traces_seen.add(key)
        self.count("kernel.simulated_traces")
        if repeated:
            self.count("kernel.repeated_traces")

    # -- results ---------------------------------------------------------------

    def summary(self) -> Dict[str, Any]:
        """Aggregates, counters and hook resolution, as plain JSON."""
        return {
            "spans": self.spans,
            "counts": self.counts,
            "resolved": sorted(self.resolved),
            "unresolved": self.unresolved,
        }

    def dump(self, path: str) -> None:
        """Write the kept span records, then the summary, once."""
        with open(path, "w", encoding="utf-8") as handle:
            for name, start, end, parent, tag in self.records:
                handle.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "tag": tag,
                }) + "\n")
            handle.write(json.dumps(self.summary()) + "\n")


# -- the hook table --------------------------------------------------------------


def _compiled_trace_init(tracer: Tracer, args: tuple, _kwargs: dict) -> tuple:
    # CompiledTrace(self, events): time the workload generator it pulls.
    tracer.count("kernel.traces")
    return (args[0], tracer.timed_events(args[1])) + args[2:]


def _simulate_keys(tracer: Tracer, args: tuple, kwargs: dict) -> tuple:
    # simulate(tlb, processes, ...) seeds runner i with seed * 1000003 + i;
    # every caller passes the seed by keyword or leaves it at 0.
    processes = args[1]
    seed = kwargs.get("seed", 0)
    for index, process in enumerate(processes):
        tracer.note_trace(
            (repr(process.workload), seed * 1000003 + index,
             process.instructions)
        )
    return args


def _replay_accesses(tracer: Tracer, args: tuple, _result) -> None:
    # translate_runs(self, trace, start, stop, ...) and
    # translate_slice(self, vpns, start, stop, ...) share the layout.
    tracer.count("tlb.replay_accesses", args[3] - args[2])


def _cache_get(tracer: Tracer, _args: tuple, result) -> None:
    tracer.count("runner.cache_hits" if result[0] else "runner.cache_misses")


def _guest_instructions(tracer: Tracer, _args: tuple, result) -> None:
    tracer.count("isa.instructions", result.instructions)


def _tag_cell(tracer: Tracer, args: tuple, _kwargs: dict) -> tuple:
    # InProcessExecutor.submit(self, unit)
    tracer.set_tag(args[1].ident)
    return args


def _walk_levels(tracer: Tracer, _args: tuple, _result) -> None:
    # Only the walker's own radix traversals measure the memo's misses
    # (permission checks and detectors read the table through lookup()).
    if tracer.inside("mmu.walk"):
        tracer.count("mmu.walk_levels")


def _counter(name: str) -> After:
    return lambda tracer, _args, _result: tracer.count(name)


#: (dotted target, layer key, records a span, before, after).  A key
#: that is not a span names the counters its hooks feed.
HOOKS: Tuple[Tuple[str, str, bool, Optional[Before], Optional[After]], ...] = (
    # repro.workloads generation inside repro.sim.kernel compile
    ("repro.sim.kernel.CompiledTrace.__init__", "kernel.traces", False,
     _compiled_trace_init, None),
    ("repro.sim.kernel.CompiledTrace.ensure", "kernel.compile", True,
     None, None),
    ("repro.sim.kernel.CompiledTrace.ensure_structure", "kernel.structure",
     True, None, None),
    ("repro.sim.kernel.CompiledTrace.reuse_oracle", "kernel.oracle", True,
     None, None),
    ("repro.sim.kernel.ReuseOracle.extend", "kernel.oracle", True,
     None, None),
    ("repro.sim.kernel.ReuseOracle.__init__", "kernel.oracles", False,
     None, _counter("kernel.oracles")),
    ("repro.perf.timing.simulate", "kernel.simulated_traces", False,
     _simulate_keys, None),
    ("repro.perf.harness.simulate", "kernel.simulated_traces", False,
     _simulate_keys, None),
    # repro.tlb kernel replay, reference path and construction
    ("repro.tlb.base.BaseTLB.translate_runs", "tlb.replay", True,
     None, _replay_accesses),
    ("repro.tlb.hierarchy.TLBHierarchy.translate_runs", "tlb.replay", True,
     None, _replay_accesses),
    ("repro.tlb.base.BaseTLB.translate_slice", "tlb.replay", True,
     None, _replay_accesses),
    ("repro.tlb.hierarchy.TLBHierarchy.translate_slice", "tlb.replay", True,
     None, _replay_accesses),
    ("repro.tlb.base.BaseTLB.translate", "tlb.translate", True, None, None),
    ("repro.tlb.rf.RandomFillTLB.translate", "tlb.translate", True,
     None, None),
    ("repro.tlb.hierarchy.TLBHierarchy.translate", "tlb.translate", True,
     None, None),
    ("repro.perf.harness.make_tlb", "tlb.build", True, None, None),
    ("repro.security.evaluate.make_tlb", "tlb.build", True, None, None),
    ("repro.ablations.hierarchy.make_hierarchy", "tlb.build", True,
     None, None),
    # repro.mmu page walks
    ("repro.mmu.walker.PageTableWalker.walk", "mmu.walk", True, None, None),
    ("repro.mmu.page_table.PageTable.walk_levels", "mmu.walk_levels", False,
     None, _walk_levels),
    ("repro.mmu.page_table.PageTable.map_page", "mmu.map", True, None, None),
    # repro.isa guest execution
    ("repro.security.evaluate.assemble", "isa.assemble", True, None, None),
    ("repro.ablations.hierarchy.assemble", "isa.assemble", True, None, None),
    ("repro.isa.cpu.CPU.load", "isa.load", True, None, None),
    ("repro.isa.cpu.CPU.run", "isa.exec", True, None, _guest_instructions),
    # repro.security / repro.ablations evaluators
    ("repro.security.evaluate.generate", "security.benchgen", True,
     None, None),
    ("repro.ablations.hierarchy.generate", "security.benchgen", True,
     None, None),
    ("repro.security.evaluate.SecurityEvaluator.evaluate_vulnerability",
     "security.row", True, None, None),
    ("repro.ablations.hierarchy.evaluate_sweep_cell", "security.row", True,
     None, None),
    # repro.analysis.certify
    ("repro.analysis.certify_gate.certify", "certify.static", True,
     None, None),
    ("repro.analysis.certify.certify", "certify.static", True, None, None),
    # repro.perf cells
    ("repro.perf.run_cell", "perf.cell", True, None, None),
    ("repro.perf.harness.run_cell", "perf.cell", True, None, None),
    # repro.runner cells, sealing, cache I/O, assembly
    ("repro.runner.scheduler.InProcessExecutor.submit", "runner.cell", True,
     _tag_cell, None),
    ("repro.runner.cache.code_fingerprint", "runner.fingerprint", True,
     None, None),
    ("repro.serve.jobs.code_fingerprint", "runner.fingerprint", True,
     None, None),
    ("repro.runner.cache.ResultCache.get", "runner.cache_get", True,
     None, _cache_get),
    ("repro.runner.cache.ResultCache.put", "runner.cache_put", True,
     None, None),
    ("repro.runner.scheduler.ResultEnvelope.seal", "runner.seal", True,
     None, None),
    ("repro.runner.experiments.Table5Experiment.assemble", "runner.assemble",
     True, None, None),
    ("repro.runner.api.write_artifacts", "runner.artifacts", True,
     None, None),
)


def install(tracer: Optional[Tracer] = None) -> Tracer:
    """Install every hook of :data:`HOOKS`; returns the tracer."""
    tracer = tracer or Tracer()
    for dotted, key, span, before, after in HOOKS:
        tracer.hook(dotted, key, span=span, before=before, after=after)
    return tracer
