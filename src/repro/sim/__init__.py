"""The shared simulation core: one translation path for every experiment.

The paper's Section 4 flow charts describe a single state machine -- a TLB
driven by translate / flush / context-switch events -- yet a reproduction
naturally grows one hand-rolled drive loop per experiment (the CPU, the
trace-driven timing model, each end-to-end attack, the security harness).
:mod:`repro.sim` extracts that state machine once:

* :class:`MemorySystem` -- the facade owning the TLB (or hierarchy), the
  page-table walker, the context-switch policy and cycle accounting.  Every
  drive loop in the repository performs its translations through it.
* :class:`EventBus` -- a typed publish/subscribe bus carrying the seven
  architectural events (``access``, ``fill``, ``refill``, ``evict``,
  ``flush``, ``walk``, ``context_switch``) out of the translation path.
  Hierarchies tag fills/evicts with their level and announce inter-level
  movement as ``refill`` events.
* Observers -- :class:`TraceObserver` dumps the event stream as JSONL
  (``python -m repro trace <scenario>``); :class:`StatsObserver` keeps
  cheap aggregate counters without touching the hot path when detached.
* :class:`SetProber` -- the shared prime / probe-and-classify helper the
  attack modules previously re-implemented individually.
* :mod:`repro.sim.kernel` -- the fast path's compiled traces, their
  run structure and the shared trace store, which the timing model
  replays through the run kernel (``BaseTLB.translate_runs``) while no
  observer is subscribed; differentially verified against the reference
  path (``docs/performance.md``).

See ``docs/architecture.md`` for the observer API and event schema.
"""

from .events import (
    AccessEvent,
    ContextSwitchEvent,
    EventBus,
    EvictEvent,
    FillEvent,
    FlushEvent,
    RefillEvent,
    WalkEvent,
)
from .kernel import (
    CompiledTrace,
    KernelCounts,
    ReuseOracle,
    RunState,
    kernel_count,
    supports_fastpath,
)
from .observers import (
    JsonlWriter,
    StatsObserver,
    TornRecordError,
    TraceObserver,
    read_jsonl,
)
from .probe import ProbeOutcome, SetProber, pages_for_set
from .system import MemorySystem
from .trace import SCENARIOS, TraceReport, read_trace, run_scenario

__all__ = [
    "SCENARIOS",
    "TraceReport",
    "AccessEvent",
    "CompiledTrace",
    "ContextSwitchEvent",
    "EventBus",
    "EvictEvent",
    "FillEvent",
    "FlushEvent",
    "JsonlWriter",
    "KernelCounts",
    "MemorySystem",
    "ProbeOutcome",
    "RefillEvent",
    "ReuseOracle",
    "RunState",
    "SetProber",
    "StatsObserver",
    "TornRecordError",
    "TraceObserver",
    "WalkEvent",
    "kernel_count",
    "pages_for_set",
    "read_jsonl",
    "read_trace",
    "run_scenario",
    "supports_fastpath",
]
