"""The host invariant linter: repo architecture rules as AST checks.

The simulator's correctness arguments lean on a handful of structural
invariants that ordinary linters cannot express.  Each is a named rule
over Python ASTs:

``facade-tlb-construction``
    TLB designs are built only inside ``repro.tlb``, home of the registered
    factories (``repro.tlb.kinds``); every drive loop goes through
    ``make_tlb`` (flat designs) or ``make_hierarchy`` (the one sanctioned
    multi-level constructor) so experiments stay comparable and
    observable through the :class:`repro.sim.MemorySystem` facade.

``facade-walker-construction``
    ``PageTableWalker`` is built only inside ``repro.mmu`` and the
    :class:`repro.sim.MemorySystem` default; everything else uses
    ``repro.mmu.make_walker``.

``deterministic-sim``
    Simulation code may not consult wall clocks or the process-global
    RNG (``time.time``, ``random.random``, seedless ``random.Random()``,
    ...): every experiment must be a pure function of its seeds.  The
    ``repro.runner`` orchestration layer and the ``repro.serve`` service
    are exempt -- telemetry timestamps, quota clocks, and job timings
    never feed simulation state.

``sim-isolation``
    Simulation and analysis code may not open sockets or start network
    servers (``socket.socket``, ``asyncio.start_server``, ...): network
    I/O lives in ``repro.serve`` alone, so every other module stays a
    pure library that cannot leak results -- or nondeterminism -- over a
    wire.

``frozen-event-dataclasses``
    Event record dataclasses (``*Event``) stay ``frozen=True, slots=True``:
    observers must not be able to mutate the stream other observers see
    (frozen), and per-event ``__dict__`` allocations would dominate traced
    runs (slots).

``no-snapshot-mutation``
    Values returned by ``snapshot()``/``entries()`` are isolated copies
    for inspection; assigning to them (or calling their mutators) is
    always a bug -- the live structure will not change.

``certifiable-hierarchy``
    Multi-level designs are never assembled from raw level lists:
    ``make_hierarchy``/``TLBHierarchy`` take a declarative
    :class:`repro.tlb.HierarchySpec`, and new specs are defined only in
    the spec catalogs (``repro.tlb``, whose ``HierarchySpec.flat`` names
    the flat designs, and the ablations sweep).  Every hierarchy in the
    codebase is therefore reachable by ``python -m repro certify`` --
    certifiable by construction.

``allocation-free-run-kernel``
    The run kernel's functions are the inner loops the speedup headline
    stands on: ``translate_runs``, ``_oracle_slice`` and
    ``_settle_touch``, and the one miss path every design shares,
    ``BaseTLB._run_miss_fast``, with the helpers it calls per miss
    (``_fill_ways``, each design's fill rule, and RF's Sec predicate
    ``is_secure``).  They allow no dataclass or event construction
    (``TLBEntry``/``AccessResult``/``WalkResult``/``*Event``), no
    ``snapshot()`` calls, no comprehensions, and tuples only where they
    do not allocate per access (unpacking targets, return statements,
    index keys, and ``.get``/``.pop`` arguments).
    The compile-tier pre-passes (``ReuseOracle.extend``,
    ``_oracle_engage``, ``_rebuild_victim_queue``) are deliberately
    outside the guarded set -- they run once per trace or per rebuild,
    not per access -- as is the reference ``_handle_miss`` the shared
    miss path hands RF's secure misses to; the numpy backend module is
    allow-listed (vectorized array expressions allocate wholesale, not
    per event).

A finding can be waived on its own line with a trailing
``# invariant: allow <rule-name>`` comment.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple, Union

#: The TLB design classes the facade rule guards.
TLB_CLASSES = frozenset(
    {
        "SetAssociativeTLB",
        "StaticPartitionTLB",
        "RandomFillTLB",
        "DynamicPartitionTLB",
        "TLBHierarchy",
    }
)

#: Process-global RNG entry points (all mutate or read shared hidden state).
GLOBAL_RANDOM_FUNCTIONS = frozenset(
    {
        "random",
        "randrange",
        "randint",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "seed",
        "getrandbits",
        "uniform",
        "gauss",
    }
)

#: Wall-clock reads that would make runs irreproducible.
WALL_CLOCK_FUNCTIONS = frozenset(
    {"time", "time_ns", "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns"}
)

#: ``socket.*`` / ``asyncio.*`` entry points that open network endpoints.
NETWORK_FUNCTIONS = frozenset(
    {
        "socket",
        "socketpair",
        "create_connection",
        "create_server",
        "start_server",
        "start_unix_server",
        "open_connection",
        "open_unix_connection",
    }
)

#: Methods that mutate a TLB entry in place.
ENTRY_MUTATORS = frozenset({"invalidate", "fill", "touch"})

#: Methods whose return values are isolated copies.
SNAPSHOT_METHODS = frozenset({"snapshot", "entries"})

WAIVER_MARKER = "invariant: allow"


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    message: str

    def describe(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


class Rule:
    """Base class: subclasses visit one parsed module."""

    name: str = ""
    description: str = ""
    #: Module-relative path prefixes/files where the rule does not apply.
    allowed_prefixes: Tuple[str, ...] = ()
    allowed_files: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if relpath in self.allowed_files:
            return False
        return not any(
            relpath.startswith(prefix) for prefix in self.allowed_prefixes
        )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(self, node: ast.AST, relpath: str, message: str) -> LintFinding:
        return LintFinding(
            rule=self.name,
            path=relpath,
            line=getattr(node, "lineno", 0),
            message=message,
        )


def _call_name(node: ast.Call) -> Optional[str]:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


class FacadeTLBConstruction(Rule):
    name = "facade-tlb-construction"
    description = (
        "TLB designs are constructed only in repro.tlb, whose factories"
        " every drive loop uses (make_tlb, or make_hierarchy for"
        " multi-level designs)"
    )
    allowed_prefixes = ("repro/tlb/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _call_name(node) in TLB_CLASSES:
                yield self.finding(
                    node,
                    relpath,
                    f"direct {_call_name(node)}(...) construction;"
                    " go through the registered factories in"
                    " repro.tlb.kinds",
                )


class FacadeWalkerConstruction(Rule):
    name = "facade-walker-construction"
    description = (
        "PageTableWalker is constructed only in repro.mmu and the"
        " MemorySystem default (use repro.mmu.make_walker)"
    )
    allowed_prefixes = ("repro/mmu/",)
    allowed_files = ("repro/sim/system.py",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and _call_name(node) == "PageTableWalker"
            ):
                yield self.finding(
                    node,
                    relpath,
                    "direct PageTableWalker(...) construction; use"
                    " repro.mmu.make_walker",
                )


class DeterministicSim(Rule):
    name = "deterministic-sim"
    description = (
        "no wall-clock or process-global RNG calls in simulation paths"
        " (thread a seeded random.Random through instead)"
    )
    #: Orchestration telemetry and the service's quota/job clocks stamp
    #: real time; simulation never reads it.
    allowed_prefixes = ("repro/runner/", "repro/serve/")
    #: The regression bench is a stopwatch around the simulator, not a
    #: simulation path: its perf_counter reads never feed simulated state.
    allowed_files = ("repro/perf/bench.py",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute) and isinstance(
                func.value, ast.Name
            ):
                module, attr = func.value.id, func.attr
                if module == "random" and attr in GLOBAL_RANDOM_FUNCTIONS:
                    yield self.finding(
                        node,
                        relpath,
                        f"random.{attr}() uses the process-global RNG;"
                        " accept a seeded random.Random instead",
                    )
                elif module == "time" and attr in WALL_CLOCK_FUNCTIONS:
                    yield self.finding(
                        node,
                        relpath,
                        f"time.{attr}() reads the wall clock inside a"
                        " simulation path",
                    )
                elif module == "datetime" and attr in ("now", "utcnow"):
                    yield self.finding(
                        node,
                        relpath,
                        f"datetime.{attr}() reads the wall clock inside a"
                        " simulation path",
                    )
            if _call_name(node) == "Random" and not node.args and not node.keywords:
                yield self.finding(
                    node,
                    relpath,
                    "Random() without a seed draws OS entropy; pass an"
                    " explicit seed",
                )


class SimIsolation(Rule):
    name = "sim-isolation"
    description = (
        "no sockets or network servers outside repro.serve; simulation"
        " stays a pure library"
    )
    #: The service is the one sanctioned network boundary.
    allowed_prefixes = ("repro/serve/",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in ("socket", "asyncio")
                and func.attr in NETWORK_FUNCTIONS
            ):
                yield self.finding(
                    node,
                    relpath,
                    f"{func.value.id}.{func.attr}() opens a network"
                    " endpoint outside repro.serve; the service is the"
                    " only sanctioned network boundary",
                )


class FrozenEventDataclasses(Rule):
    name = "frozen-event-dataclasses"
    description = (
        "event record dataclasses (*Event) must be frozen=True, slots=True"
    )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith("Event"):
                continue
            decorated = False
            frozen = False
            slots = False
            for decorator in node.decorator_list:
                if (
                    isinstance(decorator, ast.Name)
                    and decorator.id == "dataclass"
                ):
                    decorated = True
                elif (
                    isinstance(decorator, ast.Call)
                    and _call_name(decorator) == "dataclass"
                ):
                    decorated = True
                    for keyword in decorator.keywords:
                        if (
                            isinstance(keyword.value, ast.Constant)
                            and keyword.value.value is True
                        ):
                            if keyword.arg == "frozen":
                                frozen = True
                            elif keyword.arg == "slots":
                                slots = True
            if decorated and not (frozen and slots):
                missing = ", ".join(
                    flag
                    for flag, present in (("frozen=True", frozen),
                                          ("slots=True", slots))
                    if not present
                )
                yield self.finding(
                    node,
                    relpath,
                    f"event dataclass {node.name} must be @dataclass"
                    f"(frozen=True, slots=True) (missing {missing}):"
                    " observers share the stream, and events are the"
                    " hot-path allocation",
                )


def _chain_calls_snapshot(node: ast.AST) -> bool:
    """Does the expression chain under ``node`` call snapshot()/entries()?"""
    for child in ast.walk(node):
        if isinstance(child, ast.Call) and _call_name(child) in SNAPSHOT_METHODS:
            if isinstance(child.func, ast.Attribute):
                return True
    return False


class NoSnapshotMutation(Rule):
    name = "no-snapshot-mutation"
    description = (
        "snapshot()/entries() return isolated copies; mutating them is"
        " always a bug"
    )

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            targets: Sequence[ast.expr] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            for target in targets:
                if isinstance(
                    target, (ast.Attribute, ast.Subscript)
                ) and _chain_calls_snapshot(target.value):
                    yield self.finding(
                        node,
                        relpath,
                        "assignment into a snapshot()/entries() copy has"
                        " no effect on the live structure",
                    )
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ENTRY_MUTATORS
                and _chain_calls_snapshot(node.func.value)
            ):
                yield self.finding(
                    node,
                    relpath,
                    f"{node.func.attr}() on a snapshot()/entries() copy"
                    " mutates dead state",
                )


def _literal_levels_argument(node: ast.Call) -> bool:
    """Does the call pass a raw list/tuple as its levels?"""
    candidates: List[ast.expr] = []
    if node.args:
        candidates.append(node.args[0])
    for keyword in node.keywords:
        if keyword.arg == "levels":
            candidates.append(keyword.value)
    return any(
        isinstance(candidate, (ast.List, ast.Tuple))
        for candidate in candidates
    )


class CertifiableHierarchy(Rule):
    name = "certifiable-hierarchy"
    description = (
        "hierarchies are never built from raw level lists: pass a"
        " HierarchySpec to make_hierarchy, and define new specs only in"
        " the declarative catalogs so every design stays certifiable by"
        " `python -m repro certify`"
    )
    #: The spec type, its flat-design constructor, the live constructor
    #: and the sanctioned factory live in repro.tlb; they and the sweep's
    #: spec catalog may spell levels out.
    allowed_prefixes = ("repro/tlb/",)
    allowed_files = ("repro/ablations/hierarchy.py",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _call_name(node)
            if name in ("TLBHierarchy", "make_hierarchy") and (
                    _literal_levels_argument(node)):
                yield self.finding(
                    node,
                    relpath,
                    f"{name}(...) built from a raw level list; pass a"
                    " declarative HierarchySpec so the design is"
                    " certifiable",
                )
            elif name == "HierarchySpec" and _literal_levels_argument(node):
                yield self.finding(
                    node,
                    relpath,
                    "inline HierarchySpec level list outside the spec"
                    " catalogs; define the design in repro.tlb /"
                    " repro.ablations so the certify CLI and the"
                    " differential gate can enumerate it",
                )


#: The run-kernel functions held to the allocation-free discipline: the
#: shared miss path and every helper it calls per miss among them.
#: Matched by name wherever they are defined, so every design's
#: ``_fill_ways`` (and any future override) is covered automatically.
KERNEL_FUNCTIONS = frozenset(
    {
        "translate_runs",
        "_oracle_slice",
        "_run_miss_fast",
        "_fill_ways",
        "is_secure",
        "_settle_touch",
    }
)

#: Constructors whose appearance inside a kernel function means a
#: per-access heap allocation crept back into an inner loop.
KERNEL_ALLOCATING_CALLS = frozenset({"TLBEntry", "AccessResult", "WalkResult"})

#: Comprehension nodes (each builds a fresh container per evaluation).
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


class AllocationFreeRunKernel(Rule):
    name = "allocation-free-run-kernel"
    description = (
        "the run kernel's functions stay allocation-free: no"
        " dataclass/event construction, snapshot() calls or"
        " comprehensions, and tuples only in non-allocating positions"
        " (unpacking, return, index keys, .get/.pop arguments)"
    )
    #: The numpy structural backend builds whole arrays at once -- its
    #: allocations are per trace chunk, not per access.
    allowed_files = ("repro/sim/kernel_np.py",)

    def check(self, tree: ast.Module, relpath: str) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.FunctionDef)
                and node.name in KERNEL_FUNCTIONS
            ):
                yield from self._check_kernel(node, relpath)

    def _check_kernel(
        self, func: ast.FunctionDef, relpath: str
    ) -> Iterator[LintFinding]:
        allowed_tuples = set()
        for node in ast.walk(func):
            # Mark the tuple positions that do not allocate per access
            # (or allocate only on cold paths CPython optimizes anyway).
            if isinstance(node, ast.Return) and isinstance(
                node.value, ast.Tuple
            ):
                allowed_tuples.add(id(node.value))
            elif isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Tuple
            ):
                allowed_tuples.add(id(node.slice))
            elif isinstance(node, ast.Call):
                # ``.get``/``.pop`` index-key arguments, including the
                # hoisted bound-method idiom (``index_get = index.get``).
                name = _call_name(node)
                if name is not None and (
                    name.endswith("get") or name.endswith("pop")
                ):
                    for arg in node.args:
                        if isinstance(arg, ast.Tuple):
                            allowed_tuples.add(id(arg))
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                name = _call_name(node)
                if name in KERNEL_ALLOCATING_CALLS or (
                    name is not None and name.endswith("Event")
                ):
                    yield self.finding(
                        node,
                        relpath,
                        f"{name}(...) constructed inside kernel function"
                        f" {func.name}(); the batched kernels must not"
                        " allocate result or event objects per access",
                    )
                elif (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr == "snapshot"
                ):
                    yield self.finding(
                        node,
                        relpath,
                        f"snapshot() called inside kernel function"
                        f" {func.name}(); snapshots copy whole"
                        " structures per call",
                    )
            elif isinstance(node, _COMPREHENSIONS):
                yield self.finding(
                    node,
                    relpath,
                    f"comprehension inside kernel function {func.name}();"
                    " build containers outside the inner loops",
                )
            elif (
                isinstance(node, ast.Tuple)
                and isinstance(node.ctx, ast.Load)
                and id(node) not in allowed_tuples
            ):
                yield self.finding(
                    node,
                    relpath,
                    f"tuple built inside kernel function {func.name}()"
                    " outside the non-allocating positions (unpacking,"
                    " return, index key, .get/.pop argument)",
                )


#: Rule registry, in reporting order.
LINT_RULES: Tuple[Rule, ...] = (
    FacadeTLBConstruction(),
    FacadeWalkerConstruction(),
    DeterministicSim(),
    SimIsolation(),
    FrozenEventDataclasses(),
    NoSnapshotMutation(),
    CertifiableHierarchy(),
    AllocationFreeRunKernel(),
)


def module_relpath(path: Path) -> str:
    """Path relative to the ``repro`` package root, slash-separated.

    Files outside the package (test fixtures, scratch snippets) keep the
    bare filename and get no allowlist privileges.
    """
    parts = path.parts
    for index in range(len(parts) - 1, -1, -1):
        if parts[index] == "repro":
            return "/".join(parts[index:])
    return path.name


def lint_source(
    source: str,
    path: Union[str, Path] = "<string>",
    rules: Iterable[Rule] = LINT_RULES,
) -> List[LintFinding]:
    """Lint one module's source text."""
    relpath = module_relpath(Path(path))
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    findings: List[LintFinding] = []
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for finding in rule.check(tree, relpath):
            if _waived(lines, finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda finding: (finding.path, finding.line, finding.rule))
    return findings


def _waived(lines: Sequence[str], finding: LintFinding) -> bool:
    if not 1 <= finding.line <= len(lines):
        return False
    line = lines[finding.line - 1]
    marker = line.find(WAIVER_MARKER)
    if marker < 0:
        return False
    waived = line[marker + len(WAIVER_MARKER):].strip()
    return waived.startswith(finding.rule)


def iter_python_files(paths: Sequence[Union[str, Path]]) -> Iterator[Path]:
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


def run_lint(
    paths: Sequence[Union[str, Path]],
    rules: Iterable[Rule] = LINT_RULES,
) -> List[LintFinding]:
    """Lint every ``.py`` file under ``paths``."""
    findings: List[LintFinding] = []
    for path in iter_python_files(paths):
        findings.extend(
            lint_source(path.read_text(), path=path, rules=rules)
        )
    return findings
