"""Static security certification of TLB hierarchies.

:mod:`repro.model` mechanizes the paper's three-step analysis for a single
abstract TLB block: ten states, six reduction rules, and the rule-7
effectiveness check yield the 24 vulnerabilities of Table 2.  PR 7 answered
the multi-level question *dynamically*, by simulating the 24-design
``hierarchy_sweep``.  This module closes the loop statically: it lifts the
single-block abstract machine to an arbitrary :class:`repro.tlb.HierarchySpec`
and decides, without running a single simulation, which Table 2 classes a
design defends -- in milliseconds instead of an overnight sweep.

The lifted abstract machine
---------------------------

The single-block machine of :mod:`repro.model.effectiveness` tracks one
set's possible contents.  The lifted machine executes the *same benchmark
expansion* the dynamic harness generates (:mod:`repro.security.benchgen`:
prime steps fill the tested set key-page-first, probes re-check it, the
secret access ``u`` maps or does not map to the tested block) over an
N-level abstract state:

* per level: the touched sets as LRU-ordered lists of ``(pid, vpn, sec)``
  entries, with the design's own fill discipline -- SA fills shared ways,
  SP confines fills to the actor's partition, RF never fills secure
  requests (Sec_D) and redirects fills that would displace a secure entry
  (Sec_R);
* the measured observable is the *walk count*: misses of the last level,
  exactly what the ``tlb_miss_count`` CSR exposes to the generated
  benchmarks (a level-k hit above that is a *refill*, mirrored after
  :class:`repro.sim.events.RefillEvent`, and is recorded as the second,
  refill-channel observable);
* the page-walk cache is provably verdict-neutral: it sits behind the
  last level, and the walk counter increments on the last-level miss
  before the PWC is consulted, so certificates ignore it (and note so).

Randomness is handled symbolically, not sampled.  A *quiet* execution
suppresses every RF random fill, yielding a fully deterministic trace per
victim hypothesis; each suppressed fill is recorded as a *noise site*.
Each site is then re-executed once per candidate random page (a
single-deviation analysis), giving the *envelope* of step-3 outcomes the
randomness can produce.

The lifted reduction rules
--------------------------

Writing ``quiet(h)`` for the deterministic step-3 slowness under hypothesis
``h`` and ``env(h)`` for its outcome envelope, a design's verdict on a row
is decided by four rules (numbered after the paper's rules 1-7, which the
candidate set already passed):

* **R8 (lifted determinism)** -- ``quiet(mapped) != quiet(unmapped)`` and
  the quiet-fast hypothesis meets no in-window noise site: the timings
  separate deterministically; *vulnerable*, with the quiet traces as the
  witness.
* **R9 (noisy core)** -- the quiet timings separate but the fast side is
  blurred by in-window random-fill walks (a secure probe through an RF
  level).  Whether the sweep's estimator resolves such a channel depends
  on the levels backing the RF: *vulnerable* iff every backing level is a
  shared, unpartitioned SA (the RF+SA split of the sweep); SP backing
  confines the victim's region residency to its partition and pushes the
  measured capacity below the operating point's threshold, and RF backing
  removes the core collision altogether.  This rule is calibrated against
  the committed sweep operating point (40 trials per behaviour, seed 7;
  see ``docs/certify.md`` -- at much larger trial counts both sides of
  the split sit within noise of the ``defends()`` threshold).
* **R10 (one-sided noise)** -- the quiet timings agree but the outcome
  envelopes differ: randomness perturbs exactly one hypothesis (e.g. a
  random fill evicting a lower-level entry whose upper-level copy was
  evicted only under ``mapped``); *vulnerable*.
* **R11 (indistinguishability)** -- quiet timings and envelopes agree:
  no execution the machine admits separates the hypotheses; *defended*,
  with the matching envelopes as the proof of absence.

The certificate emitted per design covers all 24 Table 2 rows plus the
refill-channel variants, and is differentially gated against the dynamic
sweep by :mod:`repro.analysis.certify_gate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.model.patterns import Observation, Vulnerability
from repro.model.states import Actor, AddressClass, Operation, State
from repro.model.table2 import table2_vulnerabilities
from repro.security.benchgen import (
    BenchmarkLayout,
    alias_page,
    layout_for_spec,
    prime_pages,
    region_size_for,
    role_of,
    secret_page,
    single_page,
)
from repro.tlb.spec import HierarchySpec, LevelSpec, SpecLike, coerce_spec

#: The dynamic operating point certificates are gated against: the
#: hierarchy sweep's per-behaviour trial count, whose sample-size-aware
#: ``ChannelEstimate.defends`` threshold (0.05 + 4/trials) rule R9 is
#: calibrated to.
OPERATING_POINT_TRIALS = 40

CERTIFICATE_SCHEMA = "repro/certificate/v1"


# --------------------------------------------------------------------------
# Benchmark expansion: the symbolic ops a generated benchmark performs
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class _Op:
    """One abstract instruction of the expanded three-step benchmark."""

    kind: str  # "access" | "sfence_all" | "sfence_page"
    pid: int = 0
    vpn: int = 0
    owner: int = 0  # sfence_page: the ASID whose entry is named
    window: bool = False  # inside the step-3 measurement window
    step: int = 0


def expand_benchmark(
    vulnerability: Vulnerability,
    layout: BenchmarkLayout,
    mapped: bool,
    ssize: Optional[int] = None,
) -> List[_Op]:
    """The abstract op sequence of one generated micro benchmark.

    Mirrors :func:`repro.security.benchgen.generate` exactly -- same prime
    page lists, same roles, same secret-page placement -- but emits
    machine ops instead of assembly.  Keeping the two expansions aligned
    is what makes the static/dynamic differential gate meaningful; the
    test suite pins them against each other.
    """
    if ssize is None:
        ssize = region_size_for(vulnerability)
    u_page = secret_page(vulnerability, layout, mapped, ssize)
    steps = vulnerability.pattern.steps
    if steps[2].operation is Operation.INVALIDATE_TARGET:
        raise NotImplementedError(
            "certificates cover the base-model rows; invalidation probes "
            "(Appendix B extended states) have no hierarchy ground truth"
        )
    miss_based = vulnerability.observation is Observation.SLOW
    ops: List[_Op] = []
    for index, state in enumerate(steps):
        window = index == 2
        pid = _acting_pid(layout, state)
        if state.operation is Operation.INVALIDATE_ALL:
            ops.append(
                _Op("sfence_all", pid=pid, window=window, step=index)
            )
            continue
        if state.operation is Operation.INVALIDATE_TARGET:
            vpn = single_page(state, layout, u_page)
            in_range = state.address in (
                AddressClass.U,
                AddressClass.A,
                AddressClass.A_ALIAS,
            )
            owner = layout.victim_pid if in_range else pid
            ops.append(
                _Op(
                    "sfence_page",
                    pid=pid,
                    vpn=vpn,
                    owner=owner,
                    window=window,
                    step=index,
                )
            )
            continue
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
                pages = pages[:1]
        for vpn in pages:
            ops.append(
                _Op("access", pid=pid, vpn=vpn, window=window, step=index)
            )
    return ops


def _acting_pid(layout: BenchmarkLayout, state: State) -> int:
    if state.actor is Actor.VICTIM:
        return layout.victim_pid
    return layout.attacker_pid


# --------------------------------------------------------------------------
# The lifted abstract machine
# --------------------------------------------------------------------------


class _Entry:
    __slots__ = ("pid", "vpn", "sec")

    def __init__(self, pid: int, vpn: int, sec: bool) -> None:
        self.pid = pid
        self.vpn = vpn
        self.sec = sec


class _LevelState:
    """One level's touched sets as MRU-first LRU lists."""

    def __init__(self, spec: LevelSpec, victim_pid: int) -> None:
        self.spec = spec
        self.kind = spec.kind
        self.nsets = spec.config().sets
        self.ways = spec.ways
        self.victim_ways = spec.effective_victim_ways()
        self.victim_pid = victim_pid
        self._sets: Dict[int, List[_Entry]] = {}

    def _set(self, vpn: int) -> List[_Entry]:
        return self._sets.setdefault(vpn % self.nsets, [])

    def _partition_of(self, pid: int) -> Optional[bool]:
        """SP: True = victim partition, False = attacker.  Else None."""
        if self.kind != "SP":
            return None
        return pid == self.victim_pid

    def _in_partition(self, entry: _Entry, partition: Optional[bool]) -> bool:
        if partition is None:
            return True
        return (entry.pid == self.victim_pid) == partition

    def _capacity(self, partition: Optional[bool]) -> int:
        if partition is None:
            return self.ways
        assert self.victim_ways is not None
        return self.victim_ways if partition else self.ways - self.victim_ways

    def hit(self, pid: int, vpn: int) -> bool:
        """Probe the whole set (SP hits across partitions); promote on hit."""
        tlb_set = self._set(vpn)
        for index, entry in enumerate(tlb_set):
            if entry.pid == pid and entry.vpn == vpn:
                tlb_set.insert(0, tlb_set.pop(index))
                return True
        return False

    def replacement_victim(self, pid: int, vpn: int) -> Optional[_Entry]:
        """The entry a fill would displace; ``None`` when a way is free."""
        tlb_set = self._set(vpn)
        partition = self._partition_of(pid)
        members = [e for e in tlb_set if self._in_partition(e, partition)]
        if len(members) < self._capacity(partition):
            return None
        return members[-1]  # The partition's LRU entry.

    def fill(self, pid: int, vpn: int, sec: bool) -> Optional[_Entry]:
        tlb_set = self._set(vpn)
        victim = self.replacement_victim(pid, vpn)
        if victim is not None:
            tlb_set.remove(victim)
        tlb_set.insert(0, _Entry(pid, vpn, sec))
        return victim

    def flush_all(self) -> None:
        self._sets.clear()

    def invalidate_page(self, vpn: int, owner: int) -> None:
        tlb_set = self._set(vpn)
        tlb_set[:] = [
            e for e in tlb_set if not (e.pid == owner and e.vpn == vpn)
        ]

    def resident(self, pid: int, vpn: int) -> bool:
        return any(
            e.pid == pid and e.vpn == vpn for e in self._set(vpn)
        )


@dataclass(frozen=True)
class NoiseSite:
    """One suppressed RF random fill of the quiet execution."""

    ordinal: int
    level: int
    window: bool
    #: True for Sec_R redirects (a non-secure fill displaced off a secure
    #: entry); False for Sec_D fills (the request itself was secure).
    redirect: bool
    step: int


@dataclass(frozen=True)
class _RunResult:
    window_walks: int
    total_walks: int
    sites: Tuple[NoiseSite, ...]
    #: Refill observables: (in_window, hit_level, pid, page_name).
    refills: FrozenSet[Tuple[bool, int, int, str]]


class _Machine:
    """Deterministic N-level executor with symbolic random-fill sites.

    ``deviation=(ordinal, vpn)`` makes exactly one quiet-suppressed random
    fill execute concretely with page ``vpn`` (the single-deviation
    analysis); every other site stays suppressed.
    """

    def __init__(
        self,
        spec: HierarchySpec,
        layout: BenchmarkLayout,
        ssize: int,
        page_names: Mapping[int, str],
        deviation: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.levels = [
            _LevelState(level, layout.victim_pid) for level in spec.levels
        ]
        self.sbase = layout.sbase
        self.ssize = ssize
        self.victim_pid = layout.victim_pid
        self.deviation = deviation
        self.page_names = page_names
        self.window_walks = 0
        self.total_walks = 0
        self.sites: List[NoiseSite] = []
        self.refills: List[Tuple[bool, int, int, str]] = []
        self._in_window = False
        self._step = 0

    # -- the Sec_D predicate, per level ------------------------------------------

    def _secure(self, level: _LevelState, pid: int, vpn: int) -> bool:
        return (
            level.kind == "RF"
            and level.spec.sec_bit
            and pid == self.victim_pid
            and self.sbase <= vpn < self.sbase + self.ssize
        )

    # -- program execution --------------------------------------------------------

    def run(self, ops: Sequence[_Op]) -> _RunResult:
        for op in ops:
            self._in_window = op.window
            self._step = op.step
            if op.kind == "access":
                self._translate(0, op.pid, op.vpn)
            elif op.kind == "sfence_all":
                for level in self.levels:
                    level.flush_all()
            else:  # sfence_page
                for level in self.levels:
                    level.invalidate_page(op.vpn, op.owner)
        return _RunResult(
            window_walks=self.window_walks,
            total_walks=self.total_walks,
            sites=tuple(self.sites),
            refills=frozenset(self.refills),
        )

    def _count_walk(self) -> None:
        self.total_walks += 1
        if self._in_window:
            self.window_walks += 1

    def _translate(self, index: int, pid: int, vpn: int) -> None:
        """Access levels ``index:``; fills level ``index`` per its rules."""
        level = self.levels[index]
        if level.hit(pid, vpn):
            if index > 0:
                self.refills.append(
                    (
                        self._in_window,
                        index,
                        pid,
                        self.page_names.get(vpn, hex(vpn)),
                    )
                )
            return
        if index + 1 < len(self.levels):
            self._translate(index + 1, pid, vpn)
        else:
            self._count_walk()  # The true page-table walk.
        self._fill(index, pid, vpn)

    def _fill(self, index: int, pid: int, vpn: int) -> None:
        level = self.levels[index]
        if level.kind == "RF" and level.spec.sec_bit:
            if self._secure(level, pid, vpn):
                # Sec_D = 1: no fill; a random in-region page is filled
                # instead (suppressed unless this is the deviating site).
                self._random_site(index, pid, redirect=False)
                return
            victim = level.replacement_victim(pid, vpn)
            if victim is not None and victim.sec:
                # Sec_R = 1: the fill would displace a secure entry; it is
                # redirected to a randomized-set page instead, so the
                # requested page is *not* cached.
                self._random_site(index, pid, redirect=True)
                return
        level.fill(pid, vpn, sec=False)

    def _random_site(self, index: int, pid: int, redirect: bool) -> None:
        ordinal = len(self.sites)
        self.sites.append(
            NoiseSite(
                ordinal=ordinal,
                level=index,
                window=self._in_window,
                redirect=redirect,
                step=self._step,
            )
        )
        if redirect:
            return  # Redirected fills never cache the requested page.
        if self.deviation is not None and self.deviation[0] == ordinal:
            self._random_fill(index, pid, self.deviation[1])

    def _random_fill(self, index: int, pid: int, vpn: int) -> None:
        """The RFE fill of D': walks lower levels, fills the RF directly."""
        level = self.levels[index]
        if level.hit(pid, vpn):
            return  # Already cached: the fill degenerates to a refresh.
        if index + 1 < len(self.levels):
            self._translate(index + 1, pid, vpn)
        else:
            self._count_walk()
        # Direct fill (no Sec_R re-check, mirroring RandomFillTLB._random_fill).
        level.fill(pid, vpn, sec=self._secure(level, pid, vpn))


# --------------------------------------------------------------------------
# Hypothesis analysis: quiet run + single-deviation envelope
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class HypothesisAnalysis:
    """Everything rule R8-R11 adjudication needs about one hypothesis."""

    mapped: bool
    quiet_walks: int
    quiet_slow: bool
    #: Step-3 slowness values any single random deviation can produce
    #: (always includes the quiet outcome).
    envelope: FrozenSet[bool]
    #: In-window noise sites of the quiet execution.
    window_sites: Tuple[NoiseSite, ...]
    #: All noise sites of the quiet execution.
    sites: Tuple[NoiseSite, ...]
    #: Quiet refill observables (normalized page names).
    refills: FrozenSet[Tuple[bool, int, int, str]]


def _page_names(
    layout: BenchmarkLayout, u_page: int, ssize: int
) -> Dict[int, str]:
    """Normalize concrete vpns so hypotheses compare structurally."""
    names = {layout.sbase: "a", alias_page(layout): "a_alias", u_page: "u"}
    if u_page == layout.sbase:
        names[u_page] = "u"  # u == a: the collision page is the secret.
    return names


def analyze_hypothesis(
    spec: HierarchySpec,
    vulnerability: Vulnerability,
    mapped: bool,
    layout: Optional[BenchmarkLayout] = None,
) -> HypothesisAnalysis:
    layout = layout_for_spec(spec) if layout is None else layout
    ssize = region_size_for(vulnerability)
    ops = expand_benchmark(vulnerability, layout, mapped, ssize)
    u_page = secret_page(vulnerability, layout, mapped, ssize)
    names = _page_names(layout, u_page, ssize)

    def execute(deviation: Optional[Tuple[int, int]]) -> _RunResult:
        machine = _Machine(spec, layout, ssize, names, deviation)
        return machine.run(ops)

    quiet = execute(None)
    envelope = {quiet.window_walks > 0}
    region = range(layout.sbase, layout.sbase + ssize)
    deviations = (
        (site.ordinal, d_prime)
        for site in quiet.sites
        # Redirects cache nothing the probe could test.
        if not site.redirect
        for d_prime in region
    )
    for deviation in deviations:
        envelope.add(execute(deviation).window_walks > 0)
        if len(envelope) == 2:
            # Both outcomes seen: no deviation can add a third, and
            # every other field comes from the quiet run.
            break
    return HypothesisAnalysis(
        mapped=mapped,
        quiet_walks=quiet.window_walks,
        quiet_slow=quiet.window_walks > 0,
        envelope=frozenset(envelope),
        window_sites=tuple(s for s in quiet.sites if s.window),
        sites=quiet.sites,
        refills=quiet.refills,
    )


# --------------------------------------------------------------------------
# Verdicts: rules R8-R11
# --------------------------------------------------------------------------

RULE_DETERMINISM = "R8-lifted-determinism"
RULE_NOISY_CORE_UNMASKED = "R9-noisy-core-unmasked"
RULE_NOISY_CORE_MASKED = "R9-noisy-core-masked"
RULE_ONE_SIDED_NOISE = "R10-one-sided-noise"
RULE_INDISTINGUISHABLE = "R11-indistinguishable"


@dataclass(frozen=True)
class RowVerdict:
    """One design's certificate entry for one Table 2 row."""

    vulnerability: Vulnerability
    defended: bool
    rule: str
    #: Witness (vulnerable rows) or proof-of-absence (defended rows).
    evidence: Dict[str, Any]
    #: Whether the refill observable separates the hypotheses -- the
    #: refill-channel variant of the row.
    refill_channel: bool

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pattern": self.vulnerability.pretty(),
            "strategy": self.vulnerability.strategy.value,
            "observation": self.vulnerability.observation.value,
            "defended": self.defended,
            "rule": self.rule,
            "refill_channel": self.refill_channel,
            "evidence": self.evidence,
        }


def _slowness(analysis: HypothesisAnalysis) -> str:
    return "slow" if analysis.quiet_slow else "fast"


def classify_row(
    spec: HierarchySpec,
    vulnerability: Vulnerability,
    layout: Optional[BenchmarkLayout] = None,
) -> RowVerdict:
    """Adjudicate one Table 2 row for one design (rules R8-R11)."""
    mapped = analyze_hypothesis(spec, vulnerability, True, layout)
    unmapped = analyze_hypothesis(spec, vulnerability, False, layout)
    refill_channel = mapped.refills != unmapped.refills
    witness_steps = [s.pretty() for s in vulnerability.pattern.steps]
    base_evidence: Dict[str, Any] = {
        "triple": witness_steps,
        "quiet_walks": {
            "mapped": mapped.quiet_walks,
            "unmapped": unmapped.quiet_walks,
        },
        "envelope": {
            "mapped": sorted(mapped.envelope),
            "unmapped": sorted(unmapped.envelope),
        },
    }

    if mapped.quiet_slow != unmapped.quiet_slow:
        fast_side = unmapped if mapped.quiet_slow else mapped
        if not fast_side.window_sites:
            evidence = dict(base_evidence)
            evidence["mechanism"] = (
                "step-3 walk counts separate deterministically: "
                f"mapped is {_slowness(mapped)}, unmapped is "
                f"{_slowness(unmapped)}, and the fast hypothesis meets no "
                "random-fill site inside the measured window"
            )
            return RowVerdict(
                vulnerability, False, RULE_DETERMINISM, evidence,
                refill_channel,
            )
        noisy_level = min(site.level for site in fast_side.window_sites)
        backing = spec.levels[noisy_level + 1 :]
        unmasked = bool(backing) and all(
            level.kind == "SA" for level in backing
        )
        evidence = dict(base_evidence)
        evidence["noisy_level"] = noisy_level
        evidence["backing"] = [level.kind for level in backing]
        if unmasked:
            evidence["mechanism"] = (
                "the core collision lives in a shared SA backing level; "
                "random-fill walks blur the fast hypothesis but the "
                "channel stays above the operating point's threshold"
            )
            return RowVerdict(
                vulnerability, False, RULE_NOISY_CORE_UNMASKED, evidence,
                refill_channel,
            )
        evidence["mechanism"] = (
            "random-fill walks inside the measured window mask the core "
            "signal: the backing levels are partitioned or randomized, so "
            "the measured capacity falls below the operating point's "
            "threshold"
        )
        return RowVerdict(
            vulnerability, True, RULE_NOISY_CORE_MASKED, evidence,
            refill_channel,
        )

    if mapped.envelope != unmapped.envelope:
        evidence = dict(base_evidence)
        evidence["mechanism"] = (
            "quiet timings agree but a single random fill can flip the "
            "step-3 outcome under exactly one hypothesis (one-sided noise)"
        )
        return RowVerdict(
            vulnerability, False, RULE_ONE_SIDED_NOISE, evidence,
            refill_channel,
        )

    evidence = dict(base_evidence)
    evidence["mechanism"] = (
        "proof of absence: quiet step-3 walk counts agree and every "
        "single-deviation outcome envelope is identical, so no execution "
        "the lifted machine admits separates the hypotheses"
    )
    return RowVerdict(
        vulnerability, True, RULE_INDISTINGUISHABLE, evidence,
        refill_channel,
    )


# --------------------------------------------------------------------------
# Certificates
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A design's full static security certificate."""

    spec: HierarchySpec
    layout: BenchmarkLayout
    verdicts: Tuple[RowVerdict, ...]

    @property
    def label(self) -> str:
        return self.spec.label()

    @property
    def defended(self) -> int:
        return sum(1 for verdict in self.verdicts if verdict.defended)

    def vulnerable_strategies(self) -> List[str]:
        return sorted(
            {
                verdict.vulnerability.strategy.value
                for verdict in self.verdicts
                if not verdict.defended
            }
        )

    @property
    def refill_channel(self) -> bool:
        return any(verdict.refill_channel for verdict in self.verdicts)

    def verdict_for(self, vulnerability: Vulnerability) -> RowVerdict:
        for verdict in self.verdicts:
            if verdict.vulnerability == vulnerability:
                return verdict
        raise KeyError(vulnerability.pretty())

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema": CERTIFICATE_SCHEMA,
            "design": self.label,
            "spec": self.spec.to_dict(),
            "layout": {
                "nsets": self.layout.nsets,
                "nways": self.layout.nways,
                "prime_ways_victim": self.layout.prime_ways_victim,
                "prime_ways_attacker": self.layout.prime_ways_attacker,
            },
            "operating_point": {
                "trials_per_behaviour": OPERATING_POINT_TRIALS,
                "note": (
                    "rule R9 is calibrated to the hierarchy sweep's "
                    "sample-size-aware defends() threshold at this trial "
                    "count"
                ),
            },
            "pwc_neutral": True,
            "defended": self.defended,
            "total_rows": len(self.verdicts),
            "vulnerable_strategies": self.vulnerable_strategies(),
            "refill_channel": self.refill_channel,
            "verdicts": [verdict.to_dict() for verdict in self.verdicts],
        }


def certify(
    spec: SpecLike, layout: Optional[BenchmarkLayout] = None
) -> Certificate:
    """Certify one hierarchy: all 24 Table 2 rows, statically."""
    spec = coerce_spec(spec)
    layout = layout_for_spec(spec) if layout is None else layout
    verdicts = tuple(
        classify_row(spec, vulnerability, layout)
        for vulnerability in table2_vulnerabilities()
    )
    return Certificate(spec=spec, layout=layout, verdicts=verdicts)


def certify_all(specs: Iterable[SpecLike]) -> List[Certificate]:
    """:func:`certify` each spec, deriving verdicts once per level stack.

    A verdict reads only the spec's levels and the layout -- never its
    page-walk cache or its name -- so specs sharing both (a design and
    its PWC twin) share one set of verdicts, each in its own
    :class:`Certificate`.
    """
    verdicts: Dict[tuple, Tuple[RowVerdict, ...]] = {}
    certificates = []
    for spec in specs:
        spec = coerce_spec(spec)
        layout = layout_for_spec(spec)
        stack = (spec.levels, layout)
        if stack in verdicts:
            certificate = Certificate(spec, layout, verdicts[stack])
        else:
            certificate = certify(spec, layout)
            verdicts[stack] = certificate.verdicts
        certificates.append(certificate)
    return certificates


def format_certificate(certificate: Certificate) -> str:
    """The human-readable certificate (one line per Table 2 row)."""
    spec = certificate.spec
    lines = [
        f"static security certificate: {certificate.label}",
        "  levels: "
        + ", ".join(
            f"L{i + 1} {level.kind} {level.sets}x{level.ways}"
            for i, level in enumerate(spec.levels)
        )
        + (f", PWC {spec.pwc.entries} entries (verdict-neutral)"
           if spec.pwc else ""),
        f"  defended: {certificate.defended}/{len(certificate.verdicts)}"
        + (
            "   vulnerable strategies: "
            + ", ".join(certificate.vulnerable_strategies())
            if certificate.vulnerable_strategies()
            else "   vulnerable strategies: -"
        ),
        f"  refill channel: {'yes' if certificate.refill_channel else 'no'}",
        "",
        f"{'vulnerability':34} {'verdict':>10}  {'rule':26} refill",
        "-" * 84,
    ]
    for verdict in certificate.verdicts:
        lines.append(
            f"{verdict.vulnerability.pretty():34} "
            f"{'defended' if verdict.defended else 'VULNERABLE':>10}  "
            f"{verdict.rule:26} "
            f"{'yes' if verdict.refill_channel else 'no'}"
        )
    return "\n".join(lines)
