"""The serve-mix workload: a seeded request sequence against ``repro serve``.

The server runs as a subprocess (``python -m repro serve``) with fresh
state and cache directories.  Two client threads drive it closed-loop in
lockstep rounds: in each round both send one request and wait for its
verified answer, and the next round starts when both are done.  A
request is submit (``POST /v1/jobs``), status polls until the job is
done, and the result fetch; its latency runs from the submit to the
verified result bytes.  Four classes of request are mixed:

``novel``
    a new single-cell spec whose cell must simulate: a Table 4 row at
    :data:`TABLE4_TRIALS` trials, or a Figure 7 grid cell of an RSA-only
    scenario (the cheapest Figure 7 cells) -- small specs of about the
    same cost, made distinct by their filters.
``overlap``
    a new spec hash over two cells an earlier round computed, so every
    cell comes from the cell cache.
``repeat``
    an already-finished spec, answered from the result store.
``twin``
    both clients submit the same novel Figure 7 cell at once, so the
    second submission attaches to the first job.

No record of real serve traffic exists, so the mix is synthetic and
weighs the classes alike: each class is a quarter of the pass, and the
novel class splits evenly between its two spec kinds (see
:data:`PER_CLASS`).

The seed fixes the class order and which spec each request picks; a
request only depends on rounds before its own, so the plan is the same
on every run with that seed.  Every answer is checked: its SHA-256 must
match ``X-Repro-Sha256`` and the job's digest, a repeated spec must
answer byte-identically to its first answer, Figure 7 cells must carry
their committed ``results/fig7_full.csv`` counters, and no cell or job
may fail.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import os
import random
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from procs import vm_hwm_kb

#: Requests per class in one pass.  Four equal classes of an even size
#: (twins come in rounds of two) with at least 100 requests in all, so
#: that request_p90_ms has ten samples beyond it: 4 x 26 = 104.
PER_CLASS = 26
#: Novel requests of each spec kind, Table 4 rows and Figure 7 cells.
NOVEL_TABLE4 = NOVEL_FIG7 = PER_CLASS // 2
TWIN_ROUNDS = PER_CLASS // 2
#: Trial count of every Table 4 spec.  At 100 trials a row costs about
#: what an RSA-only Figure 7 cell costs (a median of 26 against 30 ms,
#: simulated in one process on a 2-vCPU Xeon), so the novel class has
#: one cost mode and novel_p50_ms does not flip between two.
TABLE4_TRIALS = 100
#: Status poll interval while a job runs.
POLL_S = 0.01
REQUEST_TIMEOUT_S = 60.0
HEALTH_TIMEOUT_S = 60.0


class MixError(Exception):
    """A request failed, or an answer did not check out."""


@dataclass(frozen=True)
class Spec:
    """One planned submission."""

    kind: str  # novel | overlap | repeat | twin
    experiment: str
    cells: Tuple[str, ...]

    @property
    def payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "experiment": self.experiment,
            "filters": [glob_literal(cell) for cell in self.cells],
        }
        if self.experiment == "table4":
            payload["trials"] = TABLE4_TRIALS
        return payload

    @property
    def identity(self) -> Tuple[str, Tuple[str, ...]]:
        return (self.experiment, self.cells)


@dataclass
class Answer:
    """One verified request."""

    kind: str
    identity: Tuple[str, Tuple[str, ...]]
    latency_ms: float
    submit_ms: float
    status_ms: List[float]
    result_ms: float
    queue_wait_ms: Optional[float]
    exec_ms: Optional[float]
    body: bytes = field(repr=False)


def glob_literal(text: str) -> str:
    """A filter glob that matches exactly ``text``."""
    return "".join(f"[{char}]" if char in "*?[" else char for char in text)


def cell_pools() -> Tuple[List[str], List[str]]:
    """(Table 4 row idents, RSA-only Figure 7 grid idents), registry order."""
    from repro.runner.experiments import DEFAULT_OPTIONS
    from repro.runner.registry import ensure_default_experiments, expand_units

    ensure_default_experiments()
    table4 = [unit.ident for unit in expand_units(DEFAULT_OPTIONS, ["table4"])]
    fig7 = [
        unit.ident
        for unit in expand_units(
            DEFAULT_OPTIONS, ["fig7/grid/*/RSA/*", "fig7/grid/*/SecRSA/*"]
        )
    ]
    return table4, fig7


def plan(seed: int, table4: List[str], fig7: List[str]) -> List[List[Spec]]:
    """The pass's rounds: two specs each, the same spec twice for twins."""
    rng = random.Random(seed)
    novel = [Spec("novel", "table4", (cell,))
             for cell in rng.sample(table4, NOVEL_TABLE4)]
    picked = rng.sample(fig7, NOVEL_FIG7 + TWIN_ROUNDS)
    novel += [Spec("novel", "fig7", (cell,)) for cell in picked[:NOVEL_FIG7]]
    rng.shuffle(novel)
    twins = [Spec("twin", "fig7", (cell,)) for cell in picked[NOVEL_FIG7:]]

    kinds = ["novel"] * len(novel) + ["overlap", "repeat"] * PER_CLASS
    rng.shuffle(kinds)
    slots = [kinds[index:index + 2] for index in range(0, len(kinds), 2)]
    for position in sorted(
        rng.sample(range(1, len(slots) + 1), TWIN_ROUNDS), reverse=True
    ):
        slots.insert(position, ["twin", "twin"])

    finished: List[Spec] = []
    computed: Dict[str, List[str]] = {"table4": [], "fig7": []}
    used = set()

    def overlap() -> Optional[Spec]:
        unused = [
            (experiment, pair)
            for experiment in sorted(computed)
            for pair in itertools.combinations(sorted(computed[experiment]), 2)
            if (experiment, pair) not in used
        ]
        if not unused:
            return None
        experiment, pair = rng.choice(unused)
        used.add((experiment, pair))
        return Spec("overlap", experiment, pair)

    def repeat() -> Optional[Spec]:
        if not finished:
            return None
        spec = rng.choice(finished)
        return Spec("repeat", spec.experiment, spec.cells)

    rounds: List[List[Spec]] = []
    novel_iter, twin_iter = iter(novel), iter(twins)
    for index, kinds_here in enumerate(slots):
        if kinds_here == ["twin", "twin"]:
            spec = next(twin_iter)
            specs = [spec, spec]
        else:
            specs = []
            for slot, kind in enumerate(kinds_here):
                spec = overlap() if kind == "overlap" else (
                    repeat() if kind == "repeat" else None
                )
                if spec is None and kind != "novel":
                    # Too early for this class: trade places with the
                    # next novel request of a later round.
                    later = next(
                        (later_index, later_slot)
                        for later_index in range(index + 1, len(slots))
                        for later_slot, later_kind in enumerate(slots[later_index])
                        if later_kind == "novel"
                    )
                    slots[later[0]][later[1]] = kind
                    slots[index][slot] = "novel"
                if spec is None:
                    spec = next(novel_iter)
                specs.append(spec)
        rounds.append(specs)
        for spec in specs:
            if spec.kind in ("novel", "twin"):
                computed[spec.experiment].append(spec.cells[0])
            if spec.kind != "repeat" and spec not in finished:
                finished.append(spec)
    return rounds


# -- HTTP ------------------------------------------------------------------------


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def http(method: str, url: str, payload: Any = None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"} if data else {},
    )
    try:
        with urllib.request.urlopen(request, timeout=REQUEST_TIMEOUT_S) as response:
            return response.status, dict(response.headers), response.read()
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), error.read()


def ask(base: str, spec: Spec) -> Answer:
    """Submit one spec, wait for its job, fetch and verify the result."""
    began = time.perf_counter()
    status, _headers, body = http("POST", base + "/v1/jobs", spec.payload)
    submit_ms = (time.perf_counter() - began) * 1000
    if status not in (200, 202):
        raise MixError(f"{spec.kind} {spec.cells}: submit answered {status} {body!r}")
    job = json.loads(body)
    disposition = job["disposition"]
    polls: List[float] = []
    status_url = base + job["status_url"]
    if disposition != "cached":
        while job["state"] not in ("done", "failed"):
            if time.perf_counter() - began > REQUEST_TIMEOUT_S:
                raise MixError(f"{spec.kind} {spec.cells}: job never finished")
            time.sleep(POLL_S)
            polled = time.perf_counter()
            status, _headers, body = http("GET", status_url)
            polls.append((time.perf_counter() - polled) * 1000)
            if status != 200:
                raise MixError(f"status poll answered {status}")
            job = json.loads(body)
        if job["state"] == "failed" or job["cells"]["failed"]:
            raise MixError(f"{spec.kind} {spec.cells}: job failed: {job.get('error')}")
    fetched = time.perf_counter()
    status, headers, result = http("GET", base + job["result_url"])
    done = time.perf_counter()
    digest = hashlib.sha256(result).hexdigest()
    if status != 200 or digest != headers.get("X-Repro-Sha256") or (
        digest != job["result_sha256"]
    ):
        raise MixError(f"{spec.kind} {spec.cells}: result bytes fail their SHA-256")
    timed = disposition != "cached" and job.get("started") is not None
    return Answer(
        kind=spec.kind,
        identity=spec.identity,
        latency_ms=(done - began) * 1000,
        submit_ms=submit_ms,
        status_ms=polls,
        result_ms=(done - fetched) * 1000,
        queue_wait_ms=(job["started"] - job["created"]) * 1000 if timed else None,
        exec_ms=(job["finished"] - job["started"]) * 1000 if timed else None,
        body=result,
    )


# -- the server ------------------------------------------------------------------


class Server:
    """``repro serve`` as a subprocess with its own state and cache."""

    def __init__(self, root: Path, work: Path, traced_report: Optional[Path] = None) -> None:
        work.mkdir(parents=True, exist_ok=True)
        port = free_port()
        self.base = f"http://127.0.0.1:{port}"
        serve_args = [
            "serve", "--host", "127.0.0.1", "--port", str(port),
            "--state-dir", str(work / "state"),
            "--cache-dir", str(work / "cache"), "--quiet",
        ]
        if traced_report is None:
            command = [sys.executable, "-m", "repro", *serve_args]
        else:
            passes = Path(__file__).with_name("passes.py")
            command = [sys.executable, str(passes), "serve-traced",
                       str(traced_report), "--", *serve_args]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        self._log = (work / "server.log").open("wb")
        self.spawned = time.monotonic()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=self._log, stderr=self._log
        )
        try:
            self.healthy = self._wait_healthy()
        except BaseException:
            self.kill()
            raise

    def _wait_healthy(self) -> float:
        deadline = time.monotonic() + HEALTH_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise MixError(f"server exited early with {self.process.returncode}")
            try:
                status, _headers, _body = http("GET", self.base + "/v1/health")
            except OSError:
                status = 0
            if status == 200:
                return time.monotonic()
            time.sleep(0.01)
        raise MixError("server never became healthy")

    def stop(self) -> None:
        """SIGTERM and wait; a server that does not exit 0 fails the pass."""
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGTERM)
            code = self.process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            raise MixError("server did not stop within 30 s of SIGTERM") from None
        finally:
            self._log.close()
        if code != 0:
            raise MixError(f"server exited {code} on SIGTERM")

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
        self.process.wait(timeout=30)
        self._log.close()


def committed_fig7() -> Dict[Tuple[str, ...], Tuple[str, ...]]:
    """(tlb, config, scenario, rsa_runs, process) -> integer counters."""
    with open("results/fig7_full.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    return {tuple(row[:5]): tuple(row[5:9]) for row in rows}


def check_fig7_document(body: bytes, committed) -> None:
    document = json.loads(body)
    for cell in document["result"]:
        scenario = cell["scenario"]
        label = "SecRSA" if scenario["secure"] else "RSA"
        if scenario["spec"] is not None:
            label += "+" + scenario["spec"]["name"]
        for process, result in cell["results"].items():
            key = (cell["kind"], cell["config_label"], label,
                   str(cell["rsa_runs"]), process)
            counters = tuple(str(result[name]) for name in (
                "instructions", "cycles", "memory_accesses", "misses"))
            if committed.get(key) != counters:
                raise MixError(f"fig7 cell {key} differs from results/fig7_full.csv")


def run_pass(root: Path, work: Path, rounds: List[List[Spec]],
             traced_report: Optional[Path] = None) -> Dict[str, Any]:
    """Serve one planned request sequence; returns timings and checks."""
    server = Server(root, work, traced_report)
    try:
        answers: List[Answer] = []
        with ThreadPoolExecutor(max_workers=2) as clients:
            started = time.monotonic()
            for specs in rounds:
                futures = [clients.submit(ask, server.base, spec) for spec in specs]
                answers.extend(future.result() for future in futures)
            ended = time.monotonic()
        status, _headers, body = http("GET", server.base + "/v1/metrics")
        if status != 200:
            raise MixError(f"/v1/metrics answered {status}")
        metrics = json.loads(body)
        rss_kb = vm_hwm_kb(server.process.pid)
    except BaseException:
        server.kill()
        raise
    server.stop()

    counters = metrics["counters"]
    if counters["cells_failed"] or counters["jobs_failed"]:
        raise MixError(f"server counted failures: {counters}")
    first: Dict[Tuple[str, Tuple[str, ...]], bytes] = {}
    committed = committed_fig7()
    for answer in answers:
        if answer.identity not in first:
            first[answer.identity] = answer.body
            if answer.identity[0] == "fig7":
                check_fig7_document(answer.body, committed)
        elif answer.body != first[answer.identity]:
            raise MixError(f"{answer.kind} {answer.identity}: answer differs from the first")
    return {
        "setup_s": server.healthy - server.spawned,
        "start": started,
        "end": ended,
        "rss_kb": rss_kb,
        "answers": answers,
        "metrics": metrics,
    }


def setup_only(root: Path, work: Path) -> float:
    """Spawn a server, time it to healthy, stop it."""
    server = Server(root, work)
    server.stop()
    return server.healthy - server.spawned
