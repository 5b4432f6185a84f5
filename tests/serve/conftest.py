"""Fixtures for the service suite: a real server on a real socket.

The harness runs a :class:`repro.serve.ServeApp` on its own event loop
in a daemon thread, bound to port 0 (the OS picks), and the tests talk
to it over localhost with plain ``http.client`` -- the same wire a curl
user sees.  A toy experiment is registered for the duration of each
test and removed afterwards, so the global registry stays clean for the
rest of the suite.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any, Dict, Optional, Tuple

import http.client

import pytest

from repro.runner.registry import (
    COUNT_SERIES,
    FLAG,
    REGISTRY,
    Experiment,
    Kind,
    Option,
    register,
)
from repro.serve import ServeApp

#: One entry per toy-cell execution (thread-safe append), so tests can
#: count how many simulations actually ran.
RUN_CALLS = []
#: The name of the thread each toy-cell execution ran on.
RUN_THREADS = []
#: Toy cells running right now, and the most that ever ran at once.
CONCURRENCY = {"running": 0, "peak": 0}
_RUN_LOCK = threading.Lock()
#: A toy cell told to hold waits for this before it returns, so a test
#: can keep the service's one cell thread busy for as long as it needs.
HOLD = threading.Event()

#: A toy's cell sleep, in seconds.
DELAY = Kind(
    "a non-negative number",
    lambda value: isinstance(value, (int, float))
    and not isinstance(value, bool)
    and value >= 0,
)


class ServeToyExperiment(Experiment):
    """Squares its values; optionally sleeps, holds or fails, for test
    control."""

    declared_options = (
        # No values, no cells: the toy stays out of every other expansion.
        Option("serve_toy_values", [], Kind(
            "a list of positive integers",
            lambda value: value == [] or COUNT_SERIES.admits(value),
        )),
        Option("serve_toy_delay", 0.0, DELAY),
        Option("serve_toy_fail", False, FLAG),
        Option("serve_toy_hold", False, FLAG),
        # ``None``: the toy makes no certification claim.
        Option("serve_toy_certified", None, Kind(
            "a boolean or null",
            lambda value: value is None or isinstance(value, bool),
        )),
    )

    def units(self, options):
        return [
            self.unit(
                str(value),
                value=value,
                delay=options["serve_toy_delay"],
                fail=options["serve_toy_fail"],
                hold=options["serve_toy_hold"],
            )
            for value in options["serve_toy_values"]
        ]

    @staticmethod
    def run(params):
        with _RUN_LOCK:
            RUN_CALLS.append(params["value"])
            RUN_THREADS.append(threading.current_thread().name)
            CONCURRENCY["running"] += 1
            CONCURRENCY["peak"] = max(
                CONCURRENCY["peak"], CONCURRENCY["running"]
            )
        try:
            if params.get("fail"):
                raise RuntimeError(f"toy cell {params['value']} told to fail")
            if params.get("delay"):
                time.sleep(params["delay"])
            if params.get("hold") and not HOLD.wait(timeout=60):
                raise RuntimeError("toy cell held for over 60 s")
            return params["value"] ** 2
        finally:
            with _RUN_LOCK:
                CONCURRENCY["running"] -= 1

    def assemble(self, values, options):
        assembled = {"squares": list(values)}
        if options["serve_toy_certified"] is not None:
            # Mimic a certifying experiment (e.g. hierarchy_sweep): the
            # assembled payload carries a static/dynamic agreement flag.
            assembled["certified"] = options["serve_toy_certified"]
        return assembled


@pytest.fixture
def toy_experiment():
    register("serve-toy")(ServeToyExperiment)
    RUN_CALLS.clear()
    RUN_THREADS.clear()
    CONCURRENCY.update(running=0, peak=0)
    HOLD.clear()
    yield "serve-toy"
    REGISTRY.pop("serve-toy", None)


class ServeHarness:
    """A live server plus an ``http.client`` convenience wrapper."""

    def __init__(self, **app_kwargs: Any) -> None:
        app_kwargs.setdefault("port", 0)
        app_kwargs.setdefault("quiet", True)
        self.app = ServeApp(**app_kwargs)
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        await self.app.start()
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        self._ready.set()
        await self._stop.wait()
        await self.app.stop()

    def start(self) -> "ServeHarness":
        self._thread.start()
        if not self._ready.wait(timeout=15):
            raise RuntimeError("serve harness failed to start")
        return self

    def stop(self) -> None:
        if not self._thread.is_alive():  # Already stopped.
            return
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=15)
        if self._thread.is_alive():  # pragma: no cover - hung server
            raise RuntimeError("serve harness failed to stop")

    @property
    def port(self) -> int:
        return self.app.port

    def request(
        self,
        method: str,
        path: str,
        body: Any = None,
        headers: Optional[Dict[str, str]] = None,
        raw_body: Optional[bytes] = None,
    ) -> Tuple[int, Dict[str, str], bytes]:
        connection = http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=30
        )
        payload = raw_body
        send_headers = dict(headers or {})
        if body is not None:
            payload = json.dumps(body).encode()
            send_headers.setdefault("Content-Type", "application/json")
        try:
            connection.request(method, path, body=payload, headers=send_headers)
            response = connection.getresponse()
            data = response.read()
            return response.status, dict(response.getheaders()), data
        finally:
            connection.close()

    def request_json(self, *args: Any, **kwargs: Any):
        status, headers, data = self.request(*args, **kwargs)
        return status, headers, json.loads(data)

    def poll_job(self, status_url: str, timeout: float = 60.0) -> Dict[str, Any]:
        """Poll a job until it reaches a terminal state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _status, _headers, doc = self.request_json("GET", status_url)
            if doc["state"] in ("done", "failed"):
                return doc
            time.sleep(0.05)
        raise AssertionError(f"job at {status_url} never finished: {doc}")


@pytest.fixture
def serve_harness(tmp_path, toy_experiment):
    """Factory for live servers; everything started is stopped at teardown."""
    started = []

    def factory(**app_kwargs: Any) -> ServeHarness:
        app_kwargs.setdefault("state_dir", tmp_path / "serve-state")
        app_kwargs.setdefault("cache_dir", tmp_path / "cell-cache")
        harness = ServeHarness(**app_kwargs).start()
        started.append(harness)
        return harness

    yield factory
    HOLD.set()  # Stopping waits for the running cell: let a held one go.
    for harness in started:
        harness.stop()
