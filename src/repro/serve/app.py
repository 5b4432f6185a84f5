"""The service: wiring, connection handling, and lifecycle.

:class:`ServeApp` assembles the collaborators -- result store, cell
cache, quotas, metrics, the job manager (which owns the cell thread),
the router -- and runs an ``asyncio.start_server`` accept loop over the
hand-rolled HTTP layer.  One connection handles one request: parse,
route, render, close.  Handler exceptions become JSON error responses
(4xx for :class:`~repro.serve.http.HttpError`, 500 otherwise); the
accept loop itself never dies to a bad client.

``run()`` is the blocking entry point behind ``python -m repro serve``:
it installs SIGTERM/SIGINT handlers that resolve a stop future, stops
accepting connections, then *drains* -- in-flight jobs get up to
``drain_timeout`` seconds to finish before the dispatchers are torn
down -- and returns 0 on a clean shutdown, so process supervisors (and
the CI smoke script) can tell a graceful stop from a crash by exit code
alone.  Work that outlives the drain (or a plain SIGKILL) is not lost:
every queued job lives in the state dir's jobs journal until it reaches
a terminal state, and ``start()`` resumes the orphans (see
:meth:`repro.serve.jobs.JobManager.resume_pending`).
"""

from __future__ import annotations

import asyncio
import signal
import sys
import time
import traceback
from pathlib import Path
from typing import Optional, Union

from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache
from repro.runner.registry import ensure_default_experiments

from .http import HttpError, Response, error_response, read_request
from .jobs import JobManager
from .metrics import ServiceMetrics
from .quotas import QuotaRegistry
from .routes import make_router
from .store import ResultStore

#: Default service state location (result store, job telemetry logs).
DEFAULT_STATE_DIR = ".repro-serve"


class ServeApp:
    """One service instance (see module docstring)."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8321,
        state_dir: Union[Path, str] = DEFAULT_STATE_DIR,
        cache_dir: Union[Path, str, None] = None,
        use_cache: bool = True,
        dispatchers: int = 2,
        quota_rate: float = 0.0,
        quota_burst: float = 10.0,
        drain_timeout: float = 20.0,
        quiet: bool = False,
    ) -> None:
        self.host = host
        self.port = port
        self.state_dir = Path(state_dir)
        self.drain_timeout = drain_timeout
        self.quiet = quiet
        self.metrics = ServiceMetrics()
        self.quotas = QuotaRegistry(rate=quota_rate, burst=quota_burst)
        self.store = ResultStore(self.state_dir / "results")
        self.cache = (
            ResultCache(cache_dir if cache_dir is not None else DEFAULT_CACHE_DIR)
            if use_cache
            else None
        )
        self.manager = JobManager(
            store=self.store,
            metrics=self.metrics,
            cache=self.cache,
            state_dir=self.state_dir,
            dispatchers=dispatchers,
        )
        self.router, self.routes = make_router(
            self.manager, self.store, self.metrics, self.quotas
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -----------------------------------------------------------------

    async def start(self) -> None:
        """Bind the listener and start the job dispatchers.

        With ``port=0`` the OS picks a free port; ``self.port`` is
        updated to the bound one (the tests rely on this).
        """
        ensure_default_experiments()
        resumed = self.manager.resume_pending()
        if resumed:
            self._log(
                f"resumed {resumed} pending job(s) from the jobs journal"
            )
        await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        self._log(f"serving on http://{self.host}:{self.port}")

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.manager.stop()
        self._log("stopped")

    async def drain(self) -> None:
        """Stop accepting, then let in-flight jobs finish (bounded).

        The listener closes first so no new work arrives; queued and
        running jobs then get up to ``drain_timeout`` seconds to reach a
        terminal state.  Jobs still pending when the clock runs out stay
        journaled as queued, so the *next* start resumes them -- the
        timeout defers work, it never loses it.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.monotonic() + max(0.0, self.drain_timeout)
        while self.manager.inflight or self.manager.queue_depth():
            if time.monotonic() >= deadline:
                pending = (
                    len(self.manager.inflight) + self.manager.queue_depth()
                )
                self._log(
                    f"drain timed out with {pending} job(s) pending;"
                    " they stay journaled for the next start"
                )
                return
            await asyncio.sleep(0.05)
        self._log("drained all in-flight jobs")

    def _log(self, message: str) -> None:
        if not self.quiet:
            print(f"[repro.serve] {message}", file=sys.stderr, flush=True)

    # -- connection handling -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            response = await self._one_response(reader)
            if response is None:
                return
            writer.write(response.encode())
            await writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _one_response(
        self, reader: asyncio.StreamReader
    ) -> Optional[Response]:
        try:
            request = await read_request(reader)
        except HttpError as error:
            self.metrics.http_requests += 1
            self.metrics.http_errors += 1
            return error_response(error)
        if request is None:
            return None
        self.metrics.http_requests += 1
        try:
            handler, captures = self.router.resolve(
                request.method, request.path
            )
            result = handler(request, **captures)
            if asyncio.iscoroutine(result):
                result = await result
            return result
        except HttpError as error:
            self.metrics.http_errors += 1
            return error_response(error)
        except Exception:
            self.metrics.http_errors += 1
            self._log(
                "unhandled handler error:\n" + traceback.format_exc()
            )
            return error_response(
                HttpError(
                    500, "internal-error",
                    "unhandled error; see the server log",
                )
            )

    # -- blocking entry point ------------------------------------------------------

    def run(self) -> int:
        """Serve until SIGTERM/SIGINT; returns 0 on graceful shutdown."""
        return asyncio.run(self._run_until_signalled())

    async def _run_until_signalled(self) -> int:
        loop = asyncio.get_running_loop()
        stop = loop.create_future()

        def request_stop(signame: str) -> None:
            if not stop.done():
                self._log(f"received {signame}; shutting down")
                stop.set_result(signame)

        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, request_stop, signum.name
                )
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass  # non-Unix loops: Ctrl-C surfaces as KeyboardInterrupt
        await self.start()
        try:
            await stop
            await self.drain()
        except asyncio.CancelledError:  # pragma: no cover - loop teardown
            pass
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            await self.stop()
        return 0
