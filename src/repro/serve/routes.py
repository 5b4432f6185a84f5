"""Route table and handlers for the v1 API.

=======================  ======================================================
``POST /v1/jobs``        submit a spec; 202 queued / 200 deduped or cached
``GET /v1/jobs``         list known jobs (most recent first)
``GET /v1/jobs/{id}``    job status + per-cell progress from the JSONL log
``GET /v1/results/{h}``  the finished result document, verified on read
``GET /v1/health``       liveness + a tiny state summary
``GET /v1/metrics``      counters, gauges, cache/store stats, quota usage
=======================  ======================================================

Handlers are small: quota admission and spec parsing happen here, the
actual work lives in :class:`~repro.serve.jobs.JobManager`.
"""

from __future__ import annotations

import asyncio
from typing import Any, Callable, Dict, List, Tuple

from .http import (
    HttpError,
    Request,
    Response,
    match_route,
    method_not_allowed,
    not_found,
)
from .jobs import JobManager, parse_spec
from .metrics import ServiceMetrics
from .quotas import QuotaRegistry
from .store import ResultStore, is_content_hash

Handler = Callable[..., Any]


class Router:
    """Literal-segment routing with ``{capture}`` placeholders."""

    def __init__(self) -> None:
        self._routes: List[Tuple[str, str, Handler]] = []

    def add(self, method: str, pattern: str, handler: Handler) -> None:
        self._routes.append((method.upper(), pattern, handler))

    def resolve(self, method: str, path: str) -> Tuple[Handler, Dict[str, str]]:
        allowed: List[str] = []
        for route_method, pattern, handler in self._routes:
            captures = match_route(pattern, path)
            if captures is None:
                continue
            if route_method == method:
                return handler, captures
            allowed.append(route_method)
        if allowed:
            raise method_not_allowed(method, tuple(allowed))
        raise not_found(path)


class ApiRoutes:
    """The v1 handlers, bound to the service's collaborators."""

    def __init__(
        self,
        manager: JobManager,
        store: ResultStore,
        metrics: ServiceMetrics,
        quotas: QuotaRegistry,
    ) -> None:
        self.manager = manager
        self.store = store
        self.metrics = metrics
        self.quotas = quotas

    def router(self) -> Router:
        router = Router()
        router.add("POST", "/v1/jobs", self.submit_job)
        router.add("GET", "/v1/jobs", self.list_jobs)
        router.add("GET", "/v1/jobs/{job_id}", self.job_status)
        router.add("GET", "/v1/results/{content_hash}", self.result)
        router.add("GET", "/v1/health", self.health)
        router.add("GET", "/v1/metrics", self.metrics_snapshot)
        return router

    # -- handlers ------------------------------------------------------------------

    def submit_job(self, request: Request) -> Response:
        payload = request.json()
        client = request.client_id()
        if isinstance(payload, dict) and isinstance(payload.get("client"), str):
            client = payload["client"]
        admitted, retry_after = self.quotas.admit(
            client, asyncio.get_running_loop().time()
        )
        if not admitted:
            self.metrics.quota_rejections += 1
            raise HttpError(
                429,
                "quota-exhausted",
                f"client {client!r} is over its submission quota",
                headers={"Retry-After": f"{max(1, round(retry_after))}"},
            )
        spec = parse_spec(payload, default_client=client)
        job, disposition = self.manager.submit(spec)
        body = {
            "job_id": job.id,
            "state": job.state,
            "content_hash": job.content_hash,
            "disposition": disposition,
            "cells": len(job.units),
            "status_url": f"/v1/jobs/{job.id}",
        }
        if job.result_sha256 is not None:
            body["result_sha256"] = job.result_sha256
            body["result_url"] = f"/v1/results/{job.content_hash}"
        status = 202 if disposition == "queued" else 200
        return Response(status=status, payload=body)

    def list_jobs(self, request: Request) -> Response:
        try:
            limit = int(request.query.get("limit", "50"))
        except ValueError:
            raise HttpError(400, "bad-request", "'limit' must be an integer") from None
        jobs = list(self.manager.jobs.values())[-max(1, limit):]
        return Response(
            payload={
                "jobs": [
                    job.status_dict(progress_events=0)
                    for job in reversed(jobs)
                ]
            }
        )

    def job_status(self, request: Request, job_id: str) -> Response:
        job = self.manager.jobs.get(job_id)
        if job is None:
            raise not_found(f"/v1/jobs/{job_id}")
        return Response(payload=job.status_dict())

    def result(self, request: Request, content_hash: str) -> Response:
        if not is_content_hash(content_hash):
            raise HttpError(
                400, "bad-request",
                "result keys are 64-char lowercase hex SHA-256 hashes",
            )
        stored = self.store.get(content_hash)
        if stored is None:
            raise HttpError(
                404, "not-found",
                f"no result stored under {content_hash}; submit the spec"
                " to compute it",
            )
        payload, digest = stored
        return Response(
            body=payload,
            content_type="application/json",
            headers={"X-Repro-Sha256": digest},
        )

    def health(self, request: Request) -> Response:
        return Response(
            payload={
                "status": "ok",
                "jobs": len(self.manager.jobs),
                "inflight": len(self.manager.inflight),
                "queue_depth": self.manager.queue_depth(),
            }
        )

    def metrics_snapshot(self, request: Request) -> Response:
        snapshot = self.metrics.snapshot()
        snapshot["cell_cache"] = (
            self.manager.cache.stats.as_dict()
            if self.manager.cache is not None
            else None
        )
        snapshot["result_store"] = self.store.stats.as_dict()
        snapshot["quota"] = {
            "enabled": self.quotas.enabled,
            "rate": self.quotas.rate,
            "burst": self.quotas.burst,
            "clients": self.quotas.usage(),
        }
        return Response(payload=snapshot)


def make_router(
    manager: JobManager,
    store: ResultStore,
    metrics: ServiceMetrics,
    quotas: QuotaRegistry,
) -> Tuple[Router, ApiRoutes]:
    routes = ApiRoutes(manager, store, metrics, quotas)
    return routes.router(), routes


__all__ = ["ApiRoutes", "Router", "make_router"]
