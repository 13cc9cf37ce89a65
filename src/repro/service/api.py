"""The analysis service: ``atcd api`` — jobs over JSON/HTTP.

One :class:`ServiceServer` fronts a shared work queue: clients POST
batches of analysis requests and drive the resulting job through the
state machine in :mod:`repro.service.jobs`, while ordinary ``atcd dist
worker`` processes (local or remote, attached to the same queue and a
shared result store) execute the tasks.  The service itself computes
nothing — it validates at the edge, admits against quotas, and translates
job state; every durable fact lives in the queue.

Wire schema (all bodies JSON; errors are
``{"ok": false, "error": str, "kind": str, ...}``, and body limits,
draining, 503-on-close and the 500 envelope are the shared edge's, see
:mod:`repro.net.edge`):

``GET /ping``
    Liveness, unauthenticated: ``{"server": "atcd-service",
    "service_version": 1}``.
``POST /v1/jobs``
    Body ``{"model": <serialized tree>, "requests": [<request>...],
    "name"?: str}``.  Fail-fast validated (400 with ``field``/``index``
    on the first offending request), quota-checked (429 with
    ``retry_after_seconds`` and a ``Retry-After`` header), then enqueued:
    202 with the job's status document.
``GET /v1/jobs``
    All of the calling tenant's jobs (status documents).
``GET /v1/jobs/<id>``
    One job's status: state, per-state task counts, completion count.
``GET /v1/jobs/<id>/results``
    Status plus per-request rows ``{"index", "state", "result", "error"}``
    in submission order (results present for completed tasks only).
``GET /v1/jobs/<id>/stream``
    NDJSON: one ``{"event": "result", "index", "result"}`` line per
    request *as workers complete them*, then one terminal
    ``{"event": "end", "state", "job"}`` line.  The response carries no
    Content-Length and closes the connection when done — a plain HTTP
    client (or ``curl -N``) reads results live.
``POST /v1/jobs/<id>/cancel``
    Drive the job to ``cancelled``: pending tasks are withdrawn, running
    ones finish their attempt.  Terminal jobs are returned unchanged.

Authentication: every ``/v1`` request carries the tenant's API key in
``X-Api-Key``.  A missing key is 401, an unknown key 403 — both
constant-time (:meth:`TenantRegistry.authenticate` compares against every
registered key).  Job visibility is tenant-scoped by construction: lookup
keys embed the authenticated tenant's name, so another tenant's job id is
simply not found (404), indistinguishable from a nonexistent one.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Any, Callable, Dict, Optional, Set

from ..distributed.queue import QueueError, TaskState, WorkQueue
from ..engine.store import StoreError
from ..net.accesslog import AccessLog
from ..net.edge import JsonHandler, JsonServer
from ..obs import families as obs_families
from ..obs.promtext import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..obs.scrape import render_fleet_metrics
from .jobs import JobError, JobManager, JobValidationError, validate_batch
from .quotas import QuotaExceeded, QuotaManager
from .tenants import API_KEY_HEADER, Tenant, TenantRegistry

__all__ = ["SERVICE_NAME", "SERVICE_VERSION", "ServiceServer"]

#: The ``server`` field of ``GET /ping`` — distinguishes the service from
#: the broker (and from arbitrary HTTP servers) during probes.
SERVICE_NAME = "atcd-service"

#: Version of the service wire schema; bump on incompatible change.
SERVICE_VERSION = 1

_UNFINISHED = (TaskState.PENDING.value, TaskState.RUNNING.value)


def _route_template(path: str) -> str:
    """Collapse one request path to a bounded-cardinality route label.

    Job ids are per-job unique and must never become label values, so the
    ``/v1/jobs/...`` shapes collapse to ``{id}`` templates; anything off
    the wire schema is just ``other``.
    """
    if path in ("/ping", "/metrics", "/v1/jobs"):
        return path
    parts = path.strip("/").split("/")
    if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
        return "/v1/jobs/{id}"
    if (
        len(parts) == 4
        and parts[:2] == ["v1", "jobs"]
        and parts[3] in ("results", "stream", "cancel")
    ):
        return f"/v1/jobs/{{id}}/{parts[3]}"
    return "other"


class _ServiceHandler(JsonHandler):
    """One request: authenticate, admit, dispatch, reply JSON."""

    server_version = f"{SERVICE_NAME}/{SERVICE_VERSION}"
    route_template = staticmethod(_route_template)

    def _authenticate(self) -> Optional[Tenant]:
        """The calling tenant, or ``None`` after replying 401/403."""
        presented = self.headers.get(API_KEY_HEADER)
        if not presented:
            self._reply_error(
                401,
                f"missing api key: pass the {API_KEY_HEADER} header",
                "unauthorized",
            )
            return None
        tenant = self.owner.tenants.authenticate(presented)
        if tenant is None:
            self._reply_error(403, "unknown api key", "forbidden")
            return None
        self._tenant = tenant.name
        return tenant

    def _handle_get(self) -> None:
        if self.path == "/ping":
            self._reply(200, {
                "ok": True,
                "server": SERVICE_NAME,
                "service_version": SERVICE_VERSION,
            })
            return
        if self.path == "/metrics":
            # Operator-facing like /ping, so it shares /ping's (open) auth
            # posture: per-tenant API keys authenticate *tenants*, and a
            # fleet-wide scrape belongs to no one tenant.
            self._reply_text(
                200, self.owner.metrics_body(), PROMETHEUS_CONTENT_TYPE
            )
            return
        tenant = self._authenticate()
        if tenant is None:
            return
        parts = self.path.strip("/").split("/")
        jobs = self.owner.jobs
        try:
            if parts == ["v1", "jobs"]:
                self._reply(200, {
                    "ok": True, "jobs": jobs.list_jobs(tenant.name),
                })
                return
            if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
                status = jobs.status(tenant.name, parts[2])
                if status is None:
                    self._reply_job_not_found(parts[2])
                    return
                self._reply(200, {"ok": True, "job": status})
                return
            if len(parts) == 4 and parts[:2] == ["v1", "jobs"]:
                job_id, verb = parts[2], parts[3]
                if verb == "results":
                    document = jobs.results(tenant.name, job_id)
                    if document is None:
                        self._reply_job_not_found(job_id)
                        return
                    self._reply(200, {"ok": True, **document})
                    return
                if verb == "stream":
                    self._stream_job(tenant, job_id)
                    return
        except (QueueError, StoreError) as error:
            self._reply_backend_error(error)
            return
        self._reply_unknown_endpoint()

    def _handle_post(self) -> None:
        tenant = self._authenticate()
        if tenant is None:
            return
        parts = self.path.strip("/").split("/")
        try:
            if parts == ["v1", "jobs"]:
                self._submit_job(tenant)
                return
            if (
                len(parts) == 4
                and parts[:2] == ["v1", "jobs"]
                and parts[3] == "cancel"
            ):
                status = self.owner.jobs.cancel(tenant.name, parts[2])
                if status is None:
                    self._reply_job_not_found(parts[2])
                    return
                self._reply(200, {"ok": True, "job": status})
                return
        except (QueueError, StoreError) as error:
            self._reply_backend_error(error)
            return
        self._reply_unknown_endpoint()

    def _reply_job_not_found(self, job_id: str) -> None:
        self._reply_error(
            404, f"no job {job_id!r} for this tenant", "not-found"
        )

    def _reply_backend_error(self, error: Exception) -> None:
        """A queue/store failure under a request: 503, the client's retry
        path — the service's backend being briefly unreachable is not a
        client error."""
        self._reply_error(503, f"backend unavailable: {error}", "unavailable")

    # ------------------------------------------------------------------ #
    # endpoints
    # ------------------------------------------------------------------ #
    def _submit_job(self, tenant: Tenant) -> None:
        service = self.owner
        args = self._read_body()
        if args is None:
            return
        unknown = set(args) - {"model", "requests", "name"}
        if unknown:
            self._reply_error(
                400, f"unknown job fields: {sorted(unknown)!r}", "validation",
            )
            return
        name = args.get("name")
        if name is not None and not isinstance(name, str):
            self._reply_error(
                400, "the 'name' field must be a string", "validation",
                field="name",
            )
            return
        requests = args.get("requests")
        batch_size = len(requests) if isinstance(requests, list) else 0
        try:
            # Validation runs before admission: validating is cheap, no
            # task is enqueued either way, and the honest tenant gets the
            # more useful error.  The rate bucket must only be charged
            # for batches that are actually admitted, hence the order:
            # validate, then admit, then enqueue.
            validate_batch(
                args.get("model"), requests, service.jobs.max_requests
            )
            service.quotas.admit(
                tenant, batch_size, service.jobs.in_flight(tenant.name)
            )
            status = service.jobs.submit(
                tenant.name, args["model"], requests, name=name
            )
        except JobValidationError as error:
            extra: Dict[str, Any] = {}
            if error.field is not None:
                extra["field"] = error.field
            if error.index is not None:
                extra["index"] = error.index
            self._reply_error(400, str(error), "validation", **extra)
            return
        except QuotaExceeded as error:
            # error.kind is "quota" or "rate-limit" — a closed set, so it
            # is safe as a label value.
            obs_families.service_rejections_total().inc(
                tenant=tenant.name, kind=error.kind
            )
            headers = {}
            extra = {}
            if error.retry_after_seconds is not None:
                headers["Retry-After"] = str(
                    max(1, int(error.retry_after_seconds + 0.999))
                )
                extra["retry_after_seconds"] = round(
                    error.retry_after_seconds, 3
                )
            self._reply_error(
                429, str(error), error.kind, headers=headers, **extra
            )
            return
        except JobError as error:
            self._reply_error(400, str(error), "job-error")
            return
        self._reply(202, {"ok": True, "job": status})

    def _stream_job(self, tenant: Tenant, job_id: str) -> None:
        """NDJSON: per-request results as they complete, then an end line.

        The response is close-delimited (no Content-Length, ``Connection:
        close``) — the one framing a streaming body can use over plain
        ``http.server``.  Results stream in completion order; the terminal
        line carries the job's final state and status document.

        The job is read whole once; after that the stream waits on
        :meth:`~repro.distributed.queue.WorkQueue.wait_finished`, which
        wakes on each completion and carries no payloads.  The job is read
        again only when every task has finished, when a task died or was
        cancelled, or when a wait times out — the read that notices a
        cancel, the stream deadline or a closing service.
        """
        service = self.owner
        jobs = service.jobs
        # The first read doubles as the 404.
        document = jobs.results(tenant.name, job_id)
        if document is None:
            self._reply_job_not_found(job_id)
            return
        self._start_reply(
            200, {"Content-Type": "application/x-ndjson"}, close=True
        )

        def emit(document: Dict[str, Any]) -> None:
            self.wfile.write(
                json.dumps(document, sort_keys=True).encode("utf-8") + b"\n"
            )
            self.wfile.flush()

        def emit_result(index: int, result: Optional[Dict[str, Any]]) -> None:
            if index not in emitted and result is not None:
                emitted.add(index)
                emit({"event": "result", "index": index, "result": result})

        emitted: Set[int] = set()
        index_of = {row["task_id"]: row["index"] for row in document["results"]}
        finished: Set[str] = set()  # task ids known to be done/dead/cancelled
        deadline = time.monotonic() + service.stream_timeout_seconds
        try:
            while True:
                status = document["job"]
                for row in document["results"]:
                    emit_result(row["index"], row["result"])
                    if row["state"] not in _UNFINISHED:
                        finished.add(row["task_id"])
                if status["state"] in ("done", "failed", "cancelled"):
                    emit({"event": "end", "state": status["state"],
                          "job": status})
                    return
                if time.monotonic() >= deadline:
                    emit({"event": "timeout", "state": status["state"],
                          "job": status})
                    return
                if service.closing:
                    emit({"event": "error",
                          "error": "service is shutting down"})
                    return
                if len(finished) == len(index_of):
                    # Every task finished, yet the job is not terminal:
                    # its tasks were changed outside the service.  Nothing
                    # will wake a wait, so look again a poll later.
                    time.sleep(service.poll_seconds)
                while len(finished) < len(index_of):
                    rows = service.queue.wait_finished(
                        list(index_of), finished, service.poll_seconds
                    )
                    for row in rows:
                        finished.add(row.task_id)
                        emit_result(index_of[row.task_id], row.result)
                    if (
                        not rows
                        or any(row.state is not TaskState.DONE for row in rows)
                        or time.monotonic() >= deadline
                        or service.closing
                    ):
                        break
                document = jobs.results(tenant.name, job_id)
                if document is None:
                    emit({"event": "error", "error": "job disappeared"})
                    return
        except (OSError, ValueError):
            # The client went away mid-stream; nothing to clean up — job
            # progress lives in the queue, not in this connection.  (A
            # queue closed under a shutting-down service lands here too.)
            return


class ServiceServer(JsonServer):
    """Serve the multi-tenant analysis API over one work queue.

    Parameters
    ----------
    queue:
        The shared :class:`~repro.distributed.queue.WorkQueue` instance
        (local sqlite or an HTTP client).  The server owns it and closes
        it on :meth:`close`.
    tenants:
        The :class:`~repro.service.tenants.TenantRegistry` to
        authenticate against.
    host / port:
        Bind address; port 0 picks a free port.
    max_attempts / max_requests:
        Task retry budget and largest accepted batch (forwarded to
        :class:`JobManager`).
    poll_seconds / stream_timeout_seconds:
        Streaming endpoint tuning: the longest one wait for a completion
        lasts before the stream re-reads its job (to notice a cancel, its
        deadline or a closing service), and the hard cap on one streaming
        response's lifetime.
    access_log:
        Optional :class:`~repro.net.accesslog.AccessLog`; the CLI wires
        this to stderr by default — a public surface should not be dark.
    verbose:
        Log one line per request via ``http.server`` (default quiet; the
        access log is the structured alternative).
    clock:
        Injectable time source (descriptor timestamps, rate buckets).

    Lifecycle (``url``, ``start``, ``serve_forever``, ``close``, context
    manager) is :class:`~repro.net.edge.JsonServer`'s; :meth:`close`
    also closes the queue.
    """

    label = "service"
    handler_class = _ServiceHandler

    def __init__(
        self,
        queue: WorkQueue,
        tenants: TenantRegistry,
        host: str = "127.0.0.1",
        port: int = 0,
        max_attempts: int = 3,
        max_requests: int = 1000,
        poll_seconds: float = 0.2,
        stream_timeout_seconds: float = 300.0,
        access_log: Optional[AccessLog] = None,
        verbose: bool = False,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.queue = queue
        self.tenants = tenants
        self.jobs = JobManager(
            queue, max_attempts=max_attempts, max_requests=max_requests,
            clock=clock,
        )
        self.quotas = QuotaManager()
        self.poll_seconds = poll_seconds
        self.stream_timeout_seconds = stream_timeout_seconds
        super().__init__(host, port, verbose=verbose, access_log=access_log)

    def metrics_body(self) -> str:
        """The ``GET /metrics`` exposition body for this service.

        Merges the workers' published snapshots (found in the shared
        queue's metadata) under the service's own registry, so engine and
        worker metrics show up here even though the service itself never
        computes anything.
        """
        return render_fleet_metrics(queue=self.queue)

    def _release(self) -> None:
        with contextlib.suppress(Exception):
            self.queue.close()
