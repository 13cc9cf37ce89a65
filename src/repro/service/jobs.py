"""Jobs: batches of analysis requests driven through a state machine.

A *job* is what a tenant gets back from ``POST /v1/jobs``: one batch of
:class:`~repro.engine.AnalysisRequest` payloads against one model, sharded
into the shared :class:`~repro.distributed.queue.WorkQueue` (one task per
request) and tracked as a unit.  The job's state is *derived* from its
tasks' durable states — the queue is the single source of truth, so a
restarted service reports exactly where every job stands:

``queued``
    Submitted; no task has been claimed yet.
``running``
    At least one task was claimed (or finished) and none is dead.
``done``
    Every task completed; per-request results are available.
``failed``
    At least one task dead-lettered (its retry budget is spent).  The
    other tasks' results remain readable — a job fails loudly but keeps
    what it computed.
``cancelled``
    The tenant cancelled the job: pending tasks were withdrawn
    (:meth:`~repro.distributed.queue.WorkQueue.cancel_pending`); running
    tasks finish their attempt and their results are retained, but the
    job is terminal.

Tenancy is structural, not advisory: every job lives in queue metadata
under ``job:<tenant>:<job_id>`` and every lookup key includes the
*authenticated* tenant's name — tenant A asking for tenant B's job id
builds key ``job:A:<id>``, which does not exist.  There is no code path
that reads another tenant's keys.

Task payloads ride the existing worker wire format (``kind: "request"``)
with two service extensions workers already honor: ``store_namespace``
(tenant-isolated result caching) and a ``job`` stanza (job id, tenant,
request index) that makes every queue row attributable in operator
tooling.
"""

from __future__ import annotations

import json
import threading
import time
import uuid
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..distributed.queue import Task, TaskState, WorkQueue
from ..obs import families as obs_families
from ..obs.trace import inject_context
from ..obs.trace import span as trace_span

__all__ = [
    "JOB_STATES",
    "TERMINAL_STATES",
    "JobError",
    "JobValidationError",
    "JobManager",
    "job_meta_key",
    "tenant_index_key",
    "validate_batch",
]

#: Every state a job can report, in lifecycle order.
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")

#: States in which a job accepts no further transitions.
TERMINAL_STATES = ("done", "failed", "cancelled")


def job_meta_key(tenant: str, job_id: str) -> str:
    """Queue-meta key of one job's descriptor (tenant-namespaced)."""
    return f"job:{tenant}:{job_id}"


def tenant_index_key(tenant: str) -> str:
    """Queue-meta key of one tenant's job-id index."""
    return f"jobs:{tenant}"


class JobError(ValueError):
    """A job operation is invalid (not a transport or queue failure)."""


class JobValidationError(JobError):
    """A submitted batch failed edge validation and was never enqueued.

    ``index`` names the offending request (``None`` for batch- or
    model-level problems); ``field`` names the offending part of the
    submission document.  The API layer serializes both into the
    structured 400 body.
    """

    def __init__(
        self,
        message: str,
        field: Optional[str] = None,
        index: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.field = field
        self.index = index


def validate_batch(
    model_payload: Any, request_payloads: Any, max_requests: int
) -> None:
    """Fail-fast edge validation: never enqueue a batch a worker would reject.

    Reuses the engine's own validators — request parsing
    (:meth:`AnalysisRequest.from_dict`), problem-parameter checks
    (:meth:`AnalysisRequest.validate`), Table I backend resolution and
    backend option validation — so edge acceptance and worker acceptance
    cannot drift apart.
    """
    from ..attacktree import serialization
    from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
    from ..engine import AnalysisRequest, AnalysisSession

    if not isinstance(model_payload, dict):
        raise JobValidationError(
            "the 'model' field must be a serialized attack-defense tree "
            "object", field="model",
        )
    if not isinstance(request_payloads, list) or not request_payloads:
        raise JobValidationError(
            "the 'requests' field must be a non-empty list of analysis "
            "requests", field="requests",
        )
    if len(request_payloads) > max_requests:
        raise JobValidationError(
            f"batch has {len(request_payloads)} requests; this service "
            f"accepts at most {max_requests} per job",
            field="requests",
        )
    try:
        model = serialization.from_dict(model_payload)
    except (ValueError, TypeError, KeyError) as error:
        raise JobValidationError(
            f"model does not deserialize: {error}", field="model"
        ) from error
    if not isinstance(model, (CostDamageAT, CostDamageProbAT)):
        raise JobValidationError(
            "model lacks cost/damage attributes; serialize a CostDamageAT "
            "or CostDamageProbAT", field="model",
        )
    session = AnalysisSession(model)
    for index, entry in enumerate(request_payloads):
        if not isinstance(entry, dict):
            raise JobValidationError(
                f"requests[{index}] must be an object", field="requests",
                index=index,
            )
        try:
            request = AnalysisRequest.from_dict(entry)
            request.validate()
            session.resolve(request.problem, backend=request.backend)
        except (ValueError, TypeError) as error:
            raise JobValidationError(
                f"requests[{index}]: {error}", field="requests", index=index
            ) from error


def _derive_state(descriptor: Dict[str, Any], tasks: List[Task]) -> str:
    """The job state machine, evaluated over the tasks' durable states."""
    if descriptor.get("cancelled"):
        return "cancelled"
    states = [task.state for task in tasks]
    if any(state is TaskState.DEAD for state in states):
        return "failed"
    if states and all(state is TaskState.DONE for state in states):
        return "done"
    if all(
        task.state is TaskState.PENDING and task.attempts == 0
        for task in tasks
    ):
        return "queued"
    return "running"


class JobManager:
    """Submit, track, enumerate and cancel jobs on one work queue.

    The manager owns no state of its own — descriptors live in queue
    metadata, progress lives on the task rows — so any number of manager
    instances (service restarts, a debugging REPL) observe the same jobs.
    The one exception is the per-tenant submit lock serializing the job
    *index* read-modify-write; it assumes a single service process per
    queue, which is the deployment this layer targets.

    Parameters
    ----------
    queue:
        The shared work queue (local sqlite or a broker URL's client).
    max_attempts:
        Retry budget given to every task submitted through the service.
    max_requests:
        Largest accepted batch (edge validation).
    clock:
        Injectable time source for descriptor timestamps.
    """

    def __init__(
        self,
        queue: WorkQueue,
        max_attempts: int = 3,
        max_requests: int = 1000,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.queue = queue
        self.max_attempts = max_attempts
        self.max_requests = max_requests
        self._clock = clock
        self._index_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # submission
    # ------------------------------------------------------------------ #
    def submit(
        self,
        tenant: str,
        model_payload: Dict[str, Any],
        request_payloads: Sequence[Dict[str, Any]],
        name: Optional[str] = None,
    ) -> Dict[str, Any]:
        """Validate, enqueue and record one job; returns its status document.

        Validation happens entirely before the first queue write, so a
        rejected batch leaves no trace.  The descriptor is recorded with
        an atomic check-and-set on a fresh job id — and the task submit
        carries a dedupe key derived from it, so a retried submit (lost
        response through a broker) cannot double-enqueue the batch.
        """
        requests = list(request_payloads)
        validate_batch(model_payload, requests, self.max_requests)
        job_id = uuid.uuid4().hex[:12]
        with trace_span(
            "job.submit", attrs={"tenant": tenant, "requests": len(requests)}
        ):
            # Each task carries the submission's trace context, so the
            # worker spans executing this job parent under it (one trace
            # per job, across the whole fleet).
            carrier = inject_context()
            payloads = [
                {
                    "kind": "request",
                    "model": model_payload,
                    "request": dict(entry),
                    "store_namespace": tenant,
                    "job": {"id": job_id, "tenant": tenant, "index": index},
                    **({"trace": dict(carrier)} if carrier else {}),
                }
                for index, entry in enumerate(requests)
            ]
            task_ids = self.queue.submit(
                payloads,
                max_attempts=self.max_attempts,
                dedupe_key=f"job:{tenant}:{job_id}",
            )
        obs_families.service_jobs_total().inc(tenant=tenant)
        obs_families.service_requests_total().inc(len(task_ids), tenant=tenant)
        descriptor = {
            "job_id": job_id,
            "tenant": tenant,
            "name": name,
            "count": len(task_ids),
            "task_ids": task_ids,
            "created_unix": self._clock(),
            "cancelled": False,
        }
        if not self.queue.set_meta_if_absent(
            job_meta_key(tenant, job_id), json.dumps(descriptor, sort_keys=True)
        ):
            # A 12-hex-char uuid collided with an existing job: effectively
            # impossible, but a silent overwrite of someone's job would be
            # unforgivable, so it is a loud error instead.
            raise JobError(f"job id collision for {job_id!r}; resubmit")
        with self._index_lock:
            raw = self.queue.get_meta(tenant_index_key(tenant))
            index = json.loads(raw) if raw is not None else []
            index.append(job_id)
            self.queue.set_meta(tenant_index_key(tenant), json.dumps(index))
        return self._status_document(descriptor, self._job_tasks(descriptor))

    # ------------------------------------------------------------------ #
    # tracking
    # ------------------------------------------------------------------ #
    def _descriptor(self, tenant: str, job_id: str) -> Optional[Dict[str, Any]]:
        raw = self.queue.get_meta(job_meta_key(tenant, job_id))
        return None if raw is None else json.loads(raw)

    def _job_tasks(self, descriptor: Dict[str, Any]) -> List[Task]:
        wanted = set(descriptor["task_ids"])
        # Looked up by id, so a poll costs the job's rows, not the queue's
        # history.  The id filter stays on this side too: a broker that
        # predates ``task_ids`` ignores it and answers with every task.
        by_id = {
            task.task_id: task
            for task in self.queue.tasks(task_ids=descriptor["task_ids"])
            if task.task_id in wanted
        }
        # Preserve submission (request-index) order.
        return [by_id[tid] for tid in descriptor["task_ids"] if tid in by_id]

    def _status_document(
        self, descriptor: Dict[str, Any], tasks: List[Task]
    ) -> Dict[str, Any]:
        counts = {state.value: 0 for state in TaskState}
        for task in tasks:
            counts[task.state.value] += 1
        return {
            "job_id": descriptor["job_id"],
            "tenant": descriptor["tenant"],
            "name": descriptor.get("name"),
            "state": _derive_state(descriptor, tasks),
            "count": descriptor["count"],
            "created_unix": descriptor["created_unix"],
            "task_counts": counts,
            "completed": counts[TaskState.DONE.value],
        }

    def status(self, tenant: str, job_id: str) -> Optional[Dict[str, Any]]:
        """The job's status document, or ``None`` for a job this tenant
        does not own (unknown and foreign ids are indistinguishable)."""
        descriptor = self._descriptor(tenant, job_id)
        if descriptor is None:
            return None
        return self._status_document(descriptor, self._job_tasks(descriptor))

    def list_jobs(self, tenant: str) -> List[Dict[str, Any]]:
        """Status documents of every job the tenant ever submitted."""
        raw = self.queue.get_meta(tenant_index_key(tenant))
        if raw is None:
            return []
        statuses = []
        for job_id in json.loads(raw):
            status = self.status(tenant, job_id)
            if status is not None:
                statuses.append(status)
        return statuses

    def results(self, tenant: str, job_id: str) -> Optional[Dict[str, Any]]:
        """``{"job": <status>, "results": <rows>}``, or ``None`` for a job
        this tenant does not own.

        The rows are per request, in submission order: index, task id,
        state, result/error.  Status and rows come from one read of the
        descriptor and one of the job's tasks, so they agree with each
        other — the stream endpoint reads this when it starts and when a
        wait for a completion ends in something other than a result.
        """
        descriptor = self._descriptor(tenant, job_id)
        if descriptor is None:
            return None
        tasks = self._job_tasks(descriptor)
        rows = []
        for index, task in enumerate(tasks):
            rows.append({
                "index": index,
                "task_id": task.task_id,
                "state": task.state.value,
                "result": task.result,
                "error": task.error,
            })
        return {"job": self._status_document(descriptor, tasks), "results": rows}

    def in_flight(self, tenant: str) -> int:
        """The tenant's pending+running request count, across all its jobs.

        Read from the durable queue state, so the quota this feeds holds
        across service restarts.  Only the live rows are read: each
        pending or running task names its job in its payload's ``job``
        stanza, and a task counts when that job's descriptor (under this
        tenant's key) lists it and is not cancelled.  The tenant's
        finished jobs are never touched.
        """
        live: Dict[str, str] = {}  # task id -> the job id its payload names
        for state in (TaskState.PENDING, TaskState.RUNNING):
            for task in self.queue.tasks(state):
                payload = task.payload if isinstance(task.payload, dict) else {}
                job = payload.get("job")
                if (
                    isinstance(job, dict) and job.get("tenant") == tenant
                    and isinstance(job.get("id"), str)
                ):
                    live[task.task_id] = job["id"]
        owned: Dict[str, Set[str]] = {}
        for job_id in dict.fromkeys(live.values()):
            descriptor = self._descriptor(tenant, job_id)
            if descriptor is not None and not descriptor.get("cancelled"):
                owned[job_id] = set(descriptor["task_ids"])
        return sum(
            1 for task_id, job_id in live.items()
            if task_id in owned.get(job_id, ())
        )

    # ------------------------------------------------------------------ #
    # cancellation
    # ------------------------------------------------------------------ #
    def cancel(self, tenant: str, job_id: str) -> Optional[Dict[str, Any]]:
        """Cancel the job; returns its status afterwards (``None`` = not owned).

        Pending tasks are withdrawn from the queue; running tasks finish
        their attempt (their workers hold leases that cannot be revoked
        safely) and keep their results.  Cancelling a job that is already
        terminal — done, failed, or cancelled — changes nothing and
        returns the status as-is, so retried cancels are harmless.
        """
        descriptor = self._descriptor(tenant, job_id)
        if descriptor is None:
            return None
        tasks = self._job_tasks(descriptor)
        if _derive_state(descriptor, tasks) in TERMINAL_STATES:
            return self._status_document(descriptor, tasks)
        descriptor["cancelled"] = True
        self.queue.set_meta(
            job_meta_key(tenant, job_id), json.dumps(descriptor, sort_keys=True)
        )
        self.queue.cancel_pending(descriptor["task_ids"])
        return self._status_document(descriptor, self._job_tasks(descriptor))
