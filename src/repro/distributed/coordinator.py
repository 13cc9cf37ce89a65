"""The coordinator: shard work into a queue, track it, gather the output.

A :class:`Coordinator` owns one *run* on one queue.  It shards either a
benchmark profile (one task per workload case, the
:func:`repro.bench.harness.case_payload` wire format) or a batch of
analysis requests (one task per request) into the queue, records a run
descriptor in the queue metadata so any later process can gather without
out-of-band knowledge, waits for the fleet to drain the queue — sweeping
expired leases so crashed workers' tasks are retried — and finally gathers
the per-task results back into the run's natural output: a schema-v1
``BENCH_*.json`` artifact for profile runs (with distributed-run metadata:
worker ids seen, retry count, dead-lettered cases), or an ordered result
list for batch runs.

The coordinator is deliberately broker-less: all coordination state lives
in the queue file, so the coordinator can die and be restarted (or `atcd
dist gather` run from another host) without losing anything.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..obs.trace import inject_context
from ..obs.trace import span as trace_span
from .queue import QueueError, Task, TaskState, WorkQueue

__all__ = ["Coordinator", "GatherReport", "RUN_META_KEY"]


def _stamp_trace(payloads: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Embed the ambient trace context into each task payload.

    Workers parent their ``worker.task`` spans under it, so one submit's
    fan-out shows up as a single trace across every host that executed a
    piece of it.  No ambient trace → payloads pass through untouched.
    """
    carrier = inject_context()
    if carrier is not None:
        for payload in payloads:
            payload["trace"] = dict(carrier)
    return payloads

#: Queue metadata key under which the run descriptor is stored.
RUN_META_KEY = "run"


@dataclass
class GatherReport:
    """The gathered output of a drained run.

    ``output`` is the run's natural artifact: a validated BENCH artifact
    dict for profile runs (``kind == "bench"``), a list of serialized
    :class:`~repro.engine.AnalysisResult` dicts for batch runs
    (``kind == "batch"``).  ``dead`` lists dead-lettered tasks — they are
    *absent* from ``output`` and must be surfaced, never dropped silently.
    """

    kind: str
    name: str
    output: Any
    completed: int
    retries: int
    workers: List[str] = field(default_factory=list)
    dead: List[Dict[str, Any]] = field(default_factory=list)


def _dead_entry(task: Task) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "task_id": task.task_id,
        "attempts": task.attempts,
        "error": task.error,
    }
    identity = task.payload.get("identity")
    if isinstance(identity, dict) and "case_id" in identity:
        entry["case_id"] = identity["case_id"]
    return entry


class Coordinator:
    """Shard, track and gather one distributed run over a work queue.

    Parameters
    ----------
    queue:
        The (fresh) work queue holding this run.  One queue holds one run;
        submitting into a queue that already carries a run descriptor is
        refused, so results can never be mixed across runs.
    poll_seconds:
        Sleep between :meth:`wait` polls.
    clock / sleep:
        Injectable for tests.
    """

    def __init__(
        self,
        queue: WorkQueue,
        poll_seconds: float = 0.2,
        clock: Callable[[], float] = time.time,
        sleep: Optional[Callable[[float], None]] = None,
    ) -> None:
        self.queue = queue
        self.poll_seconds = poll_seconds
        self._clock = clock
        self._sleep = sleep if sleep is not None else time.sleep

    # ------------------------------------------------------------------ #
    # sharding
    # ------------------------------------------------------------------ #
    def _record_run(self, descriptor: Dict[str, Any], max_attempts: int) -> None:
        # Everything that could still reject the submission must be checked
        # before the descriptor is recorded — a recorded run with zero tasks
        # would poison the queue file for the corrected retry.
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        # Atomic check-and-set: two concurrent submitters must not both
        # pass a read-then-write guard and mix their runs in one queue.
        recorded = self.queue.set_meta_if_absent(
            RUN_META_KEY, json.dumps(descriptor, sort_keys=True)
        )
        if not recorded:
            existing = json.loads(self.queue.get_meta(RUN_META_KEY))
            raise QueueError(
                f"queue already holds run {existing.get('name')!r}; "
                "use a fresh queue file per run"
            )

    def submit_profile(
        self,
        name: str,
        specs: Sequence[Any],
        repeats: int = 1,
        trace_memory: bool = False,
        max_attempts: int = 3,
    ) -> List[str]:
        """Shard a benchmark profile: one task per expanded workload case.

        Every request is validated (and its backend resolved) *before*
        anything is submitted, so a bad spec fails here, in one process,
        not on the Nth worker of a fleet.
        """
        from ..bench.harness import case_payload, expand_specs, validate_case_requests

        if not isinstance(repeats, int) or repeats < 1:
            raise ValueError(
                f"repeats must be a positive integer, got {repeats!r}"
            )
        items = expand_specs(list(specs))
        validate_case_requests(items)
        payloads = []
        for spec, case in items:
            payload = case_payload(spec, case, repeats, trace_memory=trace_memory)
            payload["kind"] = "bench-case"
            payloads.append(payload)
        with trace_span(
            "coordinator.submit",
            attrs={"kind": "bench", "run": name, "tasks": len(payloads)},
        ):
            _stamp_trace(payloads)
            self._record_run({
                "kind": "bench",
                "name": name,
                "specs": [spec.to_dict() for spec in specs],
                "repeats": repeats,
                "trace_memory": trace_memory,
                "max_attempts": max_attempts,
                "created_unix": self._clock(),
            }, max_attempts)
            return self.queue.submit(payloads, max_attempts=max_attempts)

    def submit_requests(
        self,
        model_payload: Dict[str, Any],
        request_payloads: Sequence[Dict[str, Any]],
        name: str = "batch",
        max_attempts: int = 3,
    ) -> List[str]:
        """Shard a batch-API request list: one task per request."""
        from ..attacktree import serialization
        from ..engine import AnalysisRequest, AnalysisSession

        model = serialization.from_dict(model_payload)
        session = AnalysisSession(model)
        for index, entry in enumerate(request_payloads):
            try:
                request = AnalysisRequest.from_dict(entry)
                request.validate()
                session.resolve(request.problem, backend=request.backend)
            except (ValueError, TypeError) as error:
                raise ValueError(f"requests[{index}]: {error}") from error
        payloads = [
            {"kind": "request", "model": model_payload, "request": dict(entry)}
            for entry in request_payloads
        ]
        with trace_span(
            "coordinator.submit",
            attrs={"kind": "batch", "run": name, "tasks": len(payloads)},
        ):
            _stamp_trace(payloads)
            self._record_run({
                "kind": "batch",
                "name": name,
                "max_attempts": max_attempts,
                "created_unix": self._clock(),
            }, max_attempts)
            return self.queue.submit(payloads, max_attempts=max_attempts)

    # ------------------------------------------------------------------ #
    # tracking
    # ------------------------------------------------------------------ #
    def run_info(self) -> Dict[str, Any]:
        """The run descriptor recorded at submit time."""
        raw = self.queue.get_meta(RUN_META_KEY)
        if raw is None:
            raise QueueError("queue holds no run (nothing was submitted)")
        return json.loads(raw)

    def wait(
        self,
        timeout: Optional[float] = None,
        on_poll: Optional[Callable[[Dict[str, int]], None]] = None,
    ) -> Dict[str, int]:
        """Block until every task is terminal (done or dead).

        Sweeps expired leases on every poll — this is what turns a crashed
        worker's task back into claimable work.  ``on_poll`` (called with
        the current state counts) is the liveness hook: ``atcd dist run``
        uses it to respawn dead local workers.  Raises :class:`QueueError`
        after ``timeout`` seconds with work still outstanding.
        """
        deadline = None if timeout is None else self._clock() + timeout
        while True:
            self.queue.expire_leases()
            counts = self.queue.counts()
            if counts["pending"] == 0 and counts["running"] == 0:
                return counts
            if on_poll is not None:
                on_poll(counts)
            if deadline is not None and self._clock() >= deadline:
                raise QueueError(
                    f"run did not drain within {timeout:g}s "
                    f"(pending={counts['pending']}, running={counts['running']})"
                )
            self._sleep(self.poll_seconds)

    # ------------------------------------------------------------------ #
    # gathering
    # ------------------------------------------------------------------ #
    def gather(
        self, distributed: Optional[Dict[str, Any]] = None
    ) -> GatherReport:
        """Collect a drained run's results into its output document.

        Rows come back in submission (= expansion) order, so a distributed
        profile run's artifact ``runs`` section is ordered exactly like a
        sequential ``atcd bench run`` of the same profile.  ``distributed``
        merges extra metadata (e.g. the local fleet size) into the
        artifact's ``config["distributed"]`` block.
        """
        info = self.run_info()
        if not self.queue.drained():
            counts = self.queue.counts()
            raise QueueError(
                "run is not complete: "
                f"pending={counts['pending']}, running={counts['running']} "
                "(wait for the workers, or check 'atcd dist status')"
            )
        tasks = self.queue.tasks()
        done = [task for task in tasks if task.state is TaskState.DONE]
        dead = [_dead_entry(task) for task in tasks
                if task.state is TaskState.DEAD]
        retries = sum(max(0, task.attempts - 1) for task in tasks)
        workers = sorted({
            task.worker_id for task in done if task.worker_id is not None
        })
        rows = [task.result for task in done]
        if info["kind"] == "batch":
            return GatherReport(
                kind="batch", name=info["name"], output=rows,
                completed=len(done), retries=retries, workers=workers,
                dead=dead,
            )
        from ..bench.artifact import build_artifact
        from ..bench.harness import BenchRun
        from ..workloads import ScenarioSpec

        specs = [ScenarioSpec.from_dict(spec) for spec in info["specs"]]
        runs = [BenchRun.from_dict(row) for row in rows]
        config: Dict[str, Any] = {
            "profile": info["name"],
            "executor": "distributed",
            "repeats": info.get("repeats", 1),
            "trace_memory": info.get("trace_memory", False),
            "distributed": {
                "max_attempts": info.get("max_attempts"),
                "workers_seen": workers,
                "retries": retries,
                "dead_tasks": dead,
            },
        }
        if distributed:
            config["distributed"].update(distributed)
        artifact = build_artifact(info["name"], specs, runs, config=config)
        return GatherReport(
            kind="bench", name=info["name"], output=artifact,
            completed=len(done), retries=retries, workers=workers, dead=dead,
        )
