"""The worker loop: claim, execute, heartbeat, report.

A :class:`Worker` repeatedly claims tasks from a :class:`~.queue.WorkQueue`
and executes them through the engine's existing wire entry points — bench
case payloads via :func:`repro.bench.harness.execute_serialized_case`,
plain analysis requests via
:func:`repro.engine.session.run_serialized_request`.  Nothing about a task
is worker-specific: any worker on any host (sharing the queue file and,
optionally, a result store) can execute any task.

While a task runs, a daemon thread renews its visibility lease at a third
of the lease interval, so long solver runs stay invisible to other workers
for as long as — and only as long as — this process is alive.  A worker
that is killed simply stops heartbeating; the lease runs out and the queue
hands the task to someone else.

Re-execution is made *idempotent* by the shared result store: a retried
task whose first execution already persisted its result is answered from
the store (``run_serialized_request(store=...)`` /
``execute_serialized_case(store=...)`` read through it) instead of being
recomputed, so crash-retry cannot produce divergent results.

A finished task is reported and the next one claimed in one queue call
(:meth:`~.queue.WorkQueue.complete_and_claim`) whenever the loop will run
again.  An idle worker does not sleep between claims: its claim waits in
the queue (``wait_seconds``) until a task becomes pending.

Failures inside a task (a payload that does not deserialize, a backend
error) are reported to the queue with :meth:`~.queue.WorkQueue.fail` —
bounded retries, then dead-letter — and the worker moves on; only the
queue itself failing stops the loop.

Graceful shutdown: under :func:`signal_shutdown` (what ``atcd dist
worker`` runs in), SIGTERM/SIGINT raise :class:`WorkerShutdown` inside
the loop.  The in-flight task is *failed back to the queue immediately*
(ownership-checked, so a task that was meanwhile reassigned is left
alone) instead of staying invisible until its lease times out, and the
worker exits with a report marking the interruption.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import socket
import threading
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, Optional

from ..engine.session import run_serialized_request
from ..engine.store import NamespacedStore, ResultStore
from ..obs import families as obs_families
from ..obs.metrics import get_registry
from ..obs.scrape import WORKER_METRICS_META_PREFIX
from ..obs.trace import activate_context, extract_context
from ..obs.trace import span as trace_span
from .queue import QueueError, Task, TaskState, WorkQueue

__all__ = [
    "PUBLISH_INTERVAL_SECONDS",
    "WORKER_METRICS_META_PREFIX",
    "Worker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "execute_task_payload",
    "signal_shutdown",
]

#: Shortest gap, in seconds, between two metrics publishes from the task
#: loop.  Publishing is a full registry snapshot written over the queue
#: (one broker round trip); after every task it would cost as much as a
#: fast solve.  A scrape sees numbers at most this old, and the loop's
#: exit always publishes.
PUBLISH_INTERVAL_SECONDS = 1.0


class WorkerShutdown(BaseException):
    """A shutdown signal arrived; unwind the worker loop.

    Subclasses ``BaseException`` (like ``KeyboardInterrupt``) so the
    worker's normal task-failure handling — which retries and moves on —
    cannot swallow it: a signalled worker must stop, not keep claiming.
    """

    def __init__(self, signum: int) -> None:
        super().__init__(signum)
        self.signum = signum


@contextlib.contextmanager
def signal_shutdown(worker: "Worker") -> Iterator[None]:
    """Route SIGTERM/SIGINT into a graceful stop of ``worker``.

    The handler stops the loop and raises :class:`WorkerShutdown` at the
    interrupt point, so :meth:`Worker.run` can fail its in-flight task
    back to the queue before returning.  The raise is one-shot: a second
    signal (an impatient operator, a supervisor re-signalling) must not
    interrupt the fail-back already in progress — it only re-confirms the
    stop.  Signal handlers can only be installed from the main thread;
    elsewhere this is a no-op (thread-run workers are stopped with
    :meth:`Worker.stop` instead).  Previous handlers are restored on
    exit.
    """
    fired = threading.Event()

    def _handler(signum: int, frame: Any) -> None:
        worker.stop()
        if not fired.is_set():
            fired.set()
            raise WorkerShutdown(signum)

    previous: Dict[int, Any] = {}
    if threading.current_thread() is threading.main_thread():
        for signum in (signal.SIGTERM, signal.SIGINT):
            previous[signum] = signal.signal(signum, _handler)
    try:
        yield
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)


def default_worker_id() -> str:
    """A host-unique worker name: ``<hostname>-<pid>``."""
    return f"{socket.gethostname()}-{os.getpid()}"


def execute_task_payload(
    payload: Dict[str, Any], store: Optional[ResultStore] = None
) -> Dict[str, Any]:
    """Dispatch one task payload to the engine by its ``kind``.

    ``bench-case`` payloads (the harness wire format) return a
    :class:`~repro.bench.harness.BenchRun` row dict; ``request`` payloads
    (a serialized model + request) return an
    :class:`~repro.engine.AnalysisResult` dict.

    A ``request`` payload may carry a ``store_namespace`` (the service
    layer's tenant name): the store is then accessed through a
    :class:`~repro.engine.store.NamespacedStore` view, so one tenant's
    cached results can neither serve nor poison another's.  Workers need
    no tenant configuration — isolation rides on the task payload.
    """
    kind = payload.get("kind", "bench-case")
    if kind == "bench-case":
        # The harness loads the workload generators: only bench tasks need it.
        from ..bench.harness import execute_serialized_case

        return execute_serialized_case(payload, store=store)
    if kind == "request":
        namespace = payload.get("store_namespace")
        if namespace is not None and store is not None:
            store = NamespacedStore(store, namespace)
        return run_serialized_request(
            payload["model"], payload["request"], store=store
        )
    raise ValueError(f"unknown task kind {kind!r}")


@dataclass
class WorkerReport:
    """What one :meth:`Worker.run` invocation did."""

    worker_id: str
    completed: int = 0
    failed: int = 0
    #: Task ids whose attempt failed on this worker (possibly retried by
    #: another worker afterwards).
    failures: list = field(default_factory=list)
    #: Signal number that interrupted the loop (``None`` for a normal
    #: drained/stopped exit).  An interrupted worker's in-flight task was
    #: failed back to the queue, not abandoned to its lease.
    interrupted: Optional[int] = None

    @property
    def executed(self) -> int:
        """Total attempts this worker made (completed + failed)."""
        return self.completed + self.failed


class _LeaseKeeper(threading.Thread):
    """Renews one running task's lease until stopped (daemon thread).

    Renewal runs at a third of the lease interval, so two renewals can be
    missed (scheduler stalls, a slow queue write) before the lease actually
    lapses.  If the queue reports the task is no longer ours — the lease
    already expired and someone else claimed it — the keeper gives up; the
    worker discovers the loss when its ``complete``/``fail`` returns False.
    """

    def __init__(
        self, queue: WorkQueue, task_id: str, worker_id: str, lease_seconds: float
    ) -> None:
        super().__init__(name=f"lease-{task_id}", daemon=True)
        self._queue = queue
        self._task_id = task_id
        self._worker_id = worker_id
        self._lease_seconds = lease_seconds
        self._interval = max(lease_seconds / 3.0, 0.05)
        self._stop_event = threading.Event()

    def run(self) -> None:
        while not self._stop_event.wait(self._interval):
            try:
                renewed = self._queue.heartbeat(
                    self._task_id, self._worker_id, self._lease_seconds
                )
            except QueueError:
                # A transient queue error (lock timeout) must not kill the
                # keeper; the next tick retries, and the lease is sized to
                # survive missed renewals.  Both queue flavours wrap their
                # transport errors in QueueError, so that is the whole set.
                continue
            if not renewed:
                return
            obs_families.worker_heartbeats_total().inc()

    def stop(self) -> None:
        self._stop_event.set()
        self.join(timeout=5.0)


class Worker:
    """A single queue consumer; run one per process (or thread).

    Parameters
    ----------
    queue:
        The work queue to claim from.
    worker_id:
        Stable name used for lease ownership; defaults to
        ``<hostname>-<pid>``.
    store:
        Optional shared result store.  Results are read through and written
        back, making re-execution after a crash idempotent and letting
        workers share work across the fleet.
    lease_seconds:
        Visibility lease per claim; renewed by heartbeat at a third of
        this interval while the task executes.
    poll_seconds:
        Longest one idle claim waits in the queue for a task to become
        pending (it returns as soon as one does).  Between waits the
        worker publishes unpublished metrics and, with
        ``exit_when_drained``, checks whether the queue drained.
    max_tasks:
        Stop after this many attempts (None = unbounded).
    exit_when_drained:
        Return once the queue holds no pending or running tasks (the
        single-run default).  With ``False`` the worker keeps polling for
        new work until ``max_tasks`` — the long-lived fleet mode.
    executor:
        Override task execution (tests inject failures/delays here);
        defaults to :func:`execute_task_payload` with this worker's store.
    inject_delay_seconds:
        Sleep this long after claiming each task, before executing it —
        fault-injection hook for chaos tests (kill a worker mid-task).
    """

    def __init__(
        self,
        queue: WorkQueue,
        worker_id: Optional[str] = None,
        store: Optional[ResultStore] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.2,
        max_tasks: Optional[int] = None,
        exit_when_drained: bool = True,
        executor: Optional[Callable[[Dict[str, Any]], Dict[str, Any]]] = None,
        inject_delay_seconds: float = 0.0,
    ) -> None:
        if lease_seconds <= 0:
            raise ValueError(
                f"lease_seconds must be positive, got {lease_seconds!r}"
            )
        self.queue = queue
        self.worker_id = worker_id or default_worker_id()
        self.store = store
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.max_tasks = max_tasks
        self.exit_when_drained = exit_when_drained
        self.executor = executor
        self.inject_delay_seconds = inject_delay_seconds
        self._stop_event = threading.Event()
        self._published_at: Optional[float] = None
        self._unpublished = False  # tasks finished since the last publish

    def stop(self) -> None:
        """Ask a running loop to return after its current task, or once
        its current claim wait (at most ``poll_seconds``) ends."""
        self._stop_event.set()

    def _execute(self, task: Task) -> Dict[str, Any]:
        if self.inject_delay_seconds:
            time.sleep(self.inject_delay_seconds)
        if self.executor is not None:
            return self.executor(task.payload)
        return execute_task_payload(task.payload, store=self.store)

    def _room_after(self, report: WorkerReport) -> bool:
        """Whether the loop runs again once the task in hand is counted."""
        return not self._stop_event.is_set() and (
            self.max_tasks is None or report.executed + 1 < self.max_tasks
        )

    def run_one(self, task: Task, report: WorkerReport) -> Optional[Task]:
        """Execute one claimed task under a heartbeat, report the outcome.

        A success is reported with :meth:`~.queue.WorkQueue.complete_and_claim`
        when the loop will run again, and the task it claimed is returned
        (now this worker's to run or fail back); otherwise returns ``None``.
        """
        keeper = _LeaseKeeper(
            self.queue, task.task_id, self.worker_id, self.lease_seconds
        )
        keeper.start()
        kind = (
            task.payload.get("kind", "bench-case")
            if isinstance(task.payload, dict) else "unknown"
        )
        started = time.perf_counter()
        try:
            # The payload's "trace" stanza (if the submitter embedded one)
            # parents this span under the coordinator/service span that
            # created the task — one trace across process and host hops.
            context = (
                extract_context(task.payload.get("trace"))
                if isinstance(task.payload, dict) else None
            )
            with contextlib.ExitStack() as stack:
                if context is not None:
                    stack.enter_context(activate_context(context))
                stack.enter_context(trace_span(
                    "worker.task",
                    attrs={
                        "task_id": task.task_id,
                        "kind": kind,
                        "worker_id": self.worker_id,
                        "attempt": task.attempts,
                    },
                ))
                result = self._execute(task)
        except WorkerShutdown:
            # A shutdown signal mid-task: stop renewing and let run()
            # fail the task back to the queue on the way out.
            keeper.stop()
            raise
        # staticcheck: allow-broad-except(task payloads run arbitrary backend code; any failure must dead-letter the task, not the worker)
        except Exception as error:
            keeper.stop()
            obs_families.worker_task_seconds().observe(
                time.perf_counter() - started, kind=kind
            )
            message = "".join(
                traceback.format_exception_only(type(error), error)
            ).strip()
            self.queue.fail(task.task_id, self.worker_id, message)
            report.failed += 1
            report.failures.append(task.task_id)
            obs_families.worker_tasks_total().inc(outcome="failed")
            self._publish_if_due()
            return None
        keeper.stop()
        obs_families.worker_task_seconds().observe(
            time.perf_counter() - started, kind=kind
        )
        following: Optional[Task] = None
        if self._room_after(report):
            ok, following = self.queue.complete_and_claim(
                task.task_id, self.worker_id, result, self.lease_seconds
            )
        else:
            ok = self.queue.complete(task.task_id, self.worker_id, result)
        if ok:
            report.completed += 1
            obs_families.worker_tasks_total().inc(outcome="completed")
        else:
            # Our lease lapsed mid-run and the task went elsewhere.  The
            # computation is not wasted if a store is attached (the result
            # was written through), but it is not ours to report as done.
            report.failed += 1
            report.failures.append(task.task_id)
            obs_families.worker_tasks_total().inc(outcome="lost-lease")
        self._publish_if_due()
        return following

    def run(self) -> WorkerReport:
        """Claim and execute until drained/stopped/signalled; returns the
        report.

        On :class:`WorkerShutdown` (a SIGTERM/SIGINT routed in by
        :func:`signal_shutdown`) the in-flight claims are failed back to
        the queue — ownership-checked, so nothing is touched if the lease
        already moved on — making the tasks immediately claimable instead
        of invisible until lease expiry.
        """
        report = WorkerReport(worker_id=self.worker_id)
        current: Optional[Task] = None
        # No task came with the last claim or completion.  Only then does
        # a claim wait, so a worker started on a drained queue exits at
        # once.
        idle = False
        try:
            while not self._stop_event.is_set():
                if self.max_tasks is not None and report.executed >= self.max_tasks:
                    break
                if current is None:
                    if idle:
                        if self.exit_when_drained and self.queue.drained():
                            break
                        if self._unpublished:
                            # Idle now: the last tasks' numbers must not
                            # wait for the next task to become visible.
                            self.publish_metrics()
                    current = self.queue.claim(
                        self.worker_id, self.lease_seconds,
                        wait_seconds=self.poll_seconds if idle else 0.0,
                    )
                    if current is None:
                        idle = True
                        continue
                current = self.run_one(current, report)
                idle = current is None
        except WorkerShutdown as shutdown:
            report.interrupted = shutdown.signum
            try:
                # The signal can land inside claim() or complete_and_claim(),
                # after the queue committed a lease but before the task
                # reached `current`.  Ask the queue which tasks it believes
                # are ours, so that window leaks nothing.
                claims = [
                    task
                    for task in self.queue.tasks(TaskState.RUNNING)
                    if task.worker_id == self.worker_id
                ]
                for task in claims:
                    if self.queue.fail(
                        task.task_id, self.worker_id,
                        f"worker {self.worker_id} shut down by signal "
                        f"{shutdown.signum} with the task in flight",
                    ):
                        report.failed += 1
                        report.failures.append(task.task_id)
                        obs_families.worker_interrupted_total().inc()
            # staticcheck: allow-broad-except(a stray shutdown signal can hit the fail-back itself; the lease expiring recovers the task)
            except BaseException:
                # The queue is unreachable, or a stray signal hit the
                # fail-back itself; the lease will expire and recover the
                # task the slow way.
                pass
        self.publish_metrics()
        return report

    def _publish_if_due(self) -> None:
        """After a task: publish on the first one, then at most once per
        :data:`PUBLISH_INTERVAL_SECONDS`."""
        if (
            self._published_at is None
            or time.monotonic() - self._published_at >= PUBLISH_INTERVAL_SECONDS
        ):
            self.publish_metrics()
        else:
            self._unpublished = True

    def publish_metrics(self) -> None:
        """Publish this process's metrics snapshot into queue metadata.

        Written under ``worker-metrics:<worker_id>`` after the first task,
        then after a task only once :data:`PUBLISH_INTERVAL_SECONDS` have
        passed since the last publish, when the loop goes idle with
        unpublished tasks, and always on loop exit; the
        broker/service merge these at scrape time so a single ``GET
        /metrics`` covers the whole fleet.  Best-effort — telemetry must
        never fail the work it observes.
        """
        self._published_at = time.monotonic()
        self._unpublished = False
        try:
            self.queue.set_meta(
                WORKER_METRICS_META_PREFIX + self.worker_id,
                json.dumps(get_registry().snapshot()),
            )
        except QueueError:
            pass
