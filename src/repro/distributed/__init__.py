"""Distributed execution runtime: durable queue, workers, coordinator.

This package fans analysis work out beyond a single process pool, over the
two foundations the engine already ships: self-contained JSON task payloads
(:func:`repro.bench.harness.case_payload` /
:func:`repro.engine.session.run_serialized_request`) and the cross-process
:class:`~repro.engine.store.SqliteStore` result store.  It is broker-less
by design — all coordination state lives in one sqlite *work queue* file,
so a single-host run and a multi-host run over a shared filesystem use
exactly the same code path.

Layers
------
``queue``
    The :class:`WorkQueue` protocol and :class:`SqliteQueue`, its durable
    implementation (``BEGIN IMMEDIATE`` claims — safe for worker fleets
    across threads, processes and hosts; the broker client lives in
    :mod:`repro.net`).  Tasks carry visibility leases with expiry, bounded
    retries and a dead-letter state.
``worker``
    :class:`Worker`: claim → execute (through the engine's wire entry
    points, idempotently via a shared result store) → heartbeat →
    complete/fail.
``coordinator``
    :class:`Coordinator`: shard a bench profile or batch request list into
    tasks, wait out the fleet (sweeping expired leases, so crashed
    workers' tasks are retried), gather results into a ``BENCH_*.json``
    artifact or result list with distributed-run metadata.
``fleet``
    :class:`LocalFleet`: the supervised N-worker-subprocess mode behind
    ``atcd dist run``.

Typical single-host use (``atcd dist run`` wraps exactly this)::

    from repro.bench import profile
    from repro.distributed import Coordinator, LocalFleet, SqliteQueue

    queue = SqliteQueue("run.queue")
    coordinator = Coordinator(queue)
    coordinator.submit_profile("smoke", profile("smoke"))
    with LocalFleet("run.queue", workers=4) as fleet:
        fleet.start()
        coordinator.wait(on_poll=fleet.supervise)
        fleet.join()
    artifact = coordinator.gather(distributed={"workers": 4}).output

Multi-host use splits the same pieces: ``atcd dist submit`` on one host,
``atcd dist worker`` on each compute host (pointing at the queue — and
ideally a result store — on a shared filesystem), ``atcd dist status`` /
``atcd dist gather`` anywhere.  Hosts that share *nothing* point the same
flags at an ``atcd serve`` broker URL instead of a path
(:mod:`repro.net`); :func:`open_queue` dispatches on the scheme.
"""

from .coordinator import Coordinator, GatherReport, RUN_META_KEY
from .fleet import LocalFleet, worker_command, worker_environment
from .queue import (
    DEFAULT_LEASE_GRACE,
    DEFAULT_MAX_ATTEMPTS,
    QUEUE_SCHEMA_VERSION,
    QueueError,
    SqliteQueue,
    Task,
    TaskState,
    WorkQueue,
    open_queue,
)
from .worker import (
    Worker,
    WorkerReport,
    WorkerShutdown,
    default_worker_id,
    execute_task_payload,
    signal_shutdown,
)

__all__ = [
    "Coordinator",
    "DEFAULT_LEASE_GRACE",
    "DEFAULT_MAX_ATTEMPTS",
    "GatherReport",
    "LocalFleet",
    "QUEUE_SCHEMA_VERSION",
    "QueueError",
    "RUN_META_KEY",
    "SqliteQueue",
    "Task",
    "TaskState",
    "WorkQueue",
    "Worker",
    "WorkerReport",
    "WorkerShutdown",
    "default_worker_id",
    "execute_task_payload",
    "open_queue",
    "signal_shutdown",
    "worker_command",
    "worker_environment",
]
