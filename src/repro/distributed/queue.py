"""Durable work queues: the task ledger of the distributed runtime.

A *work queue* holds self-contained JSON task payloads (bench case payloads
or serialized analysis requests) and tracks each task through a small state
machine:

``pending``
    Submitted, unclaimed — or claimed once and returned to the pool after a
    failure or an expired lease, with retry budget remaining.
``running``
    Claimed by a worker under a *visibility lease*: the task is invisible
    to other claimants until ``lease_expires_unix``.  Workers extend the
    lease with heartbeats while they compute; a worker that dies stops
    heartbeating and the lease simply runs out.
``done``
    Completed; the worker's JSON result is stored on the task row.
``dead``
    Dead-lettered: the task failed (or lost its lease) ``max_attempts``
    times and will not be retried.  Dead tasks are reported, never
    silently dropped.
``cancelled``
    Withdrawn before any worker picked it up (:meth:`WorkQueue.cancel_pending`
    — the service's job-cancellation path).  Terminal like ``done``/``dead``,
    but distinct from both: a cancelled task carries no result, is *not*
    revived by :meth:`WorkQueue.resubmit_dead`, and does not read as a
    failure.  Only pending tasks can be cancelled; a running task finishes
    its attempt (its lease holder cannot be interrupted safely), and its
    result is simply ignored by whoever cancelled the job.

Transitions are claim-driven: :meth:`WorkQueue.claim` first sweeps expired
leases (``running`` → ``pending`` or ``dead``), then atomically hands the
oldest pending task to the caller.  ``attempts`` counts claims, so a task
bounces between ``pending`` and ``running`` at most ``max_attempts`` times
before dead-lettering.  A worker finishing a task claims its next one in
the same transaction (:meth:`WorkQueue.complete_and_claim`).

Waiting
-------
An idle :meth:`WorkQueue.claim` and a result stream's
:meth:`WorkQueue.wait_finished` block instead of polling: each waits on a
condition variable of the queue object that serves it, notified when that
object commits a change the waiter can use — a task becoming pending
(submit, retried failure, released lease, resubmit) wakes claims; a task
finishing (complete, dead-letter, cancel, lease expiry to dead) wakes
streams.  Heartbeats, metadata writes and empty claims notify no one.  A
write by *another process* on a shared file notifies nothing here; the
waiter sees it when its wait times out and it looks once more, so a wait
bounds how stale an answer can be, as a poll interval used to.

Two implementations, mirroring :mod:`repro.engine.store`:

:class:`SqliteQueue`
    The durable one: a single sqlite file, safe for concurrent workers
    across threads *and* processes (``BEGIN IMMEDIATE`` claims, busy
    timeout, rollback journaling — deliberately not WAL, whose per-host
    shared-memory index would break cross-host locking).  This is what
    multi-host deployments point at a shared filesystem.
:class:`repro.net.HttpQueue`
    A network client speaking the broker wire protocol of ``atcd serve``
    (:mod:`repro.net`), for shared-nothing multi-host deployments;
    :func:`open_queue` dispatches ``http(s)://`` URLs to it.

Clock contract
--------------
Every timestamp a queue writes or compares (lease deadlines, expiry
sweeps, ``created_unix``/``updated_unix``) comes from the queue's injected
``clock`` — by default :func:`time.time`, replaceable for tests.  With a
shared *file*, claims from different hosts stamp leases with different
clocks, so ``expire_leases`` tolerates ``grace_seconds`` of skew before
declaring a lease dead (a lease is expired only once
``lease_expires_unix + grace_seconds < now``).  With the HTTP broker all
clock math runs on the server — one clock, skew-free by construction.
"""

from __future__ import annotations

import contextlib
import enum
import json
import math
import os
import sqlite3
import threading
import time
from dataclasses import dataclass
from typing import (
    Any, Callable, Collection, Dict, List, NamedTuple, Optional, Protocol,
    Sequence, Set, Tuple, runtime_checkable,
)

from ..obs import families as obs_families

__all__ = [
    "DEFAULT_LEASE_GRACE",
    "QUEUE_SCHEMA_VERSION",
    "QueueError",
    "TaskState",
    "Task",
    "FinishedTask",
    "WorkQueue",
    "SqliteQueue",
    "open_queue",
]

#: Version of the persisted queue layout.  Bump on any incompatible change;
#: old files then fail loudly instead of being misread.
QUEUE_SCHEMA_VERSION = 1

#: Default retry budget: a task is claimed at most this many times (first
#: attempt included) before it is dead-lettered.
DEFAULT_MAX_ATTEMPTS = 3

#: Default clock-skew tolerance of lease-expiry sweeps, in seconds.  On a
#: queue file shared between hosts, the lease deadline was stamped by the
#: claimant's clock and is compared against the sweeper's — an NTP step or
#: plain skew between them must not prematurely expire a live lease (which
#: would double-execute the task).  Two seconds comfortably covers NTP
#: discipline; deployments with worse clocks can raise it per queue.
DEFAULT_LEASE_GRACE = 2.0


#: The change kinds waiters subscribe to: a task became pending (claims
#: wake), or a task finished — done, dead or cancelled (streams wake).
_PENDING_CHANGE = "pending"
_FINISHED_CHANGE = "finished"
_CHANGE_KINDS = (_PENDING_CHANGE, _FINISHED_CHANGE)


def _validate_wait(wait_seconds: float) -> float:
    if (
        isinstance(wait_seconds, bool)
        or not isinstance(wait_seconds, (int, float))
        or not 0 <= wait_seconds < math.inf
    ):
        raise QueueError(
            f"wait_seconds must be a non-negative number, got {wait_seconds!r}"
        )
    return float(wait_seconds)


def _validate_grace(grace_seconds: float) -> float:
    if not isinstance(grace_seconds, (int, float)) or grace_seconds < 0:
        raise QueueError(
            f"grace_seconds must be a non-negative number, got {grace_seconds!r}"
        )
    return float(grace_seconds)


class QueueError(ValueError):
    """A queue file is unusable or an operation is invalid.

    Subclasses ``ValueError`` so CLI entry points report it as a one-line
    user error (exit code 2), consistent with engine and store errors.
    """


class TaskState(enum.Enum):
    """Lifecycle states of one queued task (see the module docstring)."""

    PENDING = "pending"
    RUNNING = "running"
    DONE = "done"
    DEAD = "dead"
    CANCELLED = "cancelled"


@dataclass(frozen=True)
class Task:
    """One queued unit of work, as observed at a point in time.

    ``seq`` is the submission index — gather order.  ``attempts`` counts
    claims so far; ``result`` is set once ``done``, ``error`` records the
    most recent failure (and survives into the dead-letter state).
    """

    task_id: str
    seq: int
    payload: Dict[str, Any]
    state: TaskState
    attempts: int
    max_attempts: int
    worker_id: Optional[str] = None
    lease_expires_unix: Optional[float] = None
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None


class FinishedTask(NamedTuple):
    """A finished task as :meth:`WorkQueue.wait_finished` reports it."""

    task_id: str
    state: TaskState
    result: Optional[Dict[str, Any]]
    error: Optional[str]


#: The states :meth:`WorkQueue.wait_finished` reports.
_FINISHED_STATES = (TaskState.DONE, TaskState.DEAD, TaskState.CANCELLED)


@runtime_checkable
class WorkQueue(Protocol):
    """What workers, the coordinator and the CLI require of a queue."""

    def submit(
        self,
        payloads: Sequence[Dict[str, Any]],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        dedupe_key: Optional[str] = None,
    ) -> List[str]:
        """Append tasks (one per payload); returns their task ids.

        ``dedupe_key`` makes the call idempotent: a repeated submit with
        the same key (a retry after a lost response — the HTTP client's
        case) returns the original task ids instead of appending the
        batch again.  The check-and-record is atomic with the insert.
        """
        ...

    def claim(
        self, worker_id: str, lease_seconds: float, wait_seconds: float = 0.0
    ) -> Optional[Task]:
        """Atomically take the oldest pending task under a lease.

        Expired leases are swept first, so crashed workers' tasks become
        claimable (or dead) without any separate janitor process.  When
        nothing is pending, waits up to ``wait_seconds`` for a task to
        become pending (a submit, a retried failure, a released lease, a
        resubmit) and claims it; returns ``None`` when the wait ends
        empty-handed.
        """
        ...

    def heartbeat(self, task_id: str, worker_id: str, lease_seconds: float) -> bool:
        """Extend a running task's lease; ``False`` if no longer ours."""
        ...

    def complete(self, task_id: str, worker_id: str, result: Dict[str, Any]) -> bool:
        """Finish a task with its result; ``False`` if no longer ours.

        Idempotent for the rightful owner: completing a task that is
        already ``done`` *by the same worker* returns ``True`` (a replay
        after a lost broker response must not read as a lost lease).  A
        different worker's completion still returns ``False``.
        """
        ...

    def complete_and_claim(
        self,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        lease_seconds: float,
    ) -> Tuple[bool, Optional[Task]]:
        """:meth:`complete` and an immediate :meth:`claim`, atomically.

        Returns ``(ok, next_task)``: ``ok`` is what :meth:`complete` would
        return (replay rule included), and ``next_task`` is the oldest
        pending task, now leased to ``worker_id``, or ``None``.  A lost
        lease still claims.  One transaction (and, over a broker, one
        round trip) where the two calls took two; it never waits.
        """
        ...

    def wait_finished(
        self,
        task_ids: Sequence[str],
        known: Collection[str],
        wait_seconds: float,
    ) -> List[FinishedTask]:
        """The listed tasks that are done, dead or cancelled and not in
        ``known``, in submission order, without their payloads.

        Waits up to ``wait_seconds`` for at least one such task; an empty
        list means none finished in time.  Result streams call this
        instead of re-reading their whole job on a timer.
        """
        ...

    def fail(self, task_id: str, worker_id: str, error: str) -> bool:
        """Report a failed attempt (``pending`` again, or ``dead`` once the
        retry budget is exhausted); ``False`` if no longer ours."""
        ...

    def expire_leases(self) -> int:
        """Sweep expired leases (skew grace applied); returns how many
        tasks were released."""
        ...

    def resubmit_dead(self) -> List[str]:
        """Re-queue every dead-lettered task with a fresh retry budget.

        Dead tasks go back to ``pending`` with ``attempts`` reset to zero
        and their error cleared, so a run stuck on dead letters (after an
        environment fix) can complete instead of being rebuilt from
        scratch.  Returns the re-queued task ids in submission order.
        """
        ...

    def cancel_pending(self, task_ids: Sequence[str]) -> List[str]:
        """Withdraw the given tasks if (and only if) still ``pending``.

        Pending tasks move to the terminal ``cancelled`` state; tasks in
        any other state — running, done, dead, already cancelled, or
        unknown ids — are left untouched.  Returns the ids actually
        cancelled by *this* call, in submission order.  Naturally
        idempotent: a retried cancel finds the tasks no longer pending
        and returns an empty list.
        """
        ...

    def prune(self, ttl_seconds: float) -> Dict[str, int]:
        """Retention sweep: delete finished work past its keep horizon.

        Removes ``done``/``cancelled`` tasks whose last state change is
        older than ``ttl_seconds``, then job descriptors (plus their
        submit-dedupe records and tenant-index entries) every one of
        whose tasks is gone — dead tasks keep their descriptor alive, so
        failures stay inspectable until explicitly resubmitted or the
        tasks themselves are dealt with.  Returns
        ``{"tasks": n, "descriptors": m}``.
        """
        ...

    def counts(self) -> Dict[str, int]:
        """Task counts per state name (every state always present)."""
        ...

    def drained(self) -> bool:
        """True when no task is pending or running (all are terminal)."""
        ...

    def tasks(
        self,
        state: Optional[TaskState] = None,
        task_ids: Optional[Sequence[str]] = None,
    ) -> List[Task]:
        """Tasks in submission order: all of them, or only one state's,
        and/or only those among ``task_ids`` (any number of them; unknown
        ids are skipped).

        Every row carries its payload and result, so a caller that
        tracks a few tasks names them: the lookup is then by primary
        key, and its cost does not grow with the queue's history.
        """
        ...

    def get_meta(self, key: str) -> Optional[str]:
        """A queue-level metadata value (e.g. the run descriptor)."""
        ...

    def set_meta(self, key: str, value: str) -> None:
        """Set a queue-level metadata value (last writer wins)."""
        ...

    def set_meta_if_absent(self, key: str, value: str) -> bool:
        """Atomically set a metadata value only if the key is unset.

        Returns ``False`` (without writing) when the key already exists —
        the check-and-set two concurrent submitters race on must be one
        operation, or both would win and their runs would mix.
        """
        ...

    def summary(self) -> Dict[str, Any]:
        """JSON-compatible description for ``atcd dist status``."""
        ...

    def close(self) -> None:
        """Release any underlying resources (idempotent); a waiting
        :meth:`claim` or :meth:`wait_finished` is woken at once."""
        ...


def _dedupe_meta_key(dedupe_key: str) -> str:
    """Queue-meta key recording one deduped submit's task ids."""
    return f"submit-dedupe:{dedupe_key}"


def _record_op(op: str, amount: int = 1) -> None:
    """Count one queue lifecycle event in the process-wide registry."""
    if amount > 0:
        obs_families.queue_ops_total().inc(amount, op=op)


def _record_pruned(kind: str, amount: int) -> None:
    if amount > 0:
        obs_families.queue_pruned_total().inc(amount, kind=kind)


# The service layer's job bookkeeping conventions (repro.service.jobs)
# — mirrored here rather than imported so the dependency keeps pointing
# service -> distributed.  prune() must understand them to collect
# descriptors whose tasks are gone.
_JOB_META_PREFIX = "job:"


def _job_index_key(tenant: str) -> str:
    return f"jobs:{tenant}"


#: Queue-meta key holding the lowest seq the next submit may use; written
#: by SqliteQueue.prune so deleting the highest-seq rows can never make
#: MAX(seq)+1 go backwards and recycle task ids.
_SEQ_FLOOR_META_KEY = "task-seq-floor"


def _orphaned_descriptor(
    raw: str, existing_task_ids: Set[str]
) -> Optional[Tuple[str, str]]:
    """Parse one ``job:<tenant>:<id>`` descriptor; return ``(tenant,
    job_id)`` when every task it references is gone from the queue, else
    ``None`` (including for undecodable values — never delete what we
    don't understand)."""
    try:
        descriptor = json.loads(raw)
        tenant = descriptor["tenant"]
        job_id = descriptor["job_id"]
        task_ids = descriptor["task_ids"]
    except (ValueError, TypeError, KeyError):
        return None
    if not isinstance(task_ids, list):
        return None
    if any(task_id in existing_task_ids for task_id in task_ids):
        return None
    return str(tenant), str(job_id)


def _shrink_job_indexes(
    get_meta: Callable[[str], Optional[str]],
    set_meta: Callable[[str, str], None],
    dropped: Dict[str, Set[str]],
) -> None:
    """Remove pruned job ids from each tenant's ``jobs:<tenant>`` index."""
    for tenant, job_ids in dropped.items():
        raw = get_meta(_job_index_key(tenant))
        if raw is None:
            continue
        try:
            index = json.loads(raw)
        except ValueError:
            continue
        if not isinstance(index, list):
            continue
        kept = [job_id for job_id in index if job_id not in job_ids]
        if len(kept) != len(index):
            set_meta(_job_index_key(tenant), json.dumps(kept))


class SqliteQueue:
    """A durable, cross-process :class:`WorkQueue` in one sqlite file.

    Parameters
    ----------
    path:
        Database file; created (with its schema) when absent.
    timeout:
        Seconds an operation waits for sqlite's file lock before failing —
        claims from many workers serialize on the write lock instead of
        erroring.
    clock:
        Source of every timestamp this queue writes or compares (defaults
        to :func:`time.time`); injectable so lease expiry is testable
        without sleeping.
    grace_seconds:
        Clock-skew tolerance of expiry sweeps: a lease is only declared
        expired once ``lease_expires_unix + grace_seconds`` has passed.
        On a queue file shared between hosts the deadline was stamped by
        the *claimant's* clock, so the sweeper must absorb NTP steps and
        plain skew rather than double-executing a live task.

    The connection runs in autocommit mode and every mutation happens
    inside an explicit ``BEGIN IMMEDIATE`` transaction, which takes the
    database write lock up front: a claim's read-check-update is therefore
    atomic across processes, so two workers can never claim one task while
    its lease is valid.

    Unlike the result store, the queue deliberately stays on rollback
    journaling (sqlite's default) rather than WAL: WAL coordinates its
    readers and writers through a shared-memory index that only exists
    per *host*, so it must not be used on a queue file shared between
    machines — exactly the multi-host deployment this queue exists for.
    Queue transactions are tiny (a claim updates one row), so the
    write-lock serialization rollback journaling implies costs little.
    """

    def __init__(
        self,
        path: str,
        timeout: float = 30.0,
        clock: Callable[[], float] = time.time,
        grace_seconds: float = DEFAULT_LEASE_GRACE,
    ) -> None:
        self.path = str(path)
        self._clock = clock
        self._grace = _validate_grace(grace_seconds)
        self._lock = threading.Lock()
        self._closed = False
        # Waiters (see "Waiting" in the module docstring).  Each change
        # kind has an epoch, bumped after the COMMIT that made such a
        # change; a waiter reads the epoch before it looks, so a change
        # committed between its look and its wait is never missed.
        self._marks: Set[str] = set()  # kinds the open transaction changed
        self._signal = threading.Lock()
        self._ready = {
            kind: threading.Condition(self._signal) for kind in _CHANGE_KINDS
        }
        self._epochs = dict.fromkeys(_CHANGE_KINDS, 0)
        self._connection: Optional[sqlite3.Connection] = None
        try:
            self._connection = sqlite3.connect(
                self.path,
                timeout=timeout,
                check_same_thread=False,
                isolation_level=None,  # autocommit; transactions are explicit
            )
            self._initialize_schema()
        except sqlite3.Error as error:
            if self._connection is not None:
                self._connection.close()
            raise QueueError(
                f"cannot open work queue {self.path!r}: {error}"
            ) from error

    def _initialize_schema(self) -> None:
        # Never bless a foreign database (same stance as the result store):
        # a file with tables that are not ours is some other application's
        # data, and creating our schema inside it would be corruption.
        has_meta = self._connection.execute(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type = 'table' AND name = 'queue_meta'"
        ).fetchone()[0]
        foreign = self._connection.execute(
            "SELECT COUNT(*) FROM sqlite_master "
            "WHERE type IN ('table', 'view') "
            "AND name NOT IN ('queue_meta', 'tasks') "
            "AND name NOT LIKE 'sqlite_%'"
        ).fetchone()[0]
        if foreign and not has_meta:
            self._connection.close()
            raise QueueError(
                f"{self.path!r} is not a work queue: it contains unrelated "
                "tables; refusing to create the queue schema inside it"
            )
        with self._transaction():
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS queue_meta ("
                " key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._connection.execute(
                "CREATE TABLE IF NOT EXISTS tasks ("
                " task_id TEXT PRIMARY KEY,"
                " seq INTEGER NOT NULL UNIQUE,"
                " payload TEXT NOT NULL,"
                " state TEXT NOT NULL,"
                " attempts INTEGER NOT NULL DEFAULT 0,"
                " max_attempts INTEGER NOT NULL,"
                " worker_id TEXT,"
                " lease_expires_unix REAL,"
                " result TEXT,"
                " error TEXT,"
                " created_unix REAL NOT NULL,"
                " updated_unix REAL NOT NULL)"
            )
            self._connection.execute(
                "CREATE INDEX IF NOT EXISTS tasks_state_seq "
                "ON tasks (state, seq)"
            )
            row = self._connection.execute(
                "SELECT value FROM queue_meta WHERE key = 'schema_version'"
            ).fetchone()
            if row is None:
                entries = self._connection.execute(
                    "SELECT COUNT(*) FROM tasks"
                ).fetchone()[0]
                if not entries:
                    self._connection.execute(
                        "INSERT OR IGNORE INTO queue_meta (key, value) "
                        "VALUES (?, ?)",
                        ("schema_version", str(QUEUE_SCHEMA_VERSION)),
                    )
                    row = (str(QUEUE_SCHEMA_VERSION),)
        if row is None or row[0] != str(QUEUE_SCHEMA_VERSION):
            found = None if row is None else row[0]
            self._connection.close()
            raise QueueError(
                f"work queue {self.path!r} has schema version {found!r}; "
                f"this build reads version {QUEUE_SCHEMA_VERSION}. "
                "Use a fresh queue file (or a matching build)."
            )

    @contextlib.contextmanager
    def _transaction(self) -> Any:
        """``BEGIN IMMEDIATE`` … ``COMMIT``/``ROLLBACK`` under the thread lock.

        ``BEGIN IMMEDIATE`` takes the database write lock before the body
        reads anything, which is what makes read-check-update sequences
        (claims, completes) atomic across worker processes.
        """
        if self._closed:
            raise QueueError(f"work queue {self.path!r} is closed")
        with self._lock:
            self._marks = marks = set()
            try:
                self._connection.execute("BEGIN IMMEDIATE")
            except sqlite3.Error as error:
                raise QueueError(
                    f"work queue {self.path!r} failed: {error}"
                ) from error
            try:
                yield self._connection
            except sqlite3.Error as error:
                # The ROLLBACK itself fails on a connection closed under
                # us (a broker shutting down mid-request); the original
                # error must still surface as a QueueError — the server
                # maps it to a retryable 503 while closing — not as a
                # naked ProgrammingError that reads as an internal bug.
                with contextlib.suppress(sqlite3.Error):
                    self._connection.execute("ROLLBACK")
                raise QueueError(
                    f"work queue {self.path!r} failed: {error}"
                ) from error
            except BaseException:
                with contextlib.suppress(sqlite3.Error):
                    self._connection.execute("ROLLBACK")
                raise
            else:
                try:
                    self._connection.execute("COMMIT")
                except sqlite3.Error as error:
                    # A failed COMMIT (disk full, I/O error) must surface as
                    # the usual one-line queue error, and must not leave the
                    # connection stuck inside an open transaction.
                    try:
                        self._connection.execute("ROLLBACK")
                    except sqlite3.Error:
                        pass
                    raise QueueError(
                        f"work queue {self.path!r} failed: {error}"
                    ) from error
        self._notify(marks)

    def _mark(self, kind: str) -> None:
        """Record that the open transaction makes a ``kind`` change; its
        waiters are notified once the transaction commits."""
        self._marks.add(kind)

    def _notify(self, kinds: Set[str]) -> None:
        if not kinds:
            return
        with self._signal:
            for kind in kinds:
                self._epochs[kind] += 1
                self._ready[kind].notify_all()

    def _waiting(
        self, kind: str, wait_seconds: float, attempt: Callable[[], Any]
    ) -> Any:
        """``attempt()`` until it returns something truthy or
        ``wait_seconds`` have passed; between tries, sleep until this
        object commits a ``kind`` change.  The last try runs at the
        deadline, which is when another process's writes are seen."""
        wait_seconds = _validate_wait(wait_seconds)
        if not wait_seconds:
            return attempt()
        deadline = time.monotonic() + wait_seconds
        ready = self._ready[kind]
        while True:
            with ready:
                seen = self._epochs[kind]
            found = attempt()
            remaining = deadline - time.monotonic()
            if found or remaining <= 0:
                return found
            with ready:
                # On close the next attempt raises "queue is closed".
                ready.wait_for(
                    lambda: self._closed or self._epochs[kind] != seen,
                    remaining,
                )

    def _query(self, sql: str, parameters: tuple = ()) -> List[tuple]:
        """A read outside any explicit transaction."""
        if self._closed:
            raise QueueError(f"work queue {self.path!r} is closed")
        try:
            with self._lock:
                return self._connection.execute(sql, parameters).fetchall()
        except sqlite3.Error as error:
            raise QueueError(
                f"work queue {self.path!r} failed: {error}"
            ) from error

    def _query_ids(
        self, sql: str, parameters: tuple, ids: Sequence[str]
    ) -> List[tuple]:
        """The rows of ``sql`` — ending in ``task_id IN ({})`` — over
        ``ids``, bound :data:`_IDS_PER_STATEMENT` at a time and all read
        from one snapshot, unordered."""
        if self._closed:
            raise QueueError(f"work queue {self.path!r} is closed")
        try:
            with self._lock:
                self._connection.execute("BEGIN")
                try:
                    return [
                        row for chunk in _id_chunks(ids)
                        for row in self._connection.execute(
                            sql.format(_placeholders(chunk)),
                            (*parameters, *chunk),
                        ).fetchall()
                    ]
                finally:
                    self._connection.execute("ROLLBACK")
        except sqlite3.Error as error:
            raise QueueError(
                f"work queue {self.path!r} failed: {error}"
            ) from error

    # ------------------------------------------------------------------ #
    # WorkQueue interface
    # ------------------------------------------------------------------ #
    def submit(
        self,
        payloads: Sequence[Dict[str, Any]],
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        dedupe_key: Optional[str] = None,
    ) -> List[str]:
        if max_attempts < 1:
            raise QueueError(
                f"max_attempts must be a positive integer, got {max_attempts!r}"
            )
        now = self._clock()
        ids: List[str] = []
        with self._transaction() as connection:
            if dedupe_key is not None:
                # Inside the same BEGIN IMMEDIATE as the inserts, so a
                # retried submit (lost HTTP response) either sees the
                # recorded ids or records them — never a duplicate batch.
                row = connection.execute(
                    "SELECT value FROM queue_meta WHERE key = ?",
                    (_dedupe_meta_key(dedupe_key),),
                ).fetchone()
                if row is not None:
                    _record_op("duplicate")
                    return json.loads(row[0])
            row = connection.execute("SELECT MAX(seq) FROM tasks").fetchone()
            seq = (row[0] + 1) if row[0] is not None else 0
            # prune() may have deleted the highest-seq rows; the recorded
            # floor keeps seq (and task ids) monotonic regardless.
            floor_row = connection.execute(
                "SELECT value FROM queue_meta WHERE key = ?",
                (_SEQ_FLOOR_META_KEY,),
            ).fetchone()
            if floor_row is not None:
                try:
                    seq = max(seq, int(floor_row[0]))
                except (TypeError, ValueError):
                    pass
            for payload in payloads:
                task_id = f"task-{seq:06d}"
                connection.execute(
                    "INSERT INTO tasks (task_id, seq, payload, state, attempts,"
                    " max_attempts, created_unix, updated_unix)"
                    " VALUES (?, ?, ?, ?, 0, ?, ?, ?)",
                    (task_id, seq, json.dumps(payload, sort_keys=True),
                     TaskState.PENDING.value, max_attempts, now, now),
                )
                ids.append(task_id)
                seq += 1
            if ids:
                self._mark(_PENDING_CHANGE)
            if dedupe_key is not None:
                connection.execute(
                    "INSERT INTO queue_meta (key, value) VALUES (?, ?)",
                    (_dedupe_meta_key(dedupe_key), json.dumps(ids)),
                )
        _record_op("submit", len(ids))
        return ids

    def _expire_sql(self, connection: sqlite3.Connection, now: float) -> int:
        # The skew grace applies only here, on the comparison: deadlines
        # are stored as written, so a sweep with a different grace (or a
        # later build) still sees the claimant's original lease.
        cursor = connection.execute(
            "UPDATE tasks SET"
            " state = CASE WHEN attempts >= max_attempts"
            f"   THEN '{TaskState.DEAD.value}' ELSE '{TaskState.PENDING.value}' END,"
            " error = CASE WHEN attempts >= max_attempts AND error IS NULL"
            "   THEN 'lease expired' ELSE error END,"
            " worker_id = NULL,"
            " lease_expires_unix = NULL,"
            " updated_unix = ?"
            f" WHERE state = '{TaskState.RUNNING.value}'"
            " AND lease_expires_unix IS NOT NULL AND lease_expires_unix < ?",
            (now, now - self._grace),
        )
        if cursor.rowcount:
            # Released to pending or to dead: both kinds of waiter care.
            self._mark(_PENDING_CHANGE)
            self._mark(_FINISHED_CHANGE)
        _record_op("lease-expire", cursor.rowcount)
        return cursor.rowcount

    def expire_leases(self) -> int:
        with self._transaction() as connection:
            return self._expire_sql(connection, self._clock())

    def _claim_sql(
        self,
        connection: sqlite3.Connection,
        worker_id: str,
        lease_seconds: float,
        now: float,
    ) -> Optional[tuple]:
        """Lease the oldest pending task to ``worker_id``; its row, or
        ``None`` when nothing is pending."""
        row = connection.execute(
            "SELECT task_id FROM tasks WHERE state = ? ORDER BY seq LIMIT 1",
            (TaskState.PENDING.value,),
        ).fetchone()
        if row is None:
            return None
        task_id = row[0]
        cursor = connection.execute(
            "UPDATE tasks SET state = ?, worker_id = ?,"
            " attempts = attempts + 1, lease_expires_unix = ?,"
            " updated_unix = ? WHERE task_id = ? AND state = ?",
            (TaskState.RUNNING.value, worker_id, now + lease_seconds,
             now, task_id, TaskState.PENDING.value),
        )
        # The write lock was held since BEGIN IMMEDIATE, so the selected
        # row cannot have been taken by anyone else.
        assert cursor.rowcount == 1
        return connection.execute(
            _TASK_SELECT + " WHERE task_id = ?", (task_id,)
        ).fetchone()

    def _claim_once(self, worker_id: str, lease_seconds: float) -> Optional[Task]:
        now = self._clock()
        with self._transaction() as connection:
            self._expire_sql(connection, now)
            row = self._claim_sql(connection, worker_id, lease_seconds, now)
        if row is None:
            return None
        _record_op("claim")
        return _task_from_row(row)

    def claim(
        self, worker_id: str, lease_seconds: float, wait_seconds: float = 0.0
    ) -> Optional[Task]:
        return self._waiting(
            _PENDING_CHANGE, wait_seconds,
            lambda: self._claim_once(worker_id, lease_seconds),
        )

    def heartbeat(self, task_id: str, worker_id: str, lease_seconds: float) -> bool:
        now = self._clock()
        with self._transaction() as connection:
            self._expire_sql(connection, now)
            cursor = connection.execute(
                "UPDATE tasks SET lease_expires_unix = ?, updated_unix = ?"
                " WHERE task_id = ? AND worker_id = ? AND state = ?",
                (now + lease_seconds, now, task_id, worker_id,
                 TaskState.RUNNING.value),
            )
            extended = cursor.rowcount == 1
        if extended:
            _record_op("heartbeat")
        return extended

    def _complete_sql(
        self,
        connection: sqlite3.Connection,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        now: float,
    ) -> Tuple[bool, bool]:
        """The ownership-checked complete: ``(ok, completed)``, where
        ``ok`` is what :meth:`complete` returns and ``completed`` says
        whether this call (not a replayed one) finished the task."""
        cursor = connection.execute(
            "UPDATE tasks SET state = ?, result = ?, error = NULL,"
            " lease_expires_unix = NULL, updated_unix = ?"
            " WHERE task_id = ? AND worker_id = ? AND state = ?",
            (TaskState.DONE.value, json.dumps(result, sort_keys=True),
             now, task_id, worker_id, TaskState.RUNNING.value),
        )
        if cursor.rowcount == 1:
            self._mark(_FINISHED_CHANGE)
            return True, True
        # Replay check (see the protocol docstring): already done by this
        # very worker — an earlier complete whose response was lost — is
        # still a success, not a lost lease.
        row = connection.execute(
            "SELECT state, worker_id FROM tasks WHERE task_id = ?",
            (task_id,),
        ).fetchone()
        replayed = (
            row is not None
            and row[0] == TaskState.DONE.value
            and row[1] == worker_id
        )
        return replayed, False

    def complete(self, task_id: str, worker_id: str, result: Dict[str, Any]) -> bool:
        now = self._clock()
        with self._transaction() as connection:
            self._expire_sql(connection, now)
            ok, completed = self._complete_sql(
                connection, task_id, worker_id, result, now
            )
        if completed:
            _record_op("complete")
        return ok

    def complete_and_claim(
        self,
        task_id: str,
        worker_id: str,
        result: Dict[str, Any],
        lease_seconds: float,
    ) -> Tuple[bool, Optional[Task]]:
        now = self._clock()
        with self._transaction() as connection:
            self._expire_sql(connection, now)
            ok, completed = self._complete_sql(
                connection, task_id, worker_id, result, now
            )
            row = self._claim_sql(connection, worker_id, lease_seconds, now)
        if completed:
            _record_op("complete")
        if row is None:
            return ok, None
        _record_op("claim")
        return ok, _task_from_row(row)

    def fail(self, task_id: str, worker_id: str, error: str) -> bool:
        now = self._clock()
        with self._transaction() as connection:
            self._expire_sql(connection, now)
            cursor = connection.execute(
                "UPDATE tasks SET"
                " state = CASE WHEN attempts >= max_attempts"
                f"   THEN '{TaskState.DEAD.value}'"
                f"   ELSE '{TaskState.PENDING.value}' END,"
                " error = ?, worker_id = NULL, lease_expires_unix = NULL,"
                " updated_unix = ?"
                " WHERE task_id = ? AND worker_id = ? AND state = ?",
                (str(error), now, task_id, worker_id, TaskState.RUNNING.value),
            )
            failed = cursor.rowcount == 1
            next_state = None
            if failed:
                row = connection.execute(
                    "SELECT state FROM tasks WHERE task_id = ?", (task_id,)
                ).fetchone()
                next_state = row[0] if row is not None else None
                self._mark(
                    _FINISHED_CHANGE if next_state == TaskState.DEAD.value
                    else _PENDING_CHANGE
                )
        if failed:
            _record_op(
                "dead-letter" if next_state == TaskState.DEAD.value else "retry"
            )
        return failed

    def cancel_pending(self, task_ids: Sequence[str]) -> List[str]:
        now = self._clock()
        ids = list(dict.fromkeys(task_ids))
        if not ids:
            return []
        with self._transaction() as connection:
            rows = [
                row for chunk in _id_chunks(ids)
                for row in connection.execute(
                    "SELECT seq, task_id FROM tasks WHERE state = ?"
                    f" AND task_id IN ({_placeholders(chunk)})",
                    (TaskState.PENDING.value, *chunk),
                ).fetchall()
            ]
            cancelled = [task_id for _, task_id in sorted(rows)]
            for chunk in _id_chunks(cancelled):
                connection.execute(
                    "UPDATE tasks SET state = ?, error = 'cancelled',"
                    " updated_unix = ?"
                    f" WHERE task_id IN ({_placeholders(chunk)})",
                    (TaskState.CANCELLED.value, now, *chunk),
                )
            if cancelled:
                self._mark(_FINISHED_CHANGE)
        _record_op("cancel", len(cancelled))
        return cancelled

    def resubmit_dead(self) -> List[str]:
        now = self._clock()
        with self._transaction() as connection:
            ids = [
                row[0] for row in connection.execute(
                    "SELECT task_id FROM tasks WHERE state = ? ORDER BY seq",
                    (TaskState.DEAD.value,),
                ).fetchall()
            ]
            if ids:
                connection.execute(
                    "UPDATE tasks SET state = ?, attempts = 0,"
                    " worker_id = NULL, lease_expires_unix = NULL,"
                    " error = NULL, updated_unix = ? WHERE state = ?",
                    (TaskState.PENDING.value, now, TaskState.DEAD.value),
                )
                self._mark(_PENDING_CHANGE)
        _record_op("resubmit", len(ids))
        return ids

    def prune(self, ttl_seconds: float) -> Dict[str, int]:
        if not isinstance(ttl_seconds, (int, float)) or ttl_seconds < 0:
            raise QueueError(
                f"ttl_seconds must be a non-negative number, got {ttl_seconds!r}"
            )
        cutoff = self._clock() - ttl_seconds
        with self._transaction() as connection:
            # Pin the seq floor before deleting: MAX(seq) may drop.
            row = connection.execute("SELECT MAX(seq) FROM tasks").fetchone()
            if row[0] is not None:
                connection.execute(
                    "INSERT OR REPLACE INTO queue_meta (key, value)"
                    " VALUES (?, ?)",
                    (_SEQ_FLOOR_META_KEY, str(int(row[0]) + 1)),
                )
            cursor = connection.execute(
                "DELETE FROM tasks WHERE state IN (?, ?) AND updated_unix < ?",
                (TaskState.DONE.value, TaskState.CANCELLED.value, cutoff),
            )
            tasks_dropped = cursor.rowcount
            existing = {
                task_id for (task_id,) in connection.execute(
                    "SELECT task_id FROM tasks"
                ).fetchall()
            }
            dropped: Dict[str, Set[str]] = {}
            descriptors = 0
            for key, value in connection.execute(
                "SELECT key, value FROM queue_meta WHERE key LIKE ?",
                (_JOB_META_PREFIX + "%",),
            ).fetchall():
                orphan = _orphaned_descriptor(value, existing)
                if orphan is None:
                    continue
                tenant, job_id = orphan
                connection.execute(
                    "DELETE FROM queue_meta WHERE key IN (?, ?)",
                    (key, _dedupe_meta_key(f"job:{tenant}:{job_id}")),
                )
                dropped.setdefault(tenant, set()).add(job_id)
                descriptors += 1

            def get_meta_tx(meta_key: str) -> Optional[str]:
                row = connection.execute(
                    "SELECT value FROM queue_meta WHERE key = ?", (meta_key,)
                ).fetchone()
                return row[0] if row is not None else None

            def set_meta_tx(meta_key: str, value: str) -> None:
                connection.execute(
                    "INSERT OR REPLACE INTO queue_meta (key, value)"
                    " VALUES (?, ?)",
                    (meta_key, value),
                )

            _shrink_job_indexes(get_meta_tx, set_meta_tx, dropped)
        _record_pruned("task", tasks_dropped)
        _record_pruned("descriptor", descriptors)
        return {"tasks": tasks_dropped, "descriptors": descriptors}

    def counts(self) -> Dict[str, int]:
        counts = {state.value: 0 for state in TaskState}
        for state, count in self._query(
            "SELECT state, COUNT(*) FROM tasks GROUP BY state"
        ):
            counts[state] = count
        return counts

    def drained(self) -> bool:
        counts = self.counts()
        return counts["pending"] == 0 and counts["running"] == 0

    def tasks(
        self,
        state: Optional[TaskState] = None,
        task_ids: Optional[Sequence[str]] = None,
    ) -> List[Task]:
        where = " WHERE state = ?" if state is not None else ""
        parameters = (state.value,) if state is not None else ()
        if task_ids is None:
            rows = self._query(
                _TASK_SELECT + where + " ORDER BY seq", parameters
            )
        else:
            where += " AND" if where else " WHERE"
            rows = self._query_ids(
                _TASK_SELECT + where + " task_id IN ({})",
                parameters,
                list(dict.fromkeys(task_ids)),
            )
            rows.sort(key=lambda row: row[1])  # seq
        return [_task_from_row(row) for row in rows]

    def wait_finished(
        self,
        task_ids: Sequence[str],
        known: Collection[str],
        wait_seconds: float,
    ) -> List[FinishedTask]:
        known = set(known)
        wanted = [
            task_id for task_id in dict.fromkeys(task_ids)
            if task_id not in known
        ]
        if not wanted:
            return []
        return self._waiting(
            _FINISHED_CHANGE, wait_seconds, lambda: self._finished(wanted)
        )

    def _finished(self, task_ids: Sequence[str]) -> List[FinishedTask]:
        rows = self._query_ids(
            "SELECT seq, task_id, state, result, error FROM tasks"
            " WHERE state IN (?, ?, ?) AND task_id IN ({})",
            tuple(state.value for state in _FINISHED_STATES),
            task_ids,
        )
        rows.sort()
        return [
            FinishedTask(
                task_id, TaskState(state),
                json.loads(result) if result is not None else None, error,
            )
            for _, task_id, state, result, error in rows
        ]

    def get_meta(self, key: str) -> Optional[str]:
        rows = self._query(
            "SELECT value FROM queue_meta WHERE key = ?", (key,)
        )
        return rows[0][0] if rows else None

    def set_meta(self, key: str, value: str) -> None:
        with self._transaction() as connection:
            connection.execute(
                "INSERT OR REPLACE INTO queue_meta (key, value) VALUES (?, ?)",
                (key, value),
            )

    def set_meta_if_absent(self, key: str, value: str) -> bool:
        with self._transaction() as connection:
            cursor = connection.execute(
                "INSERT OR IGNORE INTO queue_meta (key, value) VALUES (?, ?)",
                (key, value),
            )
            return cursor.rowcount == 1

    def summary(self) -> Dict[str, Any]:
        # Computed in SQL over the scalar columns: `atcd dist status` polls
        # this, and must not read (or JSON-parse) every task's payload and
        # result just to report a handful of aggregates.
        total, retries = self._query(
            "SELECT COUNT(*), COALESCE(SUM(MAX(attempts - 1, 0)), 0) FROM tasks"
        )[0]
        workers = [
            row[0] for row in self._query(
                "SELECT DISTINCT worker_id FROM tasks "
                "WHERE worker_id IS NOT NULL ORDER BY worker_id"
            )
        ]
        dead = [
            {"task_id": task_id, "attempts": attempts, "error": error}
            for task_id, attempts, error in self._query(
                "SELECT task_id, attempts, error FROM tasks "
                "WHERE state = ? ORDER BY seq", (TaskState.DEAD.value,)
            )
        ]
        return {
            "kind": "sqlite",
            "schema_version": QUEUE_SCHEMA_VERSION,
            "tasks": total,
            "counts": self.counts(),
            "retries": retries,
            "workers": workers,
            "dead": dead,
            "path": self.path,
        }

    def close(self) -> None:
        # Under the lock: closing the connection while another thread runs
        # a statement on it crashes the interpreter, and a waiter woken
        # below may be about to run one.
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._connection is not None:
                self._connection.close()
        with self._signal:
            for ready in self._ready.values():
                ready.notify_all()

    def __enter__(self) -> "SqliteQueue":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


#: Ids bound per ``task_id IN (…)`` statement.  SQLite caps the
#: parameters of one statement (999 before 3.32, 32766 since), and a
#: job may hold more tasks than either.
_IDS_PER_STATEMENT = 500


def _id_chunks(ids: Sequence[str]) -> List[Sequence[str]]:
    return [
        ids[start:start + _IDS_PER_STATEMENT]
        for start in range(0, len(ids), _IDS_PER_STATEMENT)
    ]


def _placeholders(ids: Sequence[str]) -> str:
    return ", ".join("?" for _ in ids)


_TASK_SELECT = (
    "SELECT task_id, seq, payload, state, attempts, max_attempts,"
    " worker_id, lease_expires_unix, result, error FROM tasks"
)


def _task_from_row(row: tuple) -> Task:
    (task_id, seq, payload, state, attempts, max_attempts,
     worker_id, lease_expires_unix, result, error) = row
    return Task(
        task_id=task_id,
        seq=seq,
        payload=json.loads(payload),
        state=TaskState(state),
        attempts=attempts,
        max_attempts=max_attempts,
        worker_id=worker_id,
        lease_expires_unix=lease_expires_unix,
        result=json.loads(result) if result is not None else None,
        error=error,
    )


def open_queue(path: str, must_exist: bool = False) -> WorkQueue:
    """Open the work queue at ``path`` — a sqlite file or a broker URL.

    This is the single URL-dispatch point of the runtime: an
    ``http://``/``https://`` value returns a
    :class:`repro.net.HttpQueue` speaking to an ``atcd serve`` broker
    (token from ``$ATCD_BROKER_TOKEN``), anything else opens (or creates)
    a local :class:`SqliteQueue`.

    With ``must_exist=True`` a missing file is a :class:`QueueError`
    instead of a silently created empty queue — the right behaviour for
    ``atcd dist worker|status|gather``, where a typo'd path must not
    conjure an empty queue and an immediately-drained worker.  Broker
    URLs are always pinged (a URL cannot be "created", only reached), so
    an unreachable broker — or one serving no queue — fails here with
    one clear line instead of mid-run.
    """
    if path.startswith(("http://", "https://")):
        from ..net.client import HttpQueue

        queue = HttpQueue(path)
        queue.ping()
        return queue
    if must_exist and not os.path.exists(path):
        raise QueueError(f"no work queue at {path!r}")
    return SqliteQueue(path)
