"""Tests for the durable work queue: state machine, leases, hardening.

The semantic tests run against both implementations (the HTTP broker
client must behave exactly like the sqlite queue) and against two sqlite
handles on one file used in turn (nothing may be kept per handle); the
hardening and cross-process tests target :class:`SqliteQueue`, mirroring ``tests/engine/test_store.py``.  Lease-timing tests construct
queues with ``grace_seconds=0`` so short leases expire on the dot; the
skew grace itself is covered by :class:`TestClockAndGrace` with an
injected clock.
"""

import json
import os
import signal
import sqlite3
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro.distributed.queue as queue_module
from repro.distributed import (
    QueueError,
    SqliteQueue,
    TaskState,
    open_queue,
)

from ..conftest import TwoHandles

SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def queue_path(tmp_path):
    return str(tmp_path / "queue.sqlite")


@pytest.fixture(params=["sqlite", "sqlite-shared", "http"])
def any_queue(request, queue_path):
    if request.param == "http":
        from repro.net import BrokerServer, HttpQueue

        server = BrokerServer(queue_path=queue_path, grace_seconds=0.0)
        server.start()
        queue = HttpQueue(server.url)
        yield queue
        queue.close()
        server.close()
        return
    if request.param == "sqlite-shared":
        queue = TwoHandles(
            SqliteQueue(queue_path, grace_seconds=0.0),
            SqliteQueue(queue_path, grace_seconds=0.0),
        )
    else:
        queue = SqliteQueue(queue_path, grace_seconds=0.0)
    yield queue
    queue.close()


@pytest.fixture
def default_bind_cap(monkeypatch):
    """Queues opened after this fixture bind at most 32766 parameters per
    statement — SQLite's built-in default, which some distributions raise
    (needs ``Connection.setlimit``, Python 3.11+; a no-op before)."""
    connect = sqlite3.connect

    def capped(*args, **kwargs):
        connection = connect(*args, **kwargs)
        if hasattr(connection, "setlimit"):
            connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 32766)
        return connection

    monkeypatch.setattr(sqlite3, "connect", capped)


def payloads(n):
    return [{"kind": "test", "index": i} for i in range(n)]


class TestSubmitClaim:
    def test_submit_creates_pending_tasks(self, any_queue):
        ids = any_queue.submit(payloads(3))
        assert len(ids) == len(set(ids)) == 3
        assert any_queue.counts() == {
            "pending": 3, "running": 0, "done": 0, "dead": 0, "cancelled": 0,
        }
        assert not any_queue.drained()

    def test_submit_rejects_nonpositive_retry_budget(self, any_queue):
        with pytest.raises(QueueError, match="max_attempts"):
            any_queue.submit(payloads(1), max_attempts=0)

    def test_claim_follows_submission_order(self, any_queue):
        any_queue.submit(payloads(3))
        claimed = [
            any_queue.claim("w", lease_seconds=30).payload["index"]
            for _ in range(3)
        ]
        assert claimed == [0, 1, 2]

    def test_claim_round_trips_payload(self, any_queue):
        payload = {"kind": "test", "nested": {"values": [1, 2.5, "x"]}}
        any_queue.submit([payload])
        task = any_queue.claim("w", lease_seconds=30)
        assert task.payload == payload
        assert task.state is TaskState.RUNNING
        assert task.attempts == 1
        assert task.worker_id == "w"
        assert task.lease_expires_unix is not None

    def test_claim_on_empty_queue_returns_none(self, any_queue):
        assert any_queue.claim("w", lease_seconds=30) is None
        any_queue.submit(payloads(1))
        any_queue.claim("w", lease_seconds=30)
        assert any_queue.claim("w2", lease_seconds=30) is None

    def test_second_submit_continues_sequence(self, any_queue):
        first = any_queue.submit(payloads(2))
        second = any_queue.submit(payloads(2))
        assert len(set(first) | set(second)) == 4
        seqs = [task.seq for task in any_queue.tasks()]
        assert seqs == sorted(seqs) and len(set(seqs)) == 4


class TestCompleteFail:
    def test_complete_stores_result(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        assert any_queue.complete(task.task_id, "w", {"answer": 42})
        done = any_queue.tasks(TaskState.DONE)
        assert len(done) == 1 and done[0].result == {"answer": 42}
        assert any_queue.drained()

    def test_complete_by_non_owner_is_rejected(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        assert not any_queue.complete(task.task_id, "impostor", {"answer": 0})
        assert any_queue.counts()["running"] == 1

    def test_fail_returns_task_to_pending_with_error(self, any_queue):
        any_queue.submit(payloads(1), max_attempts=3)
        task = any_queue.claim("w", lease_seconds=30)
        assert any_queue.fail(task.task_id, "w", "boom")
        pending = any_queue.tasks(TaskState.PENDING)
        assert len(pending) == 1
        assert pending[0].error == "boom"
        assert pending[0].attempts == 1

    def test_fail_by_non_owner_is_rejected(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        assert not any_queue.fail(task.task_id, "impostor", "boom")

    def test_retry_budget_exhaustion_dead_letters(self, any_queue):
        any_queue.submit(payloads(1), max_attempts=2)
        for attempt in (1, 2):
            task = any_queue.claim("w", lease_seconds=30)
            assert task.attempts == attempt
            any_queue.fail(task.task_id, "w", f"boom {attempt}")
        assert any_queue.claim("w", lease_seconds=30) is None
        dead = any_queue.tasks(TaskState.DEAD)
        assert len(dead) == 1 and dead[0].error == "boom 2"
        # Dead is terminal: the queue is drained, not stuck.
        assert any_queue.drained()


class TestCancel:
    def test_cancel_pending_is_terminal_and_not_claimable(self, any_queue):
        ids = any_queue.submit(payloads(3))
        cancelled = any_queue.cancel_pending(ids)
        assert cancelled == ids  # submission (seq) order
        assert any_queue.counts() == {
            "pending": 0, "running": 0, "done": 0, "dead": 0, "cancelled": 3,
        }
        assert any_queue.claim("w", lease_seconds=30) is None
        # Cancelled is terminal: nothing pending or running remains.
        assert any_queue.drained()
        for task in any_queue.tasks(TaskState.CANCELLED):
            assert task.error == "cancelled"

    def test_cancel_skips_running_done_and_dead_tasks(self, any_queue):
        ids = any_queue.submit(payloads(4), max_attempts=1)
        running = any_queue.claim("w", lease_seconds=30)
        done = any_queue.claim("w", lease_seconds=30)
        any_queue.complete(done.task_id, "w", {"ok": True})
        dead = any_queue.claim("w", lease_seconds=30)
        any_queue.fail(dead.task_id, "w", "boom")
        cancelled = any_queue.cancel_pending(ids)
        # Only the one still-pending task was withdrawn.
        assert cancelled == [ids[3]]
        counts = any_queue.counts()
        assert counts["cancelled"] == 1 and counts["running"] == 1
        # The running task's owner can still finish its attempt.
        assert any_queue.complete(running.task_id, "w", {"ok": True})

    def test_cancel_unknown_ids_is_a_noop(self, any_queue):
        any_queue.submit(payloads(1))
        assert any_queue.cancel_pending(["task-999999", "nonsense"]) == []
        assert any_queue.counts()["pending"] == 1

    def test_resubmit_dead_does_not_revive_cancelled(self, any_queue):
        ids = any_queue.submit(payloads(2), max_attempts=1)
        task = any_queue.claim("w", lease_seconds=30)
        any_queue.fail(task.task_id, "w", "boom")  # -> dead
        any_queue.cancel_pending(ids)  # -> the other one cancelled
        revived = any_queue.resubmit_dead()
        assert revived == [task.task_id]
        assert any_queue.counts()["cancelled"] == 1


class TestTasksById:
    """``tasks(task_ids=...)``: a job's rows by primary key, in seq order."""

    def test_only_the_named_tasks_in_submission_order(self, any_queue):
        ids = any_queue.submit(payloads(5))
        picked = any_queue.tasks(task_ids=[ids[3], ids[0], ids[2]])
        assert [task.task_id for task in picked] == [ids[0], ids[2], ids[3]]
        assert [task.payload["index"] for task in picked] == [0, 2, 3]

    def test_unknown_and_repeated_ids_are_skipped(self, any_queue):
        ids = any_queue.submit(payloads(2))
        picked = any_queue.tasks(
            task_ids=["task-999999", ids[1], "nonsense", ids[1]]
        )
        assert [task.task_id for task in picked] == [ids[1]]
        assert any_queue.tasks(task_ids=[]) == []

    def test_combines_with_a_state_filter(self, any_queue):
        ids = any_queue.submit(payloads(4))
        claimed = any_queue.claim("w", lease_seconds=30)
        any_queue.complete(claimed.task_id, "w", {"ok": True})
        pending = any_queue.tasks(TaskState.PENDING, task_ids=ids[:3])
        assert [task.task_id for task in pending] == ids[1:3]
        (done,) = any_queue.tasks(TaskState.DONE, task_ids=ids)
        assert done.task_id == ids[0] and done.result == {"ok": True}
        assert any_queue.tasks(TaskState.DEAD, task_ids=ids) == []

    def test_a_thousand_ids_in_one_call(self, any_queue):
        """1000 is the service's default largest batch (one job)."""
        noise = any_queue.submit(payloads(10))
        ids = any_queue.submit(payloads(1000))
        picked = any_queue.tasks(task_ids=list(reversed(ids)))
        assert [task.task_id for task in picked] == ids
        assert not {task.task_id for task in picked} & set(noise)

    def test_more_ids_than_sqlite_binds_in_one_statement(
        self, default_bind_cap, any_queue
    ):
        """SQLite caps one statement at 32766 parameters (999 before 3.32):
        the ids are bound in chunks, merged back into seq order."""
        ids = any_queue.submit(payloads(6))
        unknown = [f"task-x{i}" for i in range(40000)]
        asked = unknown[:20000] + ids[::-1] + unknown[20000:]
        assert [t.task_id for t in any_queue.tasks(task_ids=asked)] == ids
        pending = any_queue.tasks(TaskState.PENDING, task_ids=asked)
        assert [task.task_id for task in pending] == ids
        assert any_queue.cancel_pending(asked) == ids
        assert any_queue.counts()["cancelled"] == 6

    def test_chunks_merge_in_seq_order(self, any_queue, monkeypatch):
        monkeypatch.setattr(queue_module, "_IDS_PER_STATEMENT", 2)
        ids = any_queue.submit(payloads(7))
        claimed = any_queue.claim("w", lease_seconds=30)
        any_queue.complete(claimed.task_id, "w", {"ok": True})
        shuffled = [ids[5], ids[0], ids[6], ids[2], ids[4], ids[1], ids[3]]
        picked = any_queue.tasks(task_ids=shuffled)
        assert [task.task_id for task in picked] == ids
        pending = any_queue.tasks(TaskState.PENDING, task_ids=shuffled)
        assert [task.task_id for task in pending] == ids[1:]
        assert any_queue.cancel_pending(shuffled[:5]) == [
            ids[2], ids[4], ids[5], ids[6]
        ]
        assert [
            task.task_id for task in any_queue.tasks(TaskState.PENDING)
        ] == [ids[1], ids[3]]


class TestLeases:
    def test_expired_lease_returns_task_to_pending(self, any_queue):
        any_queue.submit(payloads(1))
        any_queue.claim("crashed", lease_seconds=0.05)
        time.sleep(0.1)
        assert any_queue.expire_leases() == 1
        task = any_queue.claim("survivor", lease_seconds=30)
        assert task is not None
        assert task.attempts == 2
        assert task.worker_id == "survivor"

    def test_claim_sweeps_expired_leases_itself(self, any_queue):
        # No separate janitor needed: a claim alone must recover the task.
        any_queue.submit(payloads(1))
        any_queue.claim("crashed", lease_seconds=0.05)
        time.sleep(0.1)
        assert any_queue.claim("survivor", lease_seconds=30) is not None

    def test_live_lease_is_invisible_to_others(self, any_queue):
        any_queue.submit(payloads(1))
        any_queue.claim("w1", lease_seconds=30)
        assert any_queue.expire_leases() == 0
        assert any_queue.claim("w2", lease_seconds=30) is None

    def test_heartbeat_extends_the_lease(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=0.15)
        for _ in range(4):
            time.sleep(0.05)
            assert any_queue.heartbeat(task.task_id, "w", 0.15)
        # Renewed past several lease intervals, still ours.
        assert any_queue.expire_leases() == 0
        assert any_queue.complete(task.task_id, "w", {"ok": True})

    def test_heartbeat_by_non_owner_is_rejected(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        assert not any_queue.heartbeat(task.task_id, "impostor", 30)

    def test_stale_owner_cannot_complete_after_reassignment(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("slow", lease_seconds=0.05)
        time.sleep(0.1)
        reclaimed = any_queue.claim("fast", lease_seconds=30)
        assert reclaimed is not None
        # The slow worker finally finishes, but the task is not its anymore.
        assert not any_queue.complete(task.task_id, "slow", {"late": True})
        assert any_queue.complete(reclaimed.task_id, "fast", {"ok": True})
        done = any_queue.tasks(TaskState.DONE)
        assert done[0].result == {"ok": True}

    def test_expiry_at_budget_dead_letters_with_reason(self, any_queue):
        any_queue.submit(payloads(1), max_attempts=1)
        any_queue.claim("crashed", lease_seconds=0.05)
        time.sleep(0.1)
        any_queue.expire_leases()
        dead = any_queue.tasks(TaskState.DEAD)
        assert len(dead) == 1 and dead[0].error == "lease expired"


class TestMetaAndSummary:
    def test_meta_round_trip(self, any_queue):
        assert any_queue.get_meta("run") is None
        any_queue.set_meta("run", json.dumps({"name": "smoke"}))
        assert json.loads(any_queue.get_meta("run")) == {"name": "smoke"}
        any_queue.set_meta("run", "v2")
        assert any_queue.get_meta("run") == "v2"

    def test_set_meta_if_absent_is_first_writer_wins(self, any_queue):
        assert any_queue.set_meta_if_absent("run", "first")
        assert not any_queue.set_meta_if_absent("run", "second")
        assert any_queue.get_meta("run") == "first"

    def test_summary_counts_retries_and_workers(self, any_queue):
        any_queue.submit(payloads(2), max_attempts=3)
        task = any_queue.claim("w1", lease_seconds=30)
        any_queue.fail(task.task_id, "w1", "boom")
        task = any_queue.claim("w2", lease_seconds=30)
        any_queue.complete(task.task_id, "w2", {})
        summary = any_queue.summary()
        assert summary["tasks"] == 2
        assert summary["retries"] == 1
        assert "w2" in summary["workers"]
        assert summary["dead"] == []

    def test_summary_lists_dead_tasks(self, any_queue):
        any_queue.submit(payloads(1), max_attempts=1)
        task = any_queue.claim("w", lease_seconds=30)
        any_queue.fail(task.task_id, "w", "poison")
        summary = any_queue.summary()
        assert summary["dead"] == [
            {"task_id": task.task_id, "attempts": 1, "error": "poison"}
        ]


class TestSqliteHardening:
    def test_corrupted_file_raises_queue_error(self, queue_path):
        Path(queue_path).write_bytes(b"this is not a sqlite database\x00")
        with pytest.raises(QueueError, match="cannot open work queue"):
            SqliteQueue(queue_path)

    def test_stale_schema_version_is_rejected(self, queue_path):
        SqliteQueue(queue_path).close()
        with sqlite3.connect(queue_path) as connection:
            connection.execute(
                "UPDATE queue_meta SET value = '999' WHERE key = 'schema_version'"
            )
        with pytest.raises(QueueError, match="schema version '999'"):
            SqliteQueue(queue_path)

    def test_foreign_database_is_never_blessed(self, tmp_path):
        foreign = str(tmp_path / "myapp.sqlite")
        with sqlite3.connect(foreign) as connection:
            connection.execute("CREATE TABLE users (id INTEGER PRIMARY KEY)")
        with pytest.raises(QueueError, match="not a work queue"):
            SqliteQueue(foreign)
        with sqlite3.connect(foreign) as connection:
            tables = {
                row[0]
                for row in connection.execute(
                    "SELECT name FROM sqlite_master WHERE type = 'table'"
                )
            }
        assert tables == {"users"}

    def test_open_queue_must_exist(self, tmp_path):
        with pytest.raises(QueueError, match="no work queue"):
            open_queue(str(tmp_path / "absent.sqlite"), must_exist=True)

    def test_open_queue_creates_when_allowed(self, queue_path):
        with open_queue(queue_path) as queue:
            assert queue.counts()["pending"] == 0
        assert Path(queue_path).exists()

    def test_closed_queue_refuses_operations(self, queue_path):
        queue = SqliteQueue(queue_path)
        queue.close()
        with pytest.raises(QueueError, match="closed"):
            queue.claim("w", lease_seconds=30)
        queue.close()  # idempotent


_CLAIMER_SCRIPT = """
import json, sys
sys.path.insert(0, {src!r})
from repro.distributed import SqliteQueue

path, worker = sys.argv[1], sys.argv[2]
queue = SqliteQueue(path)
claimed = []
while True:
    task = queue.claim(worker, lease_seconds=60)
    if task is None:
        break
    claimed.append(task.task_id)
    queue.complete(task.task_id, worker, {{"by": worker}})
queue.close()
print(json.dumps(claimed))
"""

_HANG_SCRIPT = """
import sys, time
sys.path.insert(0, {src!r})
from repro.distributed import SqliteQueue

queue = SqliteQueue(sys.argv[1])
task = queue.claim(sys.argv[2], lease_seconds=float(sys.argv[3]))
assert task is not None
print(task.task_id, flush=True)
time.sleep(600)  # hold the claim until killed
"""


class TestCrossProcess:
    def test_two_worker_processes_never_double_claim(self, queue_path):
        """Two OS processes drain one queue; every task is claimed once."""
        queue = SqliteQueue(queue_path, grace_seconds=0.0)
        ids = queue.submit(payloads(40))
        script = _CLAIMER_SCRIPT.format(src=SRC)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, queue_path, worker],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
            for worker in ("w1", "w2")
        ]
        claims = {}
        for worker, proc in zip(("w1", "w2"), procs):
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            claims[worker] = json.loads(out)
        # No overlap, nothing lost, nothing executed twice.
        assert set(claims["w1"]).isdisjoint(claims["w2"])
        assert sorted(claims["w1"] + claims["w2"]) == sorted(ids)
        assert queue.counts()["done"] == 40
        queue.close()

    def test_killed_claimer_releases_task_via_lease_expiry(self, queue_path):
        """SIGKILL mid-claim: the lease lapses and another process recovers."""
        queue = SqliteQueue(queue_path, grace_seconds=0.0)
        queue.submit(payloads(1))
        script = _HANG_SCRIPT.format(src=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-c", script, queue_path, "doomed", "0.5"],
            stdout=subprocess.PIPE, text=True,
        )
        task_id = proc.stdout.readline().strip()
        assert task_id
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=30)
        time.sleep(0.7)  # let the lease lapse
        task = queue.claim("survivor", lease_seconds=30)
        assert task is not None and task.task_id == task_id
        assert task.attempts == 2
        queue.close()


class TestResubmitDead:
    def _dead_letter(self, queue, n=1, max_attempts=1):
        queue.submit(payloads(n), max_attempts=max_attempts)
        ids = []
        for _ in range(n):
            task = queue.claim("w", lease_seconds=30)
            queue.fail(task.task_id, "w", "poison")
            ids.append(task.task_id)
        return ids

    def test_resubmit_requeues_dead_tasks_with_fresh_budget(self, any_queue):
        dead_ids = self._dead_letter(any_queue, n=2)
        assert any_queue.counts()["dead"] == 2
        assert any_queue.resubmit_dead() == dead_ids
        pending = any_queue.tasks(TaskState.PENDING)
        assert [task.task_id for task in pending] == dead_ids
        for task in pending:
            assert task.attempts == 0
            assert task.error is None
            assert task.worker_id is None
        # The full retry budget is available again.
        task = any_queue.claim("w2", lease_seconds=30)
        assert task.attempts == 1
        assert any_queue.complete(task.task_id, "w2", {"ok": True})

    def test_resubmit_preserves_submission_order(self, any_queue):
        self._dead_letter(any_queue, n=3)
        ids = any_queue.resubmit_dead()
        claimed = [
            any_queue.claim("w", lease_seconds=30).task_id for _ in range(3)
        ]
        assert claimed == ids

    def test_resubmit_with_no_dead_tasks_is_a_noop(self, any_queue):
        any_queue.submit(payloads(1))
        assert any_queue.resubmit_dead() == []
        assert any_queue.counts()["pending"] == 1

    def test_resubmit_leaves_done_tasks_untouched(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        any_queue.complete(task.task_id, "w", {"answer": 1})
        self._dead_letter(any_queue)
        any_queue.resubmit_dead()
        (done,) = any_queue.tasks(TaskState.DONE)
        assert done.result == {"answer": 1}


class TestPrune:
    """Retention sweeps (``atcd queue prune``) across all three queues."""

    def _finish(self, queue, task_id, worker="w"):
        queue.complete(task_id, worker, {"ok": True})

    def test_prunes_done_and_cancelled_past_ttl(self, any_queue):
        ids = any_queue.submit(payloads(3))
        task = any_queue.claim("w", lease_seconds=30)
        self._finish(any_queue, task.task_id)
        any_queue.cancel_pending([ids[1]])
        time.sleep(0.01)
        assert any_queue.prune(0.0) == {"tasks": 2, "descriptors": 0}
        assert any_queue.counts() == {
            "pending": 1, "running": 0, "done": 0, "dead": 0, "cancelled": 0,
        }

    def test_generous_ttl_keeps_fresh_finishes(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        self._finish(any_queue, task.task_id)
        assert any_queue.prune(3600.0) == {"tasks": 0, "descriptors": 0}
        assert any_queue.counts()["done"] == 1

    def test_pending_running_and_dead_tasks_survive(self, any_queue):
        any_queue.submit(payloads(3), max_attempts=1)
        any_queue.claim("w", lease_seconds=30)  # running
        doomed = any_queue.claim("w", lease_seconds=30)
        any_queue.fail(doomed.task_id, "w", "boom")  # dead
        time.sleep(0.01)
        assert any_queue.prune(0.0) == {"tasks": 0, "descriptors": 0}
        counts = any_queue.counts()
        assert counts == {
            "pending": 1, "running": 1, "done": 0, "dead": 1, "cancelled": 0,
        }

    def test_orphaned_job_descriptors_are_collected(self, any_queue):
        ids = any_queue.submit(payloads(2))
        descriptor = {"tenant": "acme", "job_id": "j1", "task_ids": ids}
        any_queue.set_meta("job:acme:j1", json.dumps(descriptor))
        any_queue.set_meta_if_absent(
            "submit-dedupe:job:acme:j1", json.dumps(ids)
        )
        any_queue.set_meta("jobs:acme", json.dumps(["j1"]))
        for _ in ids:
            task = any_queue.claim("w", lease_seconds=30)
            self._finish(any_queue, task.task_id)
        time.sleep(0.01)
        # While any task is alive the descriptor stays; once pruned it goes
        # along with its dedupe record and tenant-index entry.
        assert any_queue.prune(0.0) == {"tasks": 2, "descriptors": 1}
        assert any_queue.get_meta("job:acme:j1") is None
        assert any_queue.get_meta("submit-dedupe:job:acme:j1") is None
        assert json.loads(any_queue.get_meta("jobs:acme")) == []

    def test_descriptor_with_a_live_task_is_kept(self, any_queue):
        ids = any_queue.submit(payloads(2))
        descriptor = {"tenant": "acme", "job_id": "j1", "task_ids": ids}
        any_queue.set_meta("job:acme:j1", json.dumps(descriptor))
        task = any_queue.claim("w", lease_seconds=30)
        self._finish(any_queue, task.task_id)  # the other stays pending
        time.sleep(0.01)
        assert any_queue.prune(0.0) == {"tasks": 1, "descriptors": 0}
        assert any_queue.get_meta("job:acme:j1") is not None

    def test_dead_tasks_keep_their_descriptor_inspectable(self, any_queue):
        ids = any_queue.submit(payloads(1), max_attempts=1)
        descriptor = {"tenant": "acme", "job_id": "j1", "task_ids": ids}
        any_queue.set_meta("job:acme:j1", json.dumps(descriptor))
        task = any_queue.claim("w", lease_seconds=30)
        any_queue.fail(task.task_id, "w", "boom")
        time.sleep(0.01)
        assert any_queue.prune(0.0) == {"tasks": 0, "descriptors": 0}
        assert any_queue.get_meta("job:acme:j1") is not None

    def test_undecodable_descriptors_are_never_deleted(self, any_queue):
        any_queue.set_meta("job:acme:junk", "not json {")
        assert any_queue.prune(0.0) == {"tasks": 0, "descriptors": 0}
        assert any_queue.get_meta("job:acme:junk") == "not json {"

    def test_task_ids_are_not_recycled_after_prune(self, any_queue):
        first = any_queue.submit(payloads(2))
        for _ in first:
            task = any_queue.claim("w", lease_seconds=30)
            self._finish(any_queue, task.task_id)
        time.sleep(0.01)
        any_queue.prune(0.0)
        second = any_queue.submit(payloads(2))
        assert not set(first) & set(second)

    def test_negative_ttl_is_rejected(self, any_queue):
        with pytest.raises(QueueError, match="ttl"):
            any_queue.prune(-1.0)


class TestClockAndGrace:
    """Lease expiry must run on the queue's injected clock, with a skew
    grace — an NTP step on one host must never double-execute a task."""

    @pytest.fixture(params=["sqlite", "sqlite-shared"])
    def clocked_queue(self, request, queue_path):
        clock = {"now": 1000.0}
        handles = [
            SqliteQueue(queue_path, clock=lambda: clock["now"], grace_seconds=5.0)
            for _ in range(2 if request.param == "sqlite-shared" else 1)
        ]
        queue = TwoHandles(*handles) if len(handles) == 2 else handles[0]
        yield queue, clock
        queue.close()

    def test_expiry_uses_injected_clock_not_wall_time(self, clocked_queue):
        queue, clock = clocked_queue
        queue.submit(payloads(1))
        queue.claim("w", lease_seconds=10)
        # No wall-clock sleep anywhere: only the injected clock moves.
        clock["now"] = 1009.0
        assert queue.expire_leases() == 0
        clock["now"] = 1016.0  # past deadline (1010) + grace (5)
        assert queue.expire_leases() == 1
        assert queue.counts()["pending"] == 1

    def test_lease_within_grace_is_not_expired(self, clocked_queue):
        """Deadline passed, but by less than the grace: the lease holds,
        so a skewed sweeper cannot hand the task to a second worker."""
        queue, clock = clocked_queue
        queue.submit(payloads(1))
        task = queue.claim("w", lease_seconds=10)
        clock["now"] = 1014.0  # 4s past the deadline, inside the 5s grace
        assert queue.expire_leases() == 0
        assert queue.claim("thief", lease_seconds=10) is None
        # The rightful owner can still finish.
        assert queue.complete(task.task_id, "w", {"ok": True})

    def test_backward_clock_step_never_expires_a_live_lease(self, clocked_queue):
        queue, clock = clocked_queue
        queue.submit(payloads(1))
        task = queue.claim("w", lease_seconds=10)
        clock["now"] = 900.0  # NTP stepped the clock backwards
        assert queue.expire_leases() == 0
        assert queue.heartbeat(task.task_id, "w", 10)
        assert queue.complete(task.task_id, "w", {"ok": True})

    def test_negative_grace_is_rejected(self, queue_path):
        with pytest.raises(QueueError, match="grace_seconds"):
            SqliteQueue(queue_path, grace_seconds=-0.5)


class TestReplayIdempotence:
    """Lost-response replays (the HTTP client's retry) must not corrupt
    state or misreport outcomes; see the protocol docstrings."""

    def test_complete_replay_by_owner_is_still_success(self, any_queue):
        any_queue.submit(payloads(1))
        task = any_queue.claim("w", lease_seconds=30)
        assert any_queue.complete(task.task_id, "w", {"answer": 1})
        # The same worker's replayed complete: success, not a lost lease.
        assert any_queue.complete(task.task_id, "w", {"answer": 1})
        # A different worker's complete is still rejected.
        assert not any_queue.complete(task.task_id, "impostor", {"answer": 2})
        (done,) = any_queue.tasks(TaskState.DONE)
        assert done.result == {"answer": 1} and done.worker_id == "w"

    def test_submit_dedupe_key_replay_returns_original_ids(self, any_queue):
        first = any_queue.submit(payloads(2), dedupe_key="batch-1")
        assert any_queue.submit(payloads(2), dedupe_key="batch-1") == first
        assert any_queue.counts()["pending"] == 2
