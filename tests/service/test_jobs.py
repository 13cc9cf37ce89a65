"""Tests for the job layer: validation, the state machine, tenancy keys."""

import sqlite3

import pytest

import repro.distributed.queue as queue_module
from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.distributed import SqliteQueue, TaskState, Worker
from repro.service import JobManager, JobValidationError, validate_batch
from repro.service.jobs import job_meta_key

from ..conftest import CountingQueue

MODEL = serialization.to_dict(factory())


@pytest.fixture
def queue(tmp_path):
    with SqliteQueue(str(tmp_path / "jobs.queue")) as q:
        yield q


@pytest.fixture
def jobs(queue):
    return JobManager(queue)


def good_requests():
    return [{"problem": "cdpf"}, {"problem": "dgc", "budget": 2.0}]


class TestValidation:
    def test_good_batch_passes(self):
        validate_batch(MODEL, good_requests(), max_requests=10)

    def test_model_must_be_a_serialized_tree(self):
        for bad in (None, 7, [], "factory"):
            with pytest.raises(JobValidationError) as excinfo:
                validate_batch(bad, good_requests(), max_requests=10)
            assert excinfo.value.field == "model"

    def test_model_must_carry_cost_damage_attributes(self):
        # A structurally valid tree without cost/damage decorations
        # deserializes to a bare AttackTree — unanalyzable, rejected.
        bare = {"root": "a", "nodes": [{"name": "a", "type": "BAS"}]}
        with pytest.raises(JobValidationError) as excinfo:
            validate_batch(bare, good_requests(), max_requests=10)
        assert excinfo.value.field == "model"
        assert "cost/damage" in str(excinfo.value)

    def test_requests_must_be_a_nonempty_bounded_list(self):
        for bad in (None, {}, []):
            with pytest.raises(JobValidationError) as excinfo:
                validate_batch(MODEL, bad, max_requests=10)
            assert excinfo.value.field == "requests"
        with pytest.raises(JobValidationError, match="at most 1 per job"):
            validate_batch(MODEL, good_requests(), max_requests=1)

    def test_offending_request_is_named_by_index(self):
        requests = [{"problem": "cdpf"}, {"problem": "dgc"}]  # missing budget
        with pytest.raises(JobValidationError) as excinfo:
            validate_batch(MODEL, requests, max_requests=10)
        assert excinfo.value.index == 1
        assert "budget" in str(excinfo.value)

    def test_unknown_problem_and_backend_fail_fast(self):
        with pytest.raises(JobValidationError):
            validate_batch(MODEL, [{"problem": "nonsense"}], max_requests=10)
        with pytest.raises(JobValidationError):
            validate_batch(
                MODEL, [{"problem": "cdpf", "backend": "nonsense"}],
                max_requests=10,
            )


class TestStateMachine:
    def test_fresh_job_is_queued(self, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        assert status["state"] == "queued"
        assert status["count"] == 2
        assert status["completed"] == 0

    def test_claim_moves_the_job_to_running(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        queue.claim("w", lease_seconds=30)
        assert jobs.status("acme", status["job_id"])["state"] == "running"

    def test_worker_drives_the_job_to_done(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        Worker(queue, worker_id="w", poll_seconds=0.01).run()
        final = jobs.status("acme", status["job_id"])
        assert final["state"] == "done"
        assert final["completed"] == 2
        rows = jobs.results("acme", status["job_id"])["results"]
        assert [row["index"] for row in rows] == [0, 1]
        assert all(row["result"] is not None for row in rows)
        # Results carry the engine's document shape (the worker computed).
        assert rows[1]["result"]["value"] == 200.0

    def test_dead_task_fails_the_job_but_keeps_results(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        # Poison the second task by exhausting its retries manually.
        first = queue.claim("w", lease_seconds=30)
        queue.complete(first.task_id, "w", {"ok": True})
        for _ in range(3):
            task = queue.claim("w", lease_seconds=30)
            queue.fail(task.task_id, "w", "boom")
        final = jobs.status("acme", status["job_id"])
        assert final["state"] == "failed"
        rows = jobs.results("acme", status["job_id"])["results"]
        assert rows[0]["state"] == "done"
        assert rows[1]["state"] == "dead" and rows[1]["error"] == "boom"

    def test_cancel_withdraws_pending_and_is_idempotent(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        cancelled = jobs.cancel("acme", status["job_id"])
        assert cancelled["state"] == "cancelled"
        assert queue.counts()["cancelled"] == 2
        # Terminal: a second cancel (and new claims) change nothing.
        assert jobs.cancel("acme", status["job_id"])["state"] == "cancelled"
        assert queue.claim("w", lease_seconds=30) is None

    def test_cancel_lets_running_tasks_finish(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        running = queue.claim("w", lease_seconds=30)
        jobs.cancel("acme", status["job_id"])
        # The worker's lease is honored; its result is kept.
        assert queue.complete(running.task_id, "w", {"ok": True})
        rows = jobs.results("acme", status["job_id"])["results"]
        assert rows[0]["state"] == "done"
        assert rows[1]["state"] == "cancelled"
        assert jobs.status("acme", status["job_id"])["state"] == "cancelled"

    def test_cancel_after_done_stays_done(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        Worker(queue, worker_id="w", poll_seconds=0.01).run()
        assert jobs.cancel("acme", status["job_id"])["state"] == "done"


class TestTenancy:
    def test_lookups_embed_the_tenant(self, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        job_id = status["job_id"]
        assert jobs.status("acme", job_id) is not None
        # The same id under another tenant simply does not exist.
        assert jobs.status("globex", job_id) is None
        assert jobs.results("globex", job_id) is None
        assert jobs.cancel("globex", job_id) is None
        assert jobs.list_jobs("globex") == []

    def test_payloads_carry_namespace_and_job_stanza(self, queue, jobs):
        status = jobs.submit("acme", MODEL, good_requests())
        tasks = queue.tasks(TaskState.PENDING)
        for index, task in enumerate(tasks):
            assert task.payload["store_namespace"] == "acme"
            assert task.payload["job"] == {
                "id": status["job_id"], "tenant": "acme", "index": index,
            }

    def test_in_flight_counts_only_live_tasks(self, queue, jobs):
        first = jobs.submit("acme", MODEL, good_requests())
        jobs.submit("globex", MODEL, good_requests())
        assert jobs.in_flight("acme") == 2
        assert jobs.in_flight("globex") == 2
        jobs.cancel("acme", first["job_id"])
        assert jobs.in_flight("acme") == 0
        assert jobs.in_flight("globex") == 2

    def test_list_jobs_preserves_submission_order(self, jobs):
        ids = [
            jobs.submit("acme", MODEL, good_requests(), name=f"j{i}")["job_id"]
            for i in range(3)
        ]
        listed = jobs.list_jobs("acme")
        assert [status["job_id"] for status in listed] == ids
        assert [status["name"] for status in listed] == ["j0", "j1", "j2"]

    def test_rejected_batch_leaves_no_trace(self, queue, jobs):
        with pytest.raises(JobValidationError):
            jobs.submit("acme", MODEL, [{"problem": "nonsense"}])
        assert queue.counts()["pending"] == 0
        assert jobs.list_jobs("acme") == []


class TestQueueReads:
    """The job layer reads a job's rows by id and only the live rows for
    quotas: no call scans the whole queue."""

    def test_reads_never_scan_the_whole_queue(self, queue):
        counted = CountingQueue(queue)
        jobs = JobManager(counted)
        first = jobs.submit("acme", MODEL, good_requests())
        jobs.submit("acme", MODEL, good_requests())
        jobs.submit("globex", MODEL, good_requests())
        Worker(queue, worker_id="w", poll_seconds=0.01, max_tasks=3).run()
        counted.calls.clear()
        job_id = first["job_id"]
        assert jobs.status("acme", job_id)["state"] == "done"
        assert len(jobs.results("acme", job_id)["results"]) == 2
        assert jobs.in_flight("acme") == 1
        assert jobs.in_flight("globex") == 2
        assert counted.calls and not counted.unfiltered_scans()

    def test_results_read_the_descriptor_and_the_tasks_once(self, queue):
        counted = CountingQueue(queue)
        jobs = JobManager(counted)
        job_id = jobs.submit("acme", MODEL, good_requests())["job_id"]
        counted.calls.clear()
        document = jobs.results("acme", job_id)
        assert document["job"]["job_id"] == job_id
        assert counted.calls == [
            ("get_meta", job_meta_key("acme", job_id)),
            ("tasks", None,
             tuple(row["task_id"] for row in document["results"])),
        ]

    def test_in_flight_skips_finished_jobs(self, queue):
        counted = CountingQueue(queue)
        jobs = JobManager(counted)
        done = jobs.submit("acme", MODEL, good_requests())["job_id"]
        Worker(queue, worker_id="w", poll_seconds=0.01).run()
        live = jobs.submit("acme", MODEL, good_requests())["job_id"]
        counted.calls.clear()
        assert jobs.in_flight("acme") == 2
        read = [call[1] for call in counted.calls if call[0] == "get_meta"]
        assert read == [job_meta_key("acme", live)]
        assert job_meta_key("acme", done) not in read

    def test_a_queue_that_ignores_task_ids_still_gives_each_job_its_own(
        self, queue
    ):
        jobs = JobManager(CountingQueue(queue, ignore_task_ids=True))
        first = jobs.submit("acme", MODEL, good_requests())
        second = jobs.submit("acme", MODEL, [{"problem": "cdpf"}])
        jobs.submit("globex", MODEL, good_requests())
        queue.claim("w", lease_seconds=30)  # the first job's first task
        status = jobs.status("acme", first["job_id"])
        assert status["task_counts"]["running"] == 1
        assert status["task_counts"]["pending"] == 1
        rows = jobs.results("acme", second["job_id"])["results"]
        assert [row["index"] for row in rows] == [0]
        assert jobs.results("acme", second["job_id"])["job"]["count"] == 1
        assert jobs.in_flight("acme") == 3

    @pytest.mark.skipif(
        not hasattr(sqlite3.Connection, "setlimit"),
        reason="Connection.setlimit needs Python 3.11",
    )
    def test_a_job_above_the_sqlite_parameter_cap(self, queue, monkeypatch):
        """A job with more tasks than one SQLite statement may bind (the
        cap is lowered here so the job stays small) is submitted, read,
        answered and cancelled like any other."""
        queue._connection.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 50)
        monkeypatch.setattr(queue_module, "_IDS_PER_STATEMENT", 20)
        jobs = JobManager(queue, max_requests=200)
        requests = [{"problem": "dgc", "budget": 2.0}] * 120
        job = jobs.submit("acme", MODEL, requests)
        assert job["count"] == 120
        assert jobs.status("acme", job["job_id"])["task_counts"]["pending"] \
            == 120
        Worker(queue, worker_id="w", poll_seconds=0.01, max_tasks=3).run()
        rows = jobs.results("acme", job["job_id"])["results"]
        assert [row["index"] for row in rows] == list(range(120))
        assert [row["state"] for row in rows[:4]] == [
            "done", "done", "done", "pending"
        ]
        cancelled = jobs.cancel("acme", job["job_id"])
        assert cancelled["state"] == "cancelled"
        assert cancelled["task_counts"]["cancelled"] == 117
