"""Tests for the coordinator: sharding, waiting, gathering, fault tolerance.

The acceptance bar for the distributed runtime: a distributed profile run's
artifact results are identical to a sequential run of the same profile,
crashed workers lose no cases and duplicate none, and poison tasks are
dead-lettered without sinking the run.
"""

import json
import sqlite3
import threading
import time

import pytest

from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.bench.harness import execute_specs
from repro.distributed import Coordinator, QueueError, SqliteQueue, Worker
from repro.engine import AnalysisRequest, AnalysisSession
from repro.workloads import ScenarioSpec

TINY_SPECS = [
    ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
    ScenarioSpec(family="catalog", shape="dag", setting="deterministic"),
]

RESULT_KEYS = ("case_id", "problem", "backend", "result_points", "value")


def results_section(rows):
    """The comparison key the CI gate uses: identity + results, no timings."""
    return json.dumps(
        [{key: row.get(key) for key in RESULT_KEYS} for row in rows],
        sort_keys=True,
    )


def run_workers(queue, count, **kwargs):
    workers = [
        Worker(queue, worker_id=f"w{i}", poll_seconds=0.01, **kwargs)
        for i in range(count)
    ]
    threads = [threading.Thread(target=worker.run) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


class TestProfileRuns:
    def test_distributed_results_identical_to_sequential(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS)
        run_workers(queue, 2)
        coordinator.wait(timeout=30)
        report = coordinator.gather(distributed={"workers": 2})
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(report.output["runs"]) == \
            results_section(sequential)
        assert report.dead == [] and report.retries == 0
        assert report.output["config"]["distributed"]["workers"] == 2
        assert len(report.workers) >= 1

    def test_artifact_rows_keep_submission_order(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS)
        # Drain in deliberately scrambled order: claim everything, complete
        # newest-first.
        tasks = []
        while True:
            task = queue.claim("w", lease_seconds=30)
            if task is None:
                break
            tasks.append(task)
        from repro.distributed import execute_task_payload
        for task in reversed(tasks):
            queue.complete(task.task_id, "w", execute_task_payload(task.payload))
        report = coordinator.gather()
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert [row["case_id"] for row in report.output["runs"]] == \
            [row["case_id"] for row in sequential]

    def test_submit_validates_before_queueing(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue)
        bad = [ScenarioSpec(family="catalog", shape="treelike",
                            setting="deterministic", backend="nope")]
        with pytest.raises(ValueError):
            coordinator.submit_profile("bad", bad)
        assert queue.counts()["pending"] == 0

    def test_one_queue_holds_one_run(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue)
        coordinator.submit_profile("tiny", TINY_SPECS[:1])
        with pytest.raises(QueueError, match="already holds run"):
            coordinator.submit_profile("tiny2", TINY_SPECS[:1])

    def test_rejected_submit_does_not_poison_the_queue(self, tmp_path):
        # A bad retry budget must fail *before* the run descriptor is
        # recorded, so the corrected re-submit succeeds on the same queue.
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue)
        with pytest.raises(ValueError, match="max_attempts"):
            coordinator.submit_profile("tiny", TINY_SPECS[:1], max_attempts=0)
        assert queue.get_meta("run") is None
        coordinator.submit_profile("tiny", TINY_SPECS[:1])
        assert queue.counts()["pending"] > 0

    def test_gather_requires_a_drained_queue(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue)
        coordinator.submit_profile("tiny", TINY_SPECS[:1])
        with pytest.raises(QueueError, match="not complete"):
            coordinator.gather()

    def test_gather_requires_a_run(self, tmp_path):
        with pytest.raises(QueueError, match="no run"):
            Coordinator(SqliteQueue(str(tmp_path / "queue.sqlite"))).gather()

    def test_wait_times_out_with_outstanding_work(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS[:1])
        with pytest.raises(QueueError, match="did not drain"):
            coordinator.wait(timeout=0.05)


class TestFaultTolerance:
    def test_killed_worker_mid_task_loses_and_duplicates_nothing(self, tmp_path):
        """A worker that dies holding a lease: the task is retried elsewhere
        and the gathered artifact matches the sequential run exactly."""
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS)
        # "Crash" a worker mid-task: claim with a short lease, never finish.
        doomed = queue.claim("doomed", lease_seconds=0.05)
        assert doomed is not None
        time.sleep(0.1)
        run_workers(queue, 2)
        counts = coordinator.wait(timeout=30)
        assert counts["dead"] == 0
        report = coordinator.gather()
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        # No lost cases, no duplicated cases, identical results.
        assert results_section(report.output["runs"]) == \
            results_section(sequential)
        assert report.retries == 1
        assert report.output["config"]["distributed"]["retries"] == 1

    def test_poison_task_dead_letters_but_run_completes(self, tmp_path):
        path = str(tmp_path / "queue.sqlite")
        queue = SqliteQueue(path)
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS, max_attempts=2)
        # Corrupt one task's payload after submission: it will fail on
        # every worker, every attempt.
        victim = queue.tasks()[0]
        victim.payload["model"]["nodes"] = "corrupted"
        connection = sqlite3.connect(path)
        with connection:
            connection.execute(
                "UPDATE tasks SET payload = ? WHERE task_id = ?",
                (json.dumps(victim.payload), victim.task_id),
            )
        connection.close()
        run_workers(queue, 2)
        counts = coordinator.wait(timeout=30)
        assert counts["dead"] == 1
        report = coordinator.gather()
        (dead,) = report.dead
        assert dead["attempts"] == 2
        assert dead["case_id"] == victim.payload["identity"]["case_id"]
        # Every other case completed and is present in the artifact.
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        survivors = [row for row in sequential
                     if row["case_id"] != dead["case_id"]]
        assert results_section(report.output["runs"]) == \
            results_section(survivors)
        assert report.output["config"]["distributed"]["dead_tasks"] == \
            report.dead

    def test_crash_retry_with_shared_store_is_idempotent(self, tmp_path):
        """First execution persisted to the store before the crash: the
        retry is a store hit with the original result."""
        from repro.engine import SqliteStore
        from repro.distributed import execute_task_payload

        store = SqliteStore(str(tmp_path / "results.sqlite"))
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_profile("tiny", TINY_SPECS[:1])
        doomed = queue.claim("doomed", lease_seconds=0.05)
        execute_task_payload(doomed.payload, store=store)  # result persisted
        time.sleep(0.1)
        run_workers(queue, 1, store=store)
        coordinator.wait(timeout=30)
        report = coordinator.gather()
        retried = next(
            row for row in report.output["runs"]
            if row["case_id"] == doomed.payload["identity"]["case_id"]
        )
        assert retried["store_hits"] >= 1
        # The retry recomputed nothing for the crashed case.
        assert store.stats.hits >= 1


class TestBatchRuns:
    def test_batch_results_match_session_run_batch(self, tmp_path):
        model = factory()
        requests = [
            {"problem": "cdpf"},
            {"problem": "dgc", "budget": 2},
            {"problem": "cgd", "threshold": 200},
        ]
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue, poll_seconds=0.01)
        coordinator.submit_requests(serialization.to_dict(model), requests)
        run_workers(queue, 2)
        coordinator.wait(timeout=30)
        report = coordinator.gather()
        assert report.kind == "batch"
        session = AnalysisSession(factory())
        expected = session.run_batch(
            [AnalysisRequest.from_dict(entry) for entry in requests]
        )
        assert [row.get("value") for row in report.output] == \
            [result.value for result in expected]
        assert [row["request"]["problem"] for row in report.output] == \
            [entry["problem"] for entry in requests]

    def test_batch_submit_validates_every_request(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        coordinator = Coordinator(queue)
        with pytest.raises(ValueError, match=r"requests\[1\]"):
            coordinator.submit_requests(
                serialization.to_dict(factory()),
                [{"problem": "cdpf"}, {"problem": "dgc"}],  # missing budget
            )
        assert queue.counts()["pending"] == 0
