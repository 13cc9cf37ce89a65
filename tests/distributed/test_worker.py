"""Tests for the worker loop: execution, retries, heartbeats, idempotency."""

import threading
import time

import pytest

from repro.attacktree import serialization
from repro.attacktree.catalog import factory
from repro.core.problems import Problem
from repro.engine import AnalysisRequest, SqliteStore, run_request
from repro.distributed import (
    SqliteQueue,
    TaskState,
    Worker,
    execute_task_payload,
)
from repro.distributed import worker as worker_module
from repro.distributed.worker import WORKER_METRICS_META_PREFIX
from repro.bench.harness import case_payload, expand_specs
from repro.workloads import ScenarioSpec


def catalog_payloads(trace_memory=False):
    """The catalog treelike/deterministic cases as bench-case task payloads."""
    spec = ScenarioSpec(
        family="catalog", shape="treelike", setting="deterministic"
    )
    out = []
    for spec_, case in expand_specs([spec]):
        payload = case_payload(spec_, case, repeats=1, trace_memory=trace_memory)
        payload["kind"] = "bench-case"
        out.append(payload)
    return out


def request_payload(budget=2.0):
    return {
        "kind": "request",
        "model": serialization.to_dict(factory()),
        "request": {"problem": "dgc", "budget": budget},
    }


class TestExecution:
    def test_worker_drains_bench_case_tasks(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        payloads = catalog_payloads()
        queue.submit(payloads)
        report = Worker(queue, worker_id="w", poll_seconds=0.01).run()
        assert report.completed == len(payloads)
        assert report.failed == 0
        done = queue.tasks(TaskState.DONE)
        assert [task.result["case_id"] for task in done] == [
            payload["identity"]["case_id"] for payload in payloads
        ]
        assert all(task.result["wall_time_seconds"] >= 0 for task in done)

    def test_worker_executes_request_tasks(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([request_payload(budget=2.0)])
        report = Worker(queue, worker_id="w", poll_seconds=0.01).run()
        assert report.completed == 1
        (done,) = queue.tasks(TaskState.DONE)
        expected = run_request(factory(), AnalysisRequest(Problem.DGC, budget=2.0))
        assert done.result["value"] == expected.value

    def test_unknown_kind_is_dead_lettered_not_a_crash(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([{"kind": "nonsense"}], max_attempts=2)
        queue.submit([request_payload()])
        report = Worker(queue, worker_id="w", poll_seconds=0.01).run()
        # The poison task burned its retries; the good task still completed.
        assert report.completed == 1
        assert report.failed == 2
        (dead,) = queue.tasks(TaskState.DEAD)
        assert "unknown task kind" in dead.error
        assert queue.drained()

    def test_max_tasks_bounds_the_loop(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit(catalog_payloads())
        report = Worker(
            queue, worker_id="w", max_tasks=1, poll_seconds=0.01
        ).run()
        assert report.executed == 1
        assert queue.counts()["pending"] == 1

    def test_execute_task_payload_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown task kind"):
            execute_task_payload({"kind": "nope"})

    def test_trace_memory_payload_records_peak_kb(self, tmp_path):
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit(catalog_payloads(trace_memory=True))
        Worker(queue, worker_id="w", poll_seconds=0.01).run()
        for task in queue.tasks(TaskState.DONE):
            assert task.result["peak_kb"] > 0


class TestIdempotency:
    def test_store_hit_short_circuits_a_retried_task(self, tmp_path):
        """A task whose first execution persisted its result is answered
        from the store on retry — including the original wall time."""
        store = SqliteStore(str(tmp_path / "results.sqlite"))
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        (payload,) = [request_payload(budget=3.0)]
        queue.submit([payload])
        # First attempt: executes for real, writes through, but the worker
        # "crashes" before completing (simulated by abandoning the claim).
        task = queue.claim("crashed", lease_seconds=0.05)
        first = execute_task_payload(task.payload, store=store)
        assert store.stats.writes == 1
        time.sleep(0.1)
        queue.expire_leases()
        # Retry on a healthy worker sharing the store: served, not computed.
        report = Worker(
            queue, worker_id="survivor", store=store, poll_seconds=0.01
        ).run()
        assert report.completed == 1
        (done,) = queue.tasks(TaskState.DONE)
        assert done.result["cache_hit"] is True
        assert done.result["value"] == first["value"]
        assert done.result["wall_time_seconds"] == first["wall_time_seconds"]
        assert store.stats.hits == 1

    def test_bench_case_retry_reports_store_hit(self, tmp_path):
        store = SqliteStore(str(tmp_path / "results.sqlite"))
        payloads = catalog_payloads()
        warm = SqliteQueue(str(tmp_path / "warm.sqlite"))
        warm.submit(payloads)
        Worker(warm, worker_id="first", store=store, poll_seconds=0.01).run()
        retry = SqliteQueue(str(tmp_path / "retry.sqlite"))
        retry.submit(payloads)
        Worker(retry, worker_id="second", store=store, poll_seconds=0.01).run()
        for task in retry.tasks(TaskState.DONE):
            assert task.result["store_hits"] >= 1


class TestHeartbeats:
    def test_long_task_outlives_its_lease_via_heartbeats(self, tmp_path):
        """A task running far past lease_seconds is never reassigned while
        its worker lives."""
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([{"kind": "slow"}])

        def slow_executor(payload):
            time.sleep(0.6)  # several times the lease
            return {"ok": True}

        worker = Worker(
            queue, worker_id="slow", lease_seconds=0.2, poll_seconds=0.01,
            executor=slow_executor,
        )
        worker_thread = threading.Thread(target=lambda: reports.append(worker.run()))
        reports = []
        worker_thread.start()
        deadline = time.time() + 5
        while queue.counts()["running"] == 0:
            assert time.time() < deadline, "worker never claimed the task"
            time.sleep(0.01)
        # Only now unleash the thief: the slow worker holds the claim.
        thief_results = []
        thief_deadline = time.time() + 0.8
        while time.time() < thief_deadline:
            task = queue.claim("thief", lease_seconds=30)
            if task is not None:
                thief_results.append(task)
            time.sleep(0.02)
        worker_thread.join()
        (report,) = reports
        assert report.completed == 1
        assert thief_results == []
        (done,) = queue.tasks(TaskState.DONE)
        assert done.worker_id == "slow"

    def test_lost_lease_is_reported_as_failure_not_success(self, tmp_path):
        """A worker stalled past its lease (no heartbeat — executor blocks
        the keeper's renewals from mattering by claiming directly) must not
        count the task as completed once someone else finished it."""
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        queue.submit([{"kind": "x"}])
        task = queue.claim("stalled", lease_seconds=0.05)
        time.sleep(0.1)
        # Another worker picks it up and completes it.
        report = Worker(queue, worker_id="fast", poll_seconds=0.01,
                        executor=lambda payload: {"by": "fast"}).run()
        assert report.completed == 1
        # The stalled worker's attempt to complete is rejected.
        assert not queue.complete(task.task_id, "stalled", {"by": "stalled"})
        (done,) = queue.tasks(TaskState.DONE)
        assert done.result == {"by": "fast"}


class TestGracefulShutdown:
    """WorkerShutdown (what the SIGTERM/SIGINT handler raises) must fail
    the in-flight task back to the queue instead of abandoning it."""

    def test_shutdown_mid_task_fails_the_claim_back(self, tmp_path):
        import signal as signal_module

        from repro.distributed import WorkerShutdown

        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        queue.submit([{"kind": "x"}], max_attempts=3)

        def interrupted_executor(payload):
            raise WorkerShutdown(signal_module.SIGTERM)

        report = Worker(
            queue, worker_id="doomed", lease_seconds=300,
            poll_seconds=0.01, executor=interrupted_executor,
        ).run()
        assert report.interrupted == signal_module.SIGTERM
        assert report.failed == 1
        # Back to pending *immediately* — no lease wait — with the signal
        # recorded and the attempt counted.
        (pending,) = queue.tasks(TaskState.PENDING)
        assert pending.attempts == 1
        assert "signal" in pending.error
        assert queue.claim("survivor", lease_seconds=30) is not None

    def test_shutdown_fail_back_is_ownership_checked(self, tmp_path):
        """A task whose lease already moved to another worker must not be
        failed back by the interrupted (former) owner."""
        import signal as signal_module

        from repro.distributed import WorkerShutdown

        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        queue.submit([{"kind": "x"}], max_attempts=5)

        def steal_then_shutdown(payload):
            # Simulate a lease lapse mid-run: someone else claims and
            # completes the task while we were stalled.  The sleep lets
            # the 10ms lease expire; it stays under the keeper's first
            # renewal tick (50ms), so the lease genuinely lapses.
            time.sleep(0.03)
            queue.expire_leases()
            stolen = queue.claim("thief", lease_seconds=30)
            assert stolen is not None
            queue.complete(stolen.task_id, "thief", {"by": "thief"})
            raise WorkerShutdown(signal_module.SIGTERM)

        report = Worker(
            queue, worker_id="stalled", lease_seconds=0.01,
            poll_seconds=0.01, executor=steal_then_shutdown,
        ).run()
        assert report.interrupted == signal_module.SIGTERM
        assert report.failed == 0  # nothing was ours to fail back
        (done,) = queue.tasks(TaskState.DONE)
        assert done.result == {"by": "thief"}

    def test_shutdown_between_tasks_exits_cleanly(self, tmp_path):
        import signal as signal_module

        from repro.distributed import WorkerShutdown

        queue = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        done_first = []

        def one_then_shutdown(payload):
            if done_first:
                raise WorkerShutdown(signal_module.SIGINT)
            done_first.append(True)
            return {"ok": True}

        queue.submit([{"kind": "a"}, {"kind": "b"}])
        report = Worker(
            queue, worker_id="w", poll_seconds=0.01,
            executor=one_then_shutdown,
        ).run()
        assert report.completed == 1
        assert report.interrupted == signal_module.SIGINT
        assert queue.counts()["pending"] == 1

    def test_shutdown_during_claim_fails_back_the_committed_claim(self, tmp_path):
        """The narrowest race: the signal lands after the queue committed
        our claim but before run() assigned it.  The shutdown path must
        ask the queue what it believes is ours and fail that back."""
        import signal as signal_module

        from repro.distributed import WorkerShutdown

        inner = SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0)
        inner.submit([{"kind": "x"}], max_attempts=3)

        class ShutdownInsideClaim:
            """Claim commits on the real queue; the 'signal' raises before
            the caller ever sees the task."""

            def claim(self, worker_id, lease_seconds):
                inner.claim(worker_id, lease_seconds)
                raise WorkerShutdown(signal_module.SIGTERM)

            def __getattr__(self, name):
                return getattr(inner, name)

        report = Worker(
            ShutdownInsideClaim(), worker_id="w", lease_seconds=300,
            poll_seconds=0.01,
        ).run()
        assert report.interrupted == signal_module.SIGTERM
        assert report.failed == 1
        (pending,) = inner.tasks(TaskState.PENDING)
        assert pending.attempts == 1 and "signal" in pending.error
        assert inner.claim("survivor", lease_seconds=30) is not None

    def test_second_signal_does_not_interrupt_the_fail_back(self, tmp_path):
        """The installed handler raises once; later signals only confirm
        the stop, so the fail-back (or report printing) is never aborted
        by an impatient second Ctrl-C."""
        import os
        import signal as signal_module

        from repro.distributed import WorkerShutdown, signal_shutdown

        worker = Worker(SqliteQueue(str(tmp_path / "queue.sqlite"), grace_seconds=0.0), worker_id="w")
        with signal_shutdown(worker):
            with pytest.raises(WorkerShutdown):
                os.kill(os.getpid(), signal_module.SIGTERM)
                time.sleep(0.01)  # bytecode boundary for delivery
            # Second signal: absorbed (stop re-confirmed), no raise.
            os.kill(os.getpid(), signal_module.SIGTERM)
            time.sleep(0.01)
        assert worker._stop_event.is_set()


class TestMetricsPublish:
    """The metrics snapshot is one queue write: published on the first
    task, then at most once per interval, when going idle, and on exit."""

    @staticmethod
    def counting_worker(queue, **options):
        """A worker whose publishes record the queue's done count."""
        worker = Worker(
            queue, worker_id="w", poll_seconds=0.01,
            executor=lambda payload: {"ok": True}, **options,
        )
        published = []
        publish = worker.publish_metrics

        def counting_publish():
            published.append(queue.counts()["done"])
            publish()

        worker.publish_metrics = counting_publish
        return worker, published

    def test_first_task_then_throttled_then_exit(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "PUBLISH_INTERVAL_SECONDS", 3600.0)
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([{"kind": "t", "i": i} for i in range(5)])
        worker, published = self.counting_worker(queue)
        assert worker.run().completed == 5
        assert published == [1, 5]
        assert queue.get_meta(WORKER_METRICS_META_PREFIX + "w")

    def test_an_elapsed_interval_publishes_again(self, tmp_path, monkeypatch):
        monkeypatch.setattr(worker_module, "PUBLISH_INTERVAL_SECONDS", 0.0)
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([{"kind": "t", "i": i} for i in range(3)])
        worker, published = self.counting_worker(queue)
        worker.run()
        assert published == [1, 2, 3, 3]

    def test_going_idle_publishes_the_unpublished_tasks(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(worker_module, "PUBLISH_INTERVAL_SECONDS", 3600.0)
        queue = SqliteQueue(str(tmp_path / "queue.sqlite"))
        queue.submit([{"kind": "t", "i": i} for i in range(3)])
        worker, published = self.counting_worker(
            queue, exit_when_drained=False
        )
        thread = threading.Thread(target=worker.run)
        thread.start()
        try:
            deadline = time.monotonic() + 30
            while len(published) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            time.sleep(0.1)  # several idle polls: no further publish
            assert published == [1, 3]
        finally:
            worker.stop()
            thread.join(timeout=10)
        assert published == [1, 3, 3]
