"""Tests for the ``atcd dist`` CLI verbs and their error contract.

The worker subprocesses spawned by ``dist run`` (and by the kill test) only
need the queue file — task payloads are self-contained — so the tests can
shard a tiny in-test profile in the parent process and still exercise real
multi-process execution.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.bench import profiles
from repro.bench.harness import execute_specs
from repro.cli import main
from repro.distributed import RUN_META_KEY, Coordinator, SqliteQueue
from repro.workloads import ScenarioSpec

SRC = str(Path(__file__).resolve().parents[2] / "src")

TINY_SPECS = [
    ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
    ScenarioSpec(family="catalog", shape="dag", setting="deterministic"),
]

RESULT_KEYS = ("case_id", "problem", "backend", "result_points", "value")


def results_section(rows):
    return json.dumps(
        [{key: row.get(key) for key in RESULT_KEYS} for row in rows],
        sort_keys=True,
    )


@pytest.fixture
def tiny_profile(monkeypatch):
    """Register a fast profile; workers never resolve it (payloads are
    self-contained), so patching the parent process suffices."""
    monkeypatch.setitem(profiles.PROFILES, "tiny-cli", list(TINY_SPECS))
    return "tiny-cli"


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


class TestDistRun:
    def test_run_matches_sequential_artifact(self, tiny_profile, tmp_path, capsys):
        out = str(tmp_path / "BENCH_dist.json")
        store = str(tmp_path / "store.sqlite")
        assert main([
            "dist", "run", "--profile", tiny_profile, "--workers", "2",
            "--store", store, "--out", out, "--timeout", "120",
        ]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)
        distributed = artifact["config"]["distributed"]
        assert distributed["workers"] == 2
        assert distributed["dead_tasks"] == []
        assert "wrote" in capsys.readouterr().out

    def test_run_keeps_an_explicit_queue_file(self, tiny_profile, tmp_path):
        queue_path = str(tmp_path / "kept.queue")
        out = str(tmp_path / "BENCH_kept.json")
        assert main([
            "dist", "run", "--profile", tiny_profile, "--workers", "1",
            "--queue", queue_path, "--out", out, "--timeout", "120",
        ]) == 0
        with SqliteQueue(queue_path) as queue, open(out) as handle:
            assert queue.counts()["done"] == len(json.load(handle)["runs"])


class TestSubmitWorkerStatusGather:
    def test_multi_host_flow_on_one_queue(self, tiny_profile, tmp_path, capsys):
        queue_path = str(tmp_path / "flow.queue")
        out = str(tmp_path / "BENCH_flow.json")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile]) == 0
        assert "submitted" in capsys.readouterr().out
        # Status before any worker ran.
        assert main(["dist", "status", "--queue", queue_path]) == 0
        assert "pending" in capsys.readouterr().out
        # Gathering too early is a user error, not a partial artifact.
        assert main(["dist", "gather", "--queue", queue_path]) == 2
        assert "not complete" in capsys.readouterr().err
        # One in-process worker drains it.
        assert main(["dist", "worker", "--queue", queue_path,
                     "--poll", "0.01"]) == 0
        assert main(["dist", "gather", "--queue", queue_path,
                     "--out", out]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)


class TestKillOneWorkerMidRun:
    def test_run_completes_via_lease_expiry_retry(self, tiny_profile, tmp_path):
        """The acceptance scenario: two real worker processes, one SIGKILLed
        mid-task; the run still completes with no lost or duplicated cases
        and results identical to the sequential run."""
        queue_path = str(tmp_path / "kill.queue")
        with SqliteQueue(queue_path) as queue:
            coordinator = Coordinator(queue, poll_seconds=0.05)
            coordinator.submit_profile("tiny-cli", TINY_SPECS)
            victim = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "dist", "worker",
                 "--queue", queue_path, "--lease", "1", "--poll", "0.05",
                 "--inject-delay", "120", "--worker-id", "victim"],
                env=worker_env(),
            )
            try:
                # Wait until the victim holds a claim, then kill it cold.
                deadline = time.time() + 30
                while queue.counts()["running"] == 0:
                    assert time.time() < deadline, "victim never claimed"
                    assert victim.poll() is None, "victim exited prematurely"
                    time.sleep(0.05)
                os.kill(victim.pid, signal.SIGKILL)
                victim.wait(timeout=30)
                survivor = subprocess.Popen(
                    [sys.executable, "-m", "repro.cli", "dist", "worker",
                     "--queue", queue_path, "--lease", "5", "--poll", "0.05",
                     "--worker-id", "survivor"],
                    env=worker_env(),
                )
                try:
                    coordinator.wait(timeout=120)
                finally:
                    survivor.wait(timeout=30)
            finally:
                if victim.poll() is None:
                    victim.kill()
            report = coordinator.gather()
        assert report.dead == []
        assert report.retries >= 1
        rows = report.output["runs"]
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        # No lost cases, no duplicates, identical results.
        assert len(rows) == len(sequential)
        assert len({row["case_id"] for row in rows}) == len(rows)
        assert results_section(rows) == results_section(sequential)
        assert all(row_worker == "survivor" for row_worker in (
            task.worker_id
            for task in SqliteQueue(queue_path).tasks()
            if task.result is not None
        ))


class TestPoisonTaskCLI:
    def test_dead_letter_reported_and_exit_1(self, tiny_profile, tmp_path, capsys):
        queue_path = str(tmp_path / "poison.queue")
        out = str(tmp_path / "BENCH_poison.json")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile, "--max-attempts", "2"]) == 0
        # Corrupt one payload on disk: every execution attempt will fail.
        import sqlite3

        with sqlite3.connect(queue_path) as connection:
            connection.execute(
                "UPDATE tasks SET payload = '{\"kind\": \"bench-case\"}' "
                "WHERE seq = 0"
            )
        assert main(["dist", "worker", "--queue", queue_path,
                     "--poll", "0.01"]) == 0
        capsys.readouterr()
        # Partial output: artifact written, dead task reported, exit 1.
        assert main(["dist", "gather", "--queue", queue_path,
                     "--out", out]) == 1
        captured = capsys.readouterr()
        assert "DEAD task" in captured.err
        with open(out) as handle:
            artifact = json.load(handle)
        assert len(artifact["config"]["distributed"]["dead_tasks"]) == 1
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert len(artifact["runs"]) == len(sequential) - 1


class TestDistErrors:
    """User errors exit 2 with one line, per the CLI error contract."""

    def test_zero_workers_exits_2(self, tiny_profile, capsys):
        assert main(["dist", "run", "--profile", tiny_profile,
                     "--workers", "0"]) == 2
        assert "workers must be a positive integer" in capsys.readouterr().err

    def test_unknown_profile_exits_2(self, tmp_path, capsys):
        assert main(["dist", "run", "--profile", "nope",
                     "--queue", str(tmp_path / "q")]) == 2
        assert capsys.readouterr().err.startswith("atcd: ")

    def test_worker_on_missing_queue_exits_2(self, tmp_path, capsys):
        assert main(["dist", "worker",
                     "--queue", str(tmp_path / "absent.queue")]) == 2
        assert "no work queue" in capsys.readouterr().err

    def test_status_on_missing_queue_exits_2(self, tmp_path, capsys):
        assert main(["dist", "status",
                     "--queue", str(tmp_path / "absent.queue")]) == 2

    def test_gather_on_missing_queue_exits_2(self, tmp_path, capsys):
        assert main(["dist", "gather",
                     "--queue", str(tmp_path / "absent.queue")]) == 2

    def test_submit_without_work_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["dist", "submit", "--queue", str(tmp_path / "q.queue")])
        assert exit_info.value.code == 2
        assert "--profile" in capsys.readouterr().err

    @pytest.mark.parametrize("with_profile", [True, False])
    def test_submit_model_is_a_usage_error(
        self, with_profile, tiny_profile, tmp_path, capsys
    ):
        # Request batches go through POST /v1/jobs; dist submit shards
        # bench profiles only.
        queue_path = tmp_path / "q.queue"
        profile = ["--profile", tiny_profile] if with_profile else []
        with pytest.raises(SystemExit) as exit_info:
            main(["dist", "submit", "--queue", str(queue_path), *profile,
                  "--model", "m.json", "--requests", "r.json"])
        assert exit_info.value.code == 2
        assert "usage:" in capsys.readouterr().err
        assert not queue_path.exists()

    def test_gather_on_a_batch_run_exits_2(self, tmp_path, capsys):
        # A request-batch run descriptor (written by 4.x) is outside input.
        queue_path = str(tmp_path / "batch.queue")
        with SqliteQueue(queue_path) as queue:
            queue.set_meta_if_absent(
                RUN_META_KEY, json.dumps({"kind": "batch", "name": "batch"})
            )
        assert main(["dist", "gather", "--queue", queue_path]) == 2
        assert "'batch'" in capsys.readouterr().err

    def test_double_submit_exits_2(self, tiny_profile, tmp_path, capsys):
        queue_path = str(tmp_path / "q.queue")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile]) == 0
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile]) == 2
        assert "already holds run" in capsys.readouterr().err

    def test_worker_on_missing_queue_creates_no_store_file(self, tmp_path, capsys):
        store_path = tmp_path / "stray-store.sqlite"
        assert main(["dist", "worker",
                     "--queue", str(tmp_path / "absent.queue"),
                     "--store", str(store_path)]) == 2
        assert not store_path.exists()

    def test_status_on_foreign_database_exits_2(self, tmp_path, capsys):
        import sqlite3

        foreign = str(tmp_path / "other.sqlite")
        with sqlite3.connect(foreign) as connection:
            connection.execute("CREATE TABLE users (id INTEGER)")
        assert main(["dist", "status", "--queue", foreign]) == 2
        assert "not a work queue" in capsys.readouterr().err


class TestResubmitCLI:
    def test_resubmit_recovers_a_dead_lettered_run(self, tiny_profile, tmp_path,
                                                   capsys):
        """The acceptance scenario: a run stuck on dead letters completes
        after `atcd dist resubmit` once the underlying fault is fixed."""
        import sqlite3

        queue_path = str(tmp_path / "recover.queue")
        out = str(tmp_path / "BENCH_recovered.json")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile, "--max-attempts", "1"]) == 0
        # Break one payload on disk (an "environment fault"), remembering
        # the original so the fault can be fixed later.
        with sqlite3.connect(queue_path) as connection:
            (original,) = connection.execute(
                "SELECT payload FROM tasks WHERE seq = 0"
            ).fetchone()
            connection.execute(
                "UPDATE tasks SET payload = '{\"kind\": \"bench-case\"}' "
                "WHERE seq = 0"
            )
        assert main(["dist", "worker", "--queue", queue_path,
                     "--poll", "0.01"]) == 0
        assert main(["dist", "gather", "--queue", queue_path,
                     "--out", out]) == 1  # stuck: dead task, partial output
        # Fix the fault, resubmit the dead task, drain again: complete run.
        with sqlite3.connect(queue_path) as connection:
            connection.execute(
                "UPDATE tasks SET payload = ? WHERE seq = 0", (original,)
            )
        capsys.readouterr()
        assert main(["dist", "resubmit", "--queue", queue_path]) == 0
        assert "resubmitted 1 dead tasks" in capsys.readouterr().out
        assert main(["dist", "worker", "--queue", queue_path,
                     "--poll", "0.01"]) == 0
        assert main(["dist", "gather", "--queue", queue_path,
                     "--out", out]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)
        assert artifact["config"]["distributed"]["dead_tasks"] == []

    def test_resubmit_without_dead_tasks_reports_noop(self, tiny_profile,
                                                      tmp_path, capsys):
        queue_path = str(tmp_path / "clean.queue")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile]) == 0
        capsys.readouterr()
        assert main(["dist", "resubmit", "--queue", queue_path]) == 0
        assert "no dead tasks" in capsys.readouterr().out

    def test_resubmit_on_missing_queue_exits_2(self, tmp_path, capsys):
        assert main(["dist", "resubmit",
                     "--queue", str(tmp_path / "absent.queue")]) == 2
        assert "no work queue" in capsys.readouterr().err


class TestGracefulShutdownCLI:
    def test_sigterm_fails_in_flight_task_back_immediately(
        self, tiny_profile, tmp_path
    ):
        """A SIGTERMed worker must hand its running task straight back to
        the queue (no lease wait) and exit 128+SIGTERM.  The lease here is
        300s: if the task reappears as pending promptly, it was the signal
        handler's fail-back, not lease expiry."""
        from repro.distributed import SqliteQueue as Queue

        queue_path = str(tmp_path / "sigterm.queue")
        assert main(["dist", "submit", "--queue", queue_path,
                     "--profile", tiny_profile]) == 0
        victim = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "dist", "worker",
             "--queue", queue_path, "--lease", "300", "--poll", "0.05",
             "--inject-delay", "120", "--worker-id", "victim"],
            env=worker_env(),
        )
        with Queue(queue_path, grace_seconds=0.0) as queue:
            try:
                deadline = time.time() + 30
                while queue.counts()["running"] == 0:
                    assert time.time() < deadline, "victim never claimed"
                    assert victim.poll() is None, "victim exited prematurely"
                    time.sleep(0.05)
                victim.send_signal(signal.SIGTERM)
                assert victim.wait(timeout=30) == 128 + signal.SIGTERM
            finally:
                if victim.poll() is None:
                    victim.kill()
            counts = queue.counts()
            assert counts["running"] == 0, "task left invisible under its lease"
            assert counts["pending"] == len(queue.tasks())  # nothing done yet
            failed = [task for task in queue.tasks() if task.attempts == 1]
            assert len(failed) == 1
            assert "signal" in failed[0].error
        # A fresh worker completes the run — nothing was lost.
        assert main(["dist", "worker", "--queue", queue_path,
                     "--poll", "0.01"]) == 0
        out = str(tmp_path / "BENCH_sigterm.json")
        assert main(["dist", "gather", "--queue", queue_path,
                     "--out", out]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)
