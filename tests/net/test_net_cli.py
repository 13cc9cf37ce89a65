"""End-to-end ``atcd serve`` CLI tests: shared-nothing runs over HTTP.

The broker runs as a real subprocess (its own process, its own sqlite
files); submit/worker/status/gather/resubmit and ``dist run`` execute
in-process against its URL only — no path they use touches the broker's
files, which is exactly the shared-nothing deployment shape.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench import profiles
from repro.bench.harness import execute_specs
from repro.cli import main
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
    monkeypatch.setitem(profiles.PROFILES, "tiny-net", list(TINY_SPECS))
    return "tiny-net"


@pytest.fixture
def broker(tmp_path):
    """A real ``atcd serve`` subprocess on a free port; yields its URL."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("ATCD_BROKER_TOKEN", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve",
         "--queue", str(tmp_path / "broker.queue"),
         "--store", str(tmp_path / "broker.store"),
         "--port", "0"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
    )
    line = process.stdout.readline()
    url = next(
        (word for word in line.split() if word.startswith("http://")), None
    )
    assert url, f"serve printed no URL: {line!r}"
    yield url
    process.send_signal(signal.SIGTERM)
    process.wait(timeout=30)
    process.stdout.close()


class TestServeEndToEnd:
    def test_shared_nothing_run_matches_sequential(self, broker, tiny_profile,
                                                   tmp_path, capsys):
        """submit → worker → status → gather entirely over HTTP, results
        byte-identical to the sequential harness."""
        out = str(tmp_path / "BENCH_net.json")
        assert main(["dist", "submit", "--queue", broker,
                     "--profile", tiny_profile]) == 0
        assert main(["dist", "status", "--queue", broker]) == 0
        assert "pending" in capsys.readouterr().out
        assert main(["dist", "worker", "--queue", broker, "--store", broker,
                     "--poll", "0.01"]) == 0
        assert main(["dist", "gather", "--queue", broker, "--out", out]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)
        # The worker wrote through the broker store too.
        capsys.readouterr()
        assert main(["store", "stats", broker]) == 0
        assert "entries" in capsys.readouterr().out

    def test_dist_run_fleet_over_broker_urls(self, broker, tiny_profile,
                                             tmp_path):
        """`dist run` — coordinator + subprocess workers — pointed at
        nothing but URLs."""
        out = str(tmp_path / "BENCH_fleet.json")
        assert main(["dist", "run", "--profile", tiny_profile,
                     "--workers", "2", "--queue", broker, "--store", broker,
                     "--out", out, "--timeout", "120"]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs(TINY_SPECS)]
        assert results_section(artifact["runs"]) == results_section(sequential)
        assert artifact["config"]["distributed"]["dead_tasks"] == []

    def test_resubmit_recovers_a_dead_lettered_run_over_http(
        self, broker, tmp_path, monkeypatch, capsys
    ):
        """The acceptance scenario, shared-nothing edition: dead-letter a
        run through the broker, `dist resubmit` it, and complete it —
        without ever touching the broker's files from here."""
        bad = ScenarioSpec(family="catalog", shape="treelike",
                           setting="deterministic")
        monkeypatch.setitem(profiles.PROFILES, "tiny-poison", [bad])
        assert main(["dist", "submit", "--queue", broker,
                     "--profile", "tiny-poison", "--max-attempts", "1"]) == 0
        # Dead-letter the run *through the wire*: burn each task's single
        # attempt with an induced failure (max_attempts=1 → dead).
        from repro.net import HttpQueue

        with HttpQueue(broker) as queue:
            for _ in queue.tasks():
                claimed = queue.claim("poisoner", lease_seconds=30)
                queue.fail(claimed.task_id, "poisoner", "induced failure")
        capsys.readouterr()
        assert main(["dist", "gather", "--queue", broker,
                     "--out", str(tmp_path / "stuck.json")]) == 1
        assert "DEAD task" in capsys.readouterr().err
        # The fix arrives: resubmit restores the full retry budget.
        assert main(["dist", "resubmit", "--queue", broker]) == 0
        assert "resubmitted" in capsys.readouterr().out
        assert main(["dist", "worker", "--queue", broker,
                     "--poll", "0.01"]) == 0
        out = str(tmp_path / "BENCH_recovered.json")
        assert main(["dist", "gather", "--queue", broker, "--out", out]) == 0
        with open(out) as handle:
            artifact = json.load(handle)
        sequential = [run.to_dict() for run in execute_specs([bad])]
        assert results_section(artifact["runs"]) == results_section(sequential)

    def test_store_prune_over_http(self, broker, capsys):
        from repro.engine import AnalysisRequest, model_fingerprint, run_request
        from repro.attacktree.catalog import factory
        from repro.core.problems import Problem
        from repro.net import HttpStore

        with HttpStore(broker) as store:
            request = AnalysisRequest(Problem.CDPF)
            store.put(model_fingerprint(factory()), request,
                      run_request(factory(), request))
            assert len(store) == 1
        assert main(["store", "prune", broker]) == 0
        assert "pruned 1 results" in capsys.readouterr().out


class TestServeErrors:
    def test_serve_nothing_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_serve_foreign_database_exits_2(self, tmp_path, capsys):
        import sqlite3

        foreign = str(tmp_path / "other.sqlite")
        with sqlite3.connect(foreign) as connection:
            connection.execute("CREATE TABLE users (id INTEGER)")
        assert main(["serve", "--queue", foreign, "--port", "0"]) == 2
        assert "not a work queue" in capsys.readouterr().err

    def test_worker_against_dead_url_exits_2(self, capsys):
        # Port 9 refuses instantly, so the default retry budget resolves
        # fast; the contract under test is the one-line exit-2 error.
        assert main(["dist", "worker", "--queue", "http://127.0.0.1:9"]) == 2
        assert "unreachable" in capsys.readouterr().err

    def test_token_protected_broker_end_to_end(self, tmp_path, tiny_profile,
                                               monkeypatch, capsys):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--queue", str(tmp_path / "broker.queue"),
             "--port", "0", "--token", "hunter2"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            text=True,
        )
        try:
            line = process.stdout.readline()
            url = next(
                word for word in line.split() if word.startswith("http://")
            )
            assert "token auth" in line
            monkeypatch.delenv("ATCD_BROKER_TOKEN", raising=False)
            assert main(["dist", "status", "--queue", url]) == 2
            assert "unauthorized" in capsys.readouterr().err
            # With the token exported, the full flow works (workers spawned
            # by a fleet inherit the environment, so they authenticate too).
            monkeypatch.setenv("ATCD_BROKER_TOKEN", "hunter2")
            assert main(["dist", "submit", "--queue", url,
                         "--profile", tiny_profile]) == 0
            assert main(["dist", "worker", "--queue", url,
                         "--poll", "0.01"]) == 0
            out = str(tmp_path / "BENCH_auth.json")
            assert main(["dist", "gather", "--queue", url, "--out", out]) == 0
            with open(out) as handle:
                assert len(json.load(handle)["runs"]) > 0
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
            process.stdout.close()
