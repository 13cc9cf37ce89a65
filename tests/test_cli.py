"""Tests for the ``atcd`` command-line interface."""

import json

import pytest

from repro.attacktree import catalog, serialization
from repro.cli import build_parser, main
from repro.workloads import ScenarioSpec, expand


@pytest.fixture
def factory_json(tmp_path):
    path = tmp_path / "factory.json"
    serialization.save_json(catalog.factory(), str(path))
    return str(path)


@pytest.fixture
def panda_json(tmp_path):
    path = tmp_path / "panda.json"
    serialization.save_json(catalog.panda_iot(), str(path))
    return str(path)


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["analyze", "model.json"])
        assert args.command == "analyze"
        args = parser.parse_args(["dgc", "model.json", "--budget", "3"])
        assert args.budget == 3.0

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_analyze(self, factory_json, capsys):
        assert main(["analyze", factory_json]) == 0
        output = capsys.readouterr().out
        assert "Pareto front" in output
        assert "treelike" in output

    def test_pareto(self, factory_json, capsys):
        assert main(["pareto", factory_json]) == 0
        output = capsys.readouterr().out
        assert "200" in output and "310" in output

    def test_pareto_probabilistic(self, panda_json, capsys):
        assert main(["pareto", panda_json, "--probabilistic"]) == 0
        assert "18" in capsys.readouterr().out

    def test_pareto_names_a_solver_only_by_backend(self, factory_json, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["pareto", factory_json, "--method", "bilp"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --method" in capsys.readouterr().err
        assert main(["pareto", factory_json, "--backend", "bilp"]) == 0
        assert "310" in capsys.readouterr().out

    def test_experiments_takes_no_options(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["experiments", "--quick"])
        assert exit_info.value.code == 2

    def test_analyze_states_dag_width(self, tmp_path, capsys):
        path = tmp_path / "ds.json"
        serialization.save_json(catalog.data_server(), str(path))
        assert main(["analyze", str(path)]) == 0
        assert "frontier width w = 1" in capsys.readouterr().out

    def test_analyze_names_the_backends_it_runs(self, tmp_path, capsys):
        model = catalog.data_server()
        path = tmp_path / "ds-prob.json"
        serialization.save_json(
            model.with_probabilities(
                {name: 0.5 for name in model.tree.basic_attack_steps}
            ),
            str(path),
        )
        assert main(["analyze", str(path), "--probabilistic"]) == 0
        output = capsys.readouterr().out
        assert "CDPF runs on 'bottom-up'" in output
        assert "CEDPF runs on 'enumerative'" in output

    def test_batch_parallel_matches_sequential(self, factory_json, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps(
            [{"problem": "cdpf"}] + [{"problem": "dgc", "budget": b} for b in (1, 2, 5)]
        ))
        assert main(["batch", factory_json, str(requests)]) == 0
        sequential = json.loads(capsys.readouterr().out)
        assert main(["batch", factory_json, str(requests), "--parallel"]) == 0
        parallel = json.loads(capsys.readouterr().out)
        assert [r.get("value") for r in parallel] == [None, 200, 200, 310]
        assert [r.get("front") for r in parallel] == [
            r.get("front") for r in sequential
        ]

    def test_pareto_with_plot(self, factory_json, capsys):
        assert main(["pareto", factory_json, "--plot"]) == 0
        output = capsys.readouterr().out
        assert "●" in output
        assert "cost →" in output

    def test_dgc(self, factory_json, capsys):
        assert main(["dgc", factory_json, "--budget", "2"]) == 0
        output = capsys.readouterr().out
        assert "200" in output and "ca" in output

    def test_cgd(self, factory_json, capsys):
        assert main(["cgd", factory_json, "--threshold", "300"]) == 0
        output = capsys.readouterr().out
        assert "5" in output

    def test_cgd_unachievable_returns_nonzero(self, factory_json, capsys):
        assert main(["cgd", factory_json, "--threshold", "99999"]) == 1
        assert "no attack" in capsys.readouterr().out

    def test_catalog_to_stdout(self, capsys):
        assert main(["catalog", "factory"]) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["root"] == "ps"

    def test_catalog_to_file(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        assert main(["catalog", "data-server", "--out", str(out)]) == 0
        restored = serialization.load_json(str(out))
        assert not restored.tree.is_treelike

    def test_experiments(self, capsys):
        assert main(["experiments"]) == 0
        output = capsys.readouterr().out
        assert "all published points reproduced: True" in output

    def test_bare_tree_model_rejected(self, tmp_path, capsys):
        path = tmp_path / "bare.json"
        serialization.save_json(catalog.factory().tree, str(path))
        # User error: one `atcd:` line on stderr and exit 2, per the CLI
        # exit-code contract (CLI001) — not a SystemExit masquerading as 1.
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("atcd: ") and "without cost/damage" in err


class TestBench:
    def test_bench_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["bench", "run", "--profile", "smoke"])
        assert args.command == "bench" and args.bench_command == "run"
        args = parser.parse_args(["bench", "compare", "a.json", "b.json"])
        assert args.threshold == 0.25
        args = parser.parse_args(["bench", "list"])
        assert args.bench_command == "list"

    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        output = capsys.readouterr().out
        assert "workload families:" in output
        assert "random" in output and "shared-bas" in output
        assert "smoke" in output and "full" in output

    def test_bench_run_and_compare(self, tmp_path, capsys):
        out = str(tmp_path / "BENCH_smoke.json")
        assert main(["bench", "run", "--profile", "smoke", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "wrote" in stdout and "families" in stdout

        artifact = json.loads(open(out).read())
        assert artifact["schema"] == "atcd-bench"
        assert len(artifact["totals"]["families"]) >= 4
        assert sorted(artifact["totals"]["shapes"]) == ["dag", "treelike"]
        assert sorted(artifact["totals"]["settings"]) == [
            "deterministic", "probabilistic"
        ]

        # Acceptance criterion: compare against a copy of itself passes.
        assert main(["bench", "compare", out, out]) == 0
        assert "PASS: no regressions" in capsys.readouterr().out

    def test_bench_compare_detects_regression(self, tmp_path, capsys):
        from repro.bench import build_artifact, execute_specs, write_artifact
        from repro.workloads import ScenarioSpec

        specs = [ScenarioSpec(family="wide-fan", sizes=(6,))]
        runs = execute_specs(specs)
        base = str(tmp_path / "base.json")
        write_artifact(build_artifact("base", specs, runs), base)
        slow = json.loads(open(base).read())
        for run in slow["runs"]:
            run["wall_time_seconds"] = run["wall_time_seconds"] * 10 + 1.0
        slow_path = str(tmp_path / "slow.json")
        open(slow_path, "w").write(json.dumps(slow))
        assert main(["bench", "compare", base, slow_path]) == 1
        assert "REGRESSION" in capsys.readouterr().out


class TestStore:
    def test_store_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["store", "stats", "db.sqlite"])
        assert args.command == "store" and args.store_command == "stats"
        args = parser.parse_args(
            ["store", "prune", "db.sqlite", "--fingerprint", "abc123"]
        )
        assert args.store_command == "prune" and args.fingerprint == "abc123"
        args = parser.parse_args(
            ["batch", "m.json", "r.json", "--store", "db.sqlite"]
        )
        assert args.store == "db.sqlite"
        args = parser.parse_args(["bench", "run", "--store", "db.sqlite"])
        assert args.store == "db.sqlite"

    def test_batch_reads_through_shared_store(self, factory_json, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps(
            [{"problem": "cdpf"}, {"problem": "dgc", "budget": 2}]
        ))
        assert main(["batch", factory_json, str(requests), "--store", store]) == 0
        cold = json.loads(capsys.readouterr().out)
        assert [r["cache_hit"] for r in cold] == [False, False]

        assert main(["batch", factory_json, str(requests), "--store", store]) == 0
        warm = json.loads(capsys.readouterr().out)
        assert [r["cache_hit"] for r in warm] == [True, True]
        assert [r["backend"] for r in warm] == [r["backend"] for r in cold]

    def test_store_stats_and_prune(self, factory_json, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"problem": "cdpf"}]))
        assert main(["batch", factory_json, str(requests), "--store", store]) == 0
        capsys.readouterr()

        assert main(["store", "stats", store]) == 0
        output = capsys.readouterr().out
        assert "entries        : 1" in output
        assert "cdpf/bottom-up" in output

        assert main(["store", "prune", store]) == 0
        assert "pruned 1 results" in capsys.readouterr().out
        assert main(["store", "stats", store]) == 0
        assert "entries        : 0" in capsys.readouterr().out

    def test_prune_by_fingerprint_keeps_other_models(self, tmp_path, capsys):
        from repro.core.problems import Problem
        from repro.engine import AnalysisRequest, SqliteStore, run_request

        store_path = str(tmp_path / "results.sqlite")
        request = AnalysisRequest(Problem.CDPF)
        result = run_request(catalog.factory(), request)
        with SqliteStore(store_path) as store:
            store.put("a" * 64, request, result)
            store.put("b" * 64, request, result)
        assert main(["store", "prune", store_path, "--fingerprint", "a" * 64]) == 0
        assert "pruned 1 results" in capsys.readouterr().out
        with SqliteStore(store_path) as store:
            assert len(store) == 1

    def test_bench_run_twice_against_one_store(self, tmp_path, capsys):
        store = str(tmp_path / "results.sqlite")
        cold_path = str(tmp_path / "BENCH_cold.json")
        warm_path = str(tmp_path / "BENCH_warm.json")
        argv = ["bench", "run", "--profile", "smoke", "--store", store]
        assert main(argv + ["--out", cold_path]) == 0
        assert main(argv + ["--out", warm_path]) == 0
        capsys.readouterr()

        cold = json.loads(open(cold_path).read())
        warm = json.loads(open(warm_path).read())
        totals = warm["totals"]
        # Acceptance criterion: the warm run serves >= 90% from the store...
        hit_rate = totals["cache_hits"] / (
            totals["cache_hits"] + totals["cache_misses"]
        )
        assert hit_rate >= 0.9
        assert totals["store_hits"] == totals["cache_hits"]
        assert warm["config"]["store"] == store

        # ...with a byte-identical results section...
        def results_section(artifact):
            return json.dumps(
                [
                    {key: run.get(key) for key in
                     ("case_id", "problem", "backend", "result_points", "value")}
                    for run in artifact["runs"]
                ],
                sort_keys=True,
            ).encode()

        assert results_section(cold) == results_section(warm)

        # ...and zero mismatches under bench compare.
        assert main(["bench", "compare", cold_path, warm_path]) == 0
        assert "PASS: no regressions" in capsys.readouterr().out


class TestErrorPaths:
    """User errors exit 2 with a one-line atcd: message, never a traceback."""

    def _assert_one_line_error(self, capsys):
        captured = capsys.readouterr()
        error_lines = [line for line in captured.err.splitlines() if line]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("atcd: ")
        assert "Traceback" not in captured.err
        return error_lines[0]

    def test_unknown_backend_exits_2(self, factory_json, capsys):
        assert main(["pareto", factory_json, "--backend", "nope"]) == 2
        self._assert_one_line_error(capsys)

    def test_uncovered_capability_exits_2(self, panda_json, capsys):
        # bilp cannot answer probabilistic problems: capability error.
        assert main(["pareto", panda_json, "--probabilistic", "--backend", "bilp"]) == 2
        assert "no BILP formulation" in self._assert_one_line_error(capsys)

    def test_model_beyond_enumerative_table_limit_exits_2(self, tmp_path, capsys):
        # Auto-resolution refuses a 17-BAS probabilistic DAG instead of
        # starting a many-minute per-attack enumeration.
        spec = ScenarioSpec(
            family="shared-bas", shape="dag", setting="probabilistic", sizes=(17,)
        )
        path = str(tmp_path / "shared17.json")
        serialization.save_json(expand(spec)[0].model, path)
        assert main(["dgc", path, "--probabilistic", "--budget", "3"]) == 2
        assert "17 BASs exceed" in self._assert_one_line_error(capsys)

    def test_malformed_batch_json_exits_2(self, factory_json, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text("{not valid json")
        assert main(["batch", factory_json, str(requests)]) == 2
        self._assert_one_line_error(capsys)

    def test_batch_entry_error_names_index(self, factory_json, tmp_path, capsys):
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"problem": "cdpf"}, {"problem": "dgc"}]))
        assert main(["batch", factory_json, str(requests)]) == 2
        captured = capsys.readouterr()
        assert "[1]" in captured.err
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("entry", [
        '{"problem": "dgc", "budget": NaN}', '{"problem": "cgd", "threshold": NaN}',
    ])
    def test_nan_parameter_in_batch_exits_2(self, factory_json, tmp_path, capsys, entry):
        requests = tmp_path / "requests.json"
        requests.write_text(f'[{{"problem": "cdpf"}}, {entry}]')
        assert main(["batch", factory_json, str(requests)]) == 2
        assert "NaN" in self._assert_one_line_error(capsys)

    def test_bench_unknown_profile_exits_2(self, capsys):
        assert main(["bench", "run", "--profile", "nope"]) == 2
        self._assert_one_line_error(capsys)

    def test_bench_unknown_executor_exits_2(self, capsys):
        assert main(["bench", "run", "--executor", "warp"]) == 2
        self._assert_one_line_error(capsys)

    def test_bench_missing_artifact_exits_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        other = str(tmp_path / "other.json")
        assert main(["bench", "compare", missing, other]) == 2
        self._assert_one_line_error(capsys)

    def test_bench_invalid_artifact_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "something-else"}))
        assert main(["bench", "compare", str(bad), str(bad)]) == 2
        self._assert_one_line_error(capsys)

    def test_bench_bad_repeats_exits_2(self, capsys):
        assert main(["bench", "run", "--repeats", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_store_stats_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["store", "stats", str(tmp_path / "absent.sqlite")]) == 2
        self._assert_one_line_error(capsys)

    def test_store_prune_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["store", "prune", str(tmp_path / "absent.sqlite")]) == 2
        self._assert_one_line_error(capsys)

    def test_corrupt_store_on_batch_exits_2(self, factory_json, tmp_path, capsys):
        bad = tmp_path / "corrupt.sqlite"
        bad.write_bytes(b"not a database")
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"problem": "cdpf"}]))
        assert main(
            ["batch", factory_json, str(requests), "--store", str(bad)]
        ) == 2
        self._assert_one_line_error(capsys)

    def test_corrupt_store_on_bench_run_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "corrupt.sqlite"
        bad.write_bytes(b"not a database")
        assert main(
            ["bench", "run", "--profile", "smoke", "--store", str(bad)]
        ) == 2
        self._assert_one_line_error(capsys)

    def test_bench_zero_max_workers_exits_2(self, capsys):
        assert main(["bench", "run", "--profile", "smoke",
                     "--executor", "process", "--max-workers", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_dist_zero_workers_exits_2(self, capsys):
        assert main(["dist", "run", "--profile", "smoke",
                     "--workers", "0"]) == 2
        self._assert_one_line_error(capsys)

    def test_dist_bad_queue_path_exits_2(self, tmp_path, capsys):
        assert main(["dist", "worker",
                     "--queue", str(tmp_path / "absent.queue")]) == 2
        self._assert_one_line_error(capsys)

    def test_dist_unknown_profile_exits_2(self, tmp_path, capsys):
        assert main(["dist", "submit", "--queue", str(tmp_path / "q.queue"),
                     "--profile", "nope"]) == 2
        self._assert_one_line_error(capsys)

    def test_queue_prune_reports_deletions(self, tmp_path, capsys):
        from repro.distributed import SqliteQueue

        path = str(tmp_path / "queue.sqlite")
        with SqliteQueue(path) as queue:
            queue.submit([{"kind": "test"}])
            task = queue.claim("w", lease_seconds=30)
            queue.complete(task.task_id, "w", {"ok": True})
        assert main(["queue", "prune", path, "--ttl", "0"]) == 0
        out = capsys.readouterr().out
        assert "pruned 1 finished tasks" in out

    def test_queue_prune_negative_ttl_exits_2(self, tmp_path, capsys):
        from repro.distributed import SqliteQueue

        path = str(tmp_path / "queue.sqlite")
        SqliteQueue(path).close()
        assert main(["queue", "prune", path, "--ttl", "-1"]) == 2
        self._assert_one_line_error(capsys)

    def test_obs_dump_non_http_url_exits_2(self, capsys):
        assert main(["obs", "dump", "not-a-url"]) == 2
        self._assert_one_line_error(capsys)

    def test_store_prune_ttl_with_fingerprint_exits_2(self, tmp_path, capsys):
        from repro.engine import SqliteStore

        path = str(tmp_path / "store.sqlite")
        SqliteStore(path).close()
        assert main(["store", "prune", path, "--ttl", "60",
                     "--fingerprint", "a" * 64]) == 2
        self._assert_one_line_error(capsys)

    def test_store_prune_negative_ttl_exits_2(self, tmp_path, capsys):
        from repro.engine import SqliteStore

        path = str(tmp_path / "store.sqlite")
        SqliteStore(path).close()
        assert main(["store", "prune", path, "--ttl", "-5"]) == 2
        self._assert_one_line_error(capsys)


class TestStoreEvictionCLI:
    def _seeded_store(self, tmp_path):
        from repro.attacktree.catalog import factory
        from repro.core.problems import Problem
        from repro.engine import (
            AnalysisRequest, SqliteStore, model_fingerprint, run_request,
        )

        path = str(tmp_path / "store.sqlite")
        store = SqliteStore(path)
        fingerprint = model_fingerprint(factory())
        for budget in (1, 2, 3):
            request = AnalysisRequest(Problem.DGC, budget=budget)
            store.put(fingerprint, request, run_request(factory(), request))
        store.close()
        return path

    def test_prune_ttl_reports_evictions(self, tmp_path, capsys):
        path = self._seeded_store(tmp_path)
        assert main(["store", "prune", path, "--ttl", "3600"]) == 0
        out = capsys.readouterr().out
        assert "evicted 0 results" in out and "ttl 3600s" in out

    def test_prune_max_bytes_evicts_until_fit(self, tmp_path, capsys):

        path = self._seeded_store(tmp_path)
        assert main(["store", "prune", path, "--max-bytes", "1"]) == 0
        assert "evicted 3 results" in capsys.readouterr().out
        assert main(["store", "stats", path]) == 0
        assert "entries        : 0" in capsys.readouterr().out
