"""Tests for the benchmark harness: expansion, execution, executors."""

import pytest

from repro.bench import BenchRun, build_request, execute_specs, expand_specs
from repro.core.problems import Problem
from repro.workloads import ScenarioSpec

TINY = [
    ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
    ScenarioSpec(family="random", shape="treelike", setting="deterministic",
                 sizes=(6,), cases_per_size=2),
    ScenarioSpec(family="wide-fan", shape="dag", setting="deterministic",
                 sizes=(6,)),
]


class TestBuildRequest:
    def test_defaults_follow_setting(self):
        det = build_request(ScenarioSpec(family="random"))
        prob = build_request(ScenarioSpec(family="random", setting="probabilistic"))
        assert det.problem is Problem.CDPF
        assert prob.problem is Problem.CEDPF

    def test_scalar_params_flow_through(self):
        spec = ScenarioSpec(family="random", problem="dgc", params={"budget": 5})
        request = build_request(spec)
        assert request.problem is Problem.DGC
        assert request.budget == 5

    def test_backend_forced(self):
        spec = ScenarioSpec(family="random", backend="enumerative")
        assert build_request(spec).backend == "enumerative"


class TestExecution:
    def test_expand_specs_keeps_spec_with_case(self):
        items = expand_specs(TINY)
        assert len(items) == 5  # 2 catalog + 2 random + 1 wide-fan
        assert all(spec.family == case.family for spec, case in items)

    def test_sequential_run_records_rows(self):
        runs = execute_specs(TINY)
        assert len(runs) == 5
        for run in runs:
            assert isinstance(run, BenchRun)
            assert run.wall_time_seconds >= 0
            assert run.result_points > 0
            assert run.nodes > 0 and run.bas > 0
            assert run.backend in {"bottom-up", "bilp"}

    def test_garbage_is_collected_once_per_case_before_timing(
        self, monkeypatch
    ):
        import gc

        from repro.engine import AnalysisSession

        events = []
        run = AnalysisSession.run
        monkeypatch.setattr(gc, "collect", lambda *args: events.append("gc"))
        monkeypatch.setattr(
            AnalysisSession, "run",
            lambda self, request: events.append("run") or run(self, request),
        )
        execute_specs(TINY)
        assert events == ["gc", "run"] * 5

    def test_rows_round_trip(self):
        run = execute_specs(TINY[:1])[0]
        assert BenchRun.from_dict(run.to_dict()) == run

    def test_repeats_recorded(self):
        runs = execute_specs(TINY[:1], repeats=3)
        assert all(run.repeats == 3 for run in runs)
        # Repeats clear the session cache, so every repeat really computed.
        assert all(run.cache_hits == 0 for run in runs)
        assert all(run.cache_misses == 3 for run in runs)

    def test_thread_executor_matches_sequential(self):
        sequential = execute_specs(TINY)
        threaded = execute_specs(TINY, executor="thread", max_workers=4)
        assert [(r.case_id, r.result_points, r.value, r.backend)
                for r in sequential] == \
               [(r.case_id, r.result_points, r.value, r.backend)
                for r in threaded]

    def test_process_executor_matches_sequential_on_random_suite(self):
        # Acceptance criterion: process-pool execution of a random-suite
        # workload returns results equal to sequential execution.
        specs = [
            ScenarioSpec(family="random", shape="treelike",
                         setting="deterministic", sizes=(6, 10), cases_per_size=2),
            ScenarioSpec(family="random", shape="dag",
                         setting="probabilistic", sizes=(5,)),
        ]
        sequential = execute_specs(specs)
        processed = execute_specs(specs, executor="process", max_workers=2)
        assert [(r.case_id, r.result_points, r.value, r.backend, r.model_shape)
                for r in sequential] == \
               [(r.case_id, r.result_points, r.value, r.backend, r.model_shape)
                for r in processed]

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            execute_specs(TINY, executor="gpu")

    def test_bad_repeats_rejected(self):
        with pytest.raises(ValueError, match="repeats"):
            execute_specs(TINY, repeats=0)

    def test_invalid_request_fails_before_any_execution(self):
        # The missing budget must surface during pre-flight, not mid-run.
        specs = [ScenarioSpec(family="random", sizes=(6,), problem="dgc")]
        with pytest.raises(ValueError, match="budget"):
            execute_specs(specs)

    def test_unknown_backend_fails_preflight(self):
        specs = [ScenarioSpec(family="random", sizes=(6,), backend="nope")]
        with pytest.raises(ValueError, match="unknown backend"):
            execute_specs(specs)

    def test_zero_max_workers_rejected(self):
        # `--max-workers 0` must be a user error, not silently the default
        # pool size (0 is falsy, so `max_workers or ...` would mask it).
        with pytest.raises(ValueError, match="max_workers"):
            execute_specs(TINY, executor="thread", max_workers=0)
        with pytest.raises(ValueError, match="max_workers"):
            execute_specs(TINY, executor="process", max_workers=-1)


class TestTraceMemory:
    def test_untraced_rows_omit_peak_kb(self):
        runs = execute_specs(TINY[:1])
        assert all(run.peak_kb is None for run in runs)
        assert all("peak_kb" not in run.to_dict() for run in runs)

    def test_traced_rows_record_positive_peaks(self):
        runs = execute_specs(TINY[:1], trace_memory=True)
        assert all(run.peak_kb is not None and run.peak_kb > 0 for run in runs)
        for run in runs:
            round_tripped = BenchRun.from_dict(run.to_dict())
            assert round_tripped.peak_kb == run.peak_kb

    def test_traced_results_identical_to_untraced(self):
        traced = execute_specs(TINY, trace_memory=True)
        plain = execute_specs(TINY)
        key = lambda run: (run.case_id, run.result_points, run.value)
        assert [key(run) for run in traced] == [key(run) for run in plain]

    def test_process_executor_propagates_peaks(self):
        runs = execute_specs(TINY[:1], executor="process", max_workers=2,
                             trace_memory=True)
        assert all(run.peak_kb is not None and run.peak_kb > 0 for run in runs)

    def test_malformed_traced_payload_does_not_leak_the_tracer(self):
        # A long-lived worker catches the failure and keeps executing: the
        # tracer this call started must not stay on and slow everything.
        import tracemalloc

        from repro.bench.harness import execute_serialized_case

        assert not tracemalloc.is_tracing()
        with pytest.raises(ValueError, match="nodes"):
            execute_serialized_case(
                {"trace_memory": True, "model": {"broken": True},
                 "request": {"problem": "cdpf"}, "repeats": 1}
            )
        assert not tracemalloc.is_tracing()


class TestSharedStore:
    def _results(self, runs):
        return [(r.case_id, r.result_points, r.value, r.backend) for r in runs]

    def test_warm_run_is_served_from_the_store(self, tmp_path):
        store_path = str(tmp_path / "bench.sqlite")
        cold = execute_specs(TINY, store_path=store_path)
        warm = execute_specs(TINY, store_path=store_path)
        assert self._results(cold) == self._results(warm)
        assert all(run.cache_misses == 0 for run in warm)
        assert all(run.cache_hits == 1 for run in warm)
        assert all(run.store_hits == 1 for run in warm)
        # Store hits report the original computation's wall time, so warm
        # artifacts stay comparable against cold ones.
        assert [r.wall_time_seconds for r in warm] == \
               [r.wall_time_seconds for r in cold]

    def test_cold_run_records_misses_and_populates(self, tmp_path):
        from repro.engine import SqliteStore

        store_path = str(tmp_path / "bench.sqlite")
        cold = execute_specs(TINY, store_path=store_path)
        assert all(run.cache_misses == 1 and run.store_hits == 0 for run in cold)
        with SqliteStore(store_path) as store:
            assert len(store) == len(cold)

    def test_process_executor_shares_one_store(self, tmp_path):
        store_path = str(tmp_path / "bench.sqlite")
        cold = execute_specs(TINY, executor="process", max_workers=2,
                             store_path=store_path)
        warm = execute_specs(TINY, executor="process", max_workers=2,
                             store_path=store_path)
        assert self._results(cold) == self._results(warm)
        assert all(run.store_hits == 1 for run in warm)

    def test_unusable_store_fails_before_any_execution(self, tmp_path):
        from repro.engine import StoreError

        bad = tmp_path / "corrupt.sqlite"
        bad.write_bytes(b"not a database")
        with pytest.raises(StoreError, match="cannot open result store"):
            execute_specs(TINY, store_path=str(bad))
