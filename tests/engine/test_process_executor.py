"""Tests for the session's process-pool batch executor."""

import pytest

from repro.attacktree import catalog
from repro.core.problems import Problem
from repro.engine import (
    AnalysisRequest,
    AnalysisSession,
    default_registry,
    run_serialized_request,
)
from repro.attacktree import serialization

REQUESTS = [
    AnalysisRequest(Problem.CDPF),
    AnalysisRequest(Problem.CEDPF),
    AnalysisRequest(Problem.DGC, budget=10),
    AnalysisRequest(Problem.CGD, threshold=20),
]


class TestProcessExecutor:
    def test_results_equal_sequential(self):
        sequential = AnalysisSession(catalog.panda_iot()).run_batch(REQUESTS)
        processed = AnalysisSession(catalog.panda_iot()).run_batch(
            REQUESTS, executor="process", max_workers=2
        )
        for a, b in zip(sequential, processed):
            assert a.front == b.front
            assert a.value == b.value
            assert a.witness == b.witness
            assert a.backend == b.backend

    def test_results_populate_the_cache(self):
        session = AnalysisSession(catalog.factory())
        batch = [AnalysisRequest(Problem.CDPF)]
        first = session.run_batch(batch, executor="process")
        assert not first[0].cache_hit
        again = session.run(AnalysisRequest(Problem.CDPF))
        assert again.cache_hit
        assert session.stats.hits == 1 and session.stats.misses == 1

    def test_duplicate_requests_computed_once(self):
        session = AnalysisSession(catalog.factory())
        batch = [AnalysisRequest(Problem.CDPF), AnalysisRequest(Problem.CDPF)]
        results = session.run_batch(batch, executor="process")
        assert not results[0].cache_hit
        assert results[1].cache_hit
        assert results[0].front == results[1].front
        assert session.stats.misses == 1

    def test_cache_hits_served_in_parent(self):
        session = AnalysisSession(catalog.factory())
        session.run(AnalysisRequest(Problem.CDPF))
        results = session.run_batch(
            [AnalysisRequest(Problem.CDPF)], executor="process"
        )
        assert results[0].cache_hit

    def test_invalid_request_fails_before_spawning(self):
        session = AnalysisSession(catalog.factory())
        with pytest.raises(ValueError, match="budget"):
            session.run_batch(
                [AnalysisRequest(Problem.DGC)], executor="process"
            )

    def test_unknown_backend_fails_before_spawning(self):
        session = AnalysisSession(catalog.factory())
        with pytest.raises(ValueError, match="unknown backend"):
            session.run_batch(
                [AnalysisRequest(Problem.CDPF, backend="nope")],
                executor="process",
            )

    def test_custom_registry_rejected(self):
        session = AnalysisSession(catalog.factory(), registry=default_registry())
        with pytest.raises(ValueError, match="default backend registry") as error:
            session.run_batch([AnalysisRequest(Problem.CDPF)], executor="process")
        assert "executor='sequential'" in str(error.value)

    @pytest.mark.parametrize("executor", ["quantum", "thread"])
    def test_unknown_executor_rejected(self, executor):
        session = AnalysisSession(catalog.factory())
        with pytest.raises(ValueError, match="unknown executor"):
            session.run_batch([AnalysisRequest(Problem.CDPF)], executor=executor)

    @pytest.mark.parametrize("executor", ["sequential", "process"])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_non_positive_max_workers_rejected(self, executor, max_workers):
        # 0 is falsy, so `max_workers or ...` would silently pick the
        # default pool size instead of refusing it.
        session = AnalysisSession(catalog.factory())
        with pytest.raises(ValueError, match="max_workers must be a positive"):
            session.run_batch(
                [AnalysisRequest(Problem.CDPF)],
                executor=executor,
                max_workers=max_workers,
            )


class TestSerializedRequest:
    def test_wire_round_trip_matches_in_process(self):
        model = catalog.factory()
        request = AnalysisRequest(Problem.CDPF)
        payload = run_serialized_request(
            serialization.to_dict(model), request.to_dict()
        )
        session = AnalysisSession(model)
        direct = session.run(request)
        assert payload["backend"] == direct.backend
        assert payload["front"] == direct.to_dict()["front"]
