"""Tests for AnalysisSession: caching, batches, backend reachability."""

import json
import urllib.error
import urllib.request

import pytest

from repro.attacktree import serialization
from repro.attacktree.builder import AttackTreeBuilder
from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.cli import main
from repro.core.problems import Problem
from repro.distributed import SqliteQueue
from repro.engine import AnalysisRequest, AnalysisSession, model_fingerprint
from repro.service import API_KEY_HEADER, ServiceServer, Tenant, TenantRegistry


class TestCaching:
    def test_repeat_request_hits_cache(self):
        session = AnalysisSession(factory())
        first = session.run(AnalysisRequest(Problem.CDPF))
        second = session.run(AnalysisRequest(Problem.CDPF))
        assert not first.cache_hit
        assert second.cache_hit
        assert second.front is first.front
        assert session.stats.hits == 1 and session.stats.misses == 1

    def test_distinct_parameters_miss(self):
        session = AnalysisSession(factory())
        session.run(AnalysisRequest(Problem.DGC, budget=2))
        session.run(AnalysisRequest(Problem.DGC, budget=3))
        assert session.stats.misses == 2 and session.stats.hits == 0

    def test_distinct_backends_miss(self):
        session = AnalysisSession(factory())
        auto = session.run(AnalysisRequest(Problem.CDPF))
        forced = session.run(AnalysisRequest(Problem.CDPF, backend="enumerative"))
        assert not forced.cache_hit
        assert auto.front.values() == forced.front.values()

    def test_clear_cache_invalidates(self):
        session = AnalysisSession(factory())
        session.run(AnalysisRequest(Problem.CDPF))
        assert session.clear_cache() == 1
        again = session.run(AnalysisRequest(Problem.CDPF))
        assert not again.cache_hit

    def test_fingerprint_distinguishes_decorations(self):
        builder = AttackTreeBuilder()
        builder.bas("a", cost=1, damage=5)
        builder.or_gate("r", ["a"])
        cheap = builder.build_cd(root="r")
        builder2 = AttackTreeBuilder()
        builder2.bas("a", cost=2, damage=5)
        builder2.or_gate("r", ["a"])
        expensive = builder2.build_cd(root="r")
        assert model_fingerprint(cheap) != model_fingerprint(expensive)
        assert model_fingerprint(cheap) == model_fingerprint(cheap)

    def test_mutating_extras_does_not_corrupt_cache(self):
        session = AnalysisSession(data_server())
        request = AnalysisRequest(Problem.CDPF)
        first = session.run(request)
        first.extras.clear()
        session.cached_results()[0].extras.clear()
        second = session.run(request)
        assert second.cache_hit
        assert second.extras["shared_nodes"] == 1

    def test_sessions_on_same_model_share_keys_not_results(self):
        one, two = AnalysisSession(factory()), AnalysisSession(factory())
        assert one.fingerprint == two.fingerprint
        one.run(AnalysisRequest(Problem.CDPF))
        assert not two.run(AnalysisRequest(Problem.CDPF)).cache_hit


class TestBatch:
    def _requests(self):
        return [
            AnalysisRequest(Problem.CDPF),
            AnalysisRequest(Problem.DGC, budget=2),
            AnalysisRequest(Problem.CGD, threshold=300),
            AnalysisRequest(Problem.CDPF, backend="enumerative"),
        ]

    def test_batch_matches_sequential(self):
        sequential = AnalysisSession(factory())
        batched = AnalysisSession(factory())
        expected = [sequential.run(r) for r in self._requests()]
        actual = batched.run_batch(self._requests())
        assert len(actual) == len(expected)
        for got, want in zip(actual, expected):
            assert got.backend == want.backend
            assert got.value == want.value
            assert got.witness == want.witness
            if want.front is None:
                assert got.front is None
            else:
                assert got.front.values() == want.front.values()

    def test_parallel_batch_matches_sequential(self):
        sequential = AnalysisSession(panda_iot())
        parallel = AnalysisSession(panda_iot())
        requests = [
            AnalysisRequest(Problem.CDPF),
            AnalysisRequest(Problem.CEDPF),
            AnalysisRequest(Problem.EDGC, budget=7),
            AnalysisRequest(Problem.CGED, threshold=25),
        ]
        expected = [sequential.run(r) for r in requests]
        actual = parallel.run_batch(requests, executor="process", max_workers=2)
        for got, want in zip(actual, expected):
            assert got.backend == want.backend
            assert got.value == pytest.approx(want.value) if want.value is not None \
                else got.value is None
            if want.front is not None:
                assert got.front.values() == want.front.values()

    def test_batch_preserves_order(self):
        session = AnalysisSession(factory())
        budgets = [0, 1, 2, 3, 4, 5]
        results = session.run_batch(
            [AnalysisRequest(Problem.DGC, budget=b) for b in budgets],
            executor="process",
            max_workers=2,
        )
        assert [r.request.budget for r in results] == budgets
        assert [r.value for r in results] == [0, 200, 200, 210, 210, 310]

    def test_empty_batch(self):
        assert AnalysisSession(factory()).run_batch([]) == []


class TestMetadata:
    def test_result_metadata_fields(self):
        session = AnalysisSession(data_server())
        result = session.run(AnalysisRequest(Problem.CDPF))
        assert result.backend == "bottom-up"
        assert result.extras == {"shared_nodes": 1, "width": 1}
        assert result.shape == "dag"
        assert result.setting == "deterministic"
        assert result.wall_time_seconds > 0
        assert result.node_count == len(data_server().tree)
        assert result.bas_count == 12

    def test_summary_mentions_backend_and_problem(self):
        session = AnalysisSession(factory())
        text = session.run(AnalysisRequest(Problem.CDPF)).summary()
        assert "cdpf" in text and "bottom-up" in text


class TestAllProblemsViaRegistryAlone:
    """Acceptance: all six problems through the session, each resolved by
    the registry alone."""

    def test_six_problems_on_panda(self):
        session = AnalysisSession(panda_iot())
        results = session.run_batch(
            [
                AnalysisRequest(Problem.CDPF),
                AnalysisRequest(Problem.DGC, budget=7),
                AnalysisRequest(Problem.CGD, threshold=60),
                AnalysisRequest(Problem.CEDPF),
                AnalysisRequest(Problem.EDGC, budget=7),
                AnalysisRequest(Problem.CGED, threshold=25),
            ]
        )
        cdpf, dgc, cgd, cedpf, edgc, cged = results
        assert cdpf.front.max_damage_given_cost(7) == 65
        assert dgc.value == 65
        assert cgd.value == 7
        assert cedpf.front.max_damage_given_cost(3) == pytest.approx(18.0)
        assert edgc.value == pytest.approx(27.555)
        assert cged.value == 7
        assert {r.backend for r in results} == {"bottom-up"}


class TestWrongRequests:
    def test_budget_required(self):
        with pytest.raises(ValueError, match="requires a cost budget"):
            AnalysisSession(factory()).run(AnalysisRequest(Problem.DGC))

    def test_threshold_required(self):
        with pytest.raises(ValueError, match="requires a damage threshold"):
            AnalysisSession(factory()).run(AnalysisRequest(Problem.CGD))

    def test_probabilistic_problem_needs_cdp_model(self):
        with pytest.raises(TypeError, match="cdp-AT"):
            AnalysisSession(factory()).run(AnalysisRequest(Problem.CEDPF))

    def test_unknown_backend_via_session(self):
        with pytest.raises(ValueError, match="unknown backend"):
            AnalysisSession(factory()).run(
                AnalysisRequest(Problem.CDPF, backend="quantum")
            )


class TestOptionsRefused:
    """Requests carry no backend options: a wire request that still has an
    ``"options"`` field is refused at every entry point, never silently
    run without them."""

    WITH_OPTIONS = {"problem": "cdpf", "options": {"generations": 5}}

    def test_from_dict_raises(self):
        with pytest.raises(ValueError, match=r"unknown request fields: \['options'\]"):
            AnalysisRequest.from_dict(self.WITH_OPTIONS)

    def test_batch_cli_exits_2_with_one_line(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        serialization.save_json(factory(), str(model))
        requests = tmp_path / "requests.json"
        requests.write_text(json.dumps([{"problem": "cdpf"}, self.WITH_OPTIONS]))
        assert main(["batch", str(model), str(requests)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error_lines = [line for line in captured.err.splitlines() if line]
        assert len(error_lines) == 1
        assert error_lines[0].startswith("atcd: ")
        assert "[1]" in error_lines[0] and "options" in error_lines[0]

    def test_service_answers_400_and_enqueues_nothing(self, tmp_path):
        key = "acme-key-12345678"
        queue = SqliteQueue(str(tmp_path / "api.queue"))
        registry = TenantRegistry([Tenant(name="acme", key=key)])
        with ServiceServer(queue, registry, poll_seconds=0.01) as service:
            service.start()
            body = {
                "model": serialization.to_dict(factory()),
                "requests": [{"problem": "cdpf"}, self.WITH_OPTIONS],
            }
            request = urllib.request.Request(
                service.url + "/v1/jobs", data=json.dumps(body).encode("utf-8"),
                method="POST", headers={API_KEY_HEADER: key},
            )
            with pytest.raises(urllib.error.HTTPError) as caught:
                urllib.request.urlopen(request, timeout=30)
            assert caught.value.code == 400
            doc = json.loads(caught.value.read().decode("utf-8"))
            assert doc["kind"] == "validation"
            assert doc["index"] == 1
            assert "options" in doc["error"]
            assert queue.tasks() == []
