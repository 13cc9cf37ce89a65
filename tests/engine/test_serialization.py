"""JSON round-trip tests for AnalysisRequest / AnalysisResult."""

import json

import pytest

from repro.attacktree.catalog import data_server, factory, panda_iot
from repro.core.problems import Problem
from repro.engine import AnalysisRequest, AnalysisResult, AnalysisSession


class TestRequestRoundTrip:
    def test_minimal_request(self):
        request = AnalysisRequest(Problem.CDPF)
        restored = AnalysisRequest.from_json(request.to_json())
        assert restored == request
        assert restored.cache_key() == request.cache_key()

    def test_full_request(self):
        request = AnalysisRequest(Problem.EDGC, budget=7.5, backend="enumerative")
        restored = AnalysisRequest.from_json(request.to_json())
        assert restored == request
        assert restored.cache_key() == request.cache_key()
        assert restored.to_dict() == {
            "problem": "edgc", "budget": 7.5, "backend": "enumerative",
        }

    def test_problem_accepts_string_value(self):
        assert AnalysisRequest("cgd", threshold=2).problem is Problem.CGD

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown request fields"):
            AnalysisRequest.from_dict({"problem": "cdpf", "bugdet": 3})

    def test_missing_problem_rejected(self):
        with pytest.raises(ValueError, match="missing the 'problem'"):
            AnalysisRequest.from_dict({"budget": 3})

    def test_non_numeric_budget_rejected(self):
        with pytest.raises(ValueError, match="budget must be a number"):
            AnalysisRequest.from_dict({"problem": "dgc", "budget": "2"})
        with pytest.raises(ValueError, match="threshold must be a number"):
            AnalysisRequest(Problem.CGD, threshold=True)

    @pytest.mark.parametrize("problem, field", [
        ("dgc", "budget"), ("edgc", "budget"), ("cgd", "threshold"), ("cged", "threshold"),
    ])
    def test_nan_parameter_rejected(self, problem, field):
        # json parses NaN; a NaN budget would otherwise answer as unbudgeted.
        text = f'{{"problem": "{problem}", "{field}": NaN}}'
        with pytest.raises(ValueError, match=f"{field} must be a number, got NaN"):
            AnalysisRequest.from_json(text)
        with pytest.raises(ValueError, match="NaN"):
            AnalysisRequest.from_dict({"problem": problem, field: float("nan")})

    def test_infinite_budget_accepted(self):
        # Unlike NaN, an infinite budget is meaningful: nothing is pruned.
        request = AnalysisRequest.from_json('{"problem": "dgc", "budget": Infinity}')
        assert request.budget == float("inf")

    def test_non_string_backend_rejected(self):
        with pytest.raises(ValueError, match="backend must be a string"):
            AnalysisRequest.from_dict({"problem": "cdpf", "backend": 3})


class TestResultRoundTrip:
    def test_front_result(self):
        session = AnalysisSession(factory())
        result = session.run(AnalysisRequest(Problem.CDPF))
        restored = AnalysisResult.from_json(result.to_json())
        assert restored.request == result.request
        assert restored.backend == result.backend
        assert restored.shape == result.shape and restored.setting == result.setting
        assert restored.front.values() == result.front.values()
        assert [p.attack for p in restored.front] == [p.attack for p in result.front]
        assert restored.node_count == result.node_count
        assert restored.bas_count == result.bas_count
        assert restored.wall_time_seconds == result.wall_time_seconds

    def test_value_result(self):
        session = AnalysisSession(panda_iot())
        result = session.run(AnalysisRequest(Problem.EDGC, budget=7))
        restored = AnalysisResult.from_json(result.to_json())
        assert restored.value == pytest.approx(result.value)
        assert restored.witness == result.witness
        assert restored.front is None

    def test_unreachable_threshold_result(self):
        session = AnalysisSession(factory())
        result = session.run(AnalysisRequest(Problem.CGD, threshold=99999))
        assert result.value is None
        restored = AnalysisResult.from_json(result.to_json())
        assert restored.value is None and restored.witness is None

    def test_extras_survive(self):
        session = AnalysisSession(data_server())
        result = session.run(AnalysisRequest(Problem.CDPF))
        restored = AnalysisResult.from_json(result.to_json())
        assert restored.extras == result.extras
        assert restored.extras["shared_nodes"] >= 1

    def test_json_is_plain_data(self):
        """The wire format must be stock JSON: no custom encoder needed."""
        session = AnalysisSession(factory())
        batch = session.run_batch(
            [AnalysisRequest(Problem.CDPF), AnalysisRequest(Problem.DGC, budget=2)]
        )
        payload = json.dumps([r.to_dict() for r in batch])
        parsed = json.loads(payload)
        assert [AnalysisResult.from_dict(entry).backend for entry in parsed] == [
            "bottom-up",
            "bottom-up",
        ]
