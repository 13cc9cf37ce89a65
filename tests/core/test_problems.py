"""Tests for the problem taxonomy and for answers the engine resolves by
Table I or by a named backend."""

import pytest

from repro.attacktree.catalog import (
    data_server,
    example10_or_pair,
    factory,
    factory_probabilistic,
)
from repro.attacktree.transform import with_unit_probabilities
from repro.core.problems import Problem, capability_matrix
from repro.engine import AnalysisRequest, run_request

FACTORY_FRONT = [(0, 0), (1, 200), (3, 210), (5, 310)]


class TestProblemEnum:
    def test_probabilistic_classification(self):
        assert Problem.CEDPF.is_probabilistic
        assert Problem.EDGC.is_probabilistic
        assert Problem.CGED.is_probabilistic
        assert not Problem.CDPF.is_probabilistic
        assert not Problem.DGC.is_probabilistic

    def test_front_classification(self):
        assert Problem.CDPF.is_front and Problem.CEDPF.is_front
        assert not Problem.DGC.is_front


class TestDispatchAuto:
    def test_treelike_deterministic_uses_bottom_up(self):
        result = run_request(factory(), AnalysisRequest(Problem.CDPF))
        assert result.backend == "bottom-up"
        assert result.front.values() == FACTORY_FRONT

    def test_dag_deterministic_uses_bottom_up(self):
        result = run_request(data_server(), AnalysisRequest(Problem.CDPF))
        assert result.backend == "bottom-up"
        assert len(result.front) == 6

    def test_treelike_probabilistic_uses_bottom_up(self):
        result = run_request(example10_or_pair(), AnalysisRequest(Problem.CEDPF))
        assert result.backend == "bottom-up"

    def test_dag_probabilistic_falls_back_to_enumeration(self):
        model = with_unit_probabilities(data_server())
        result = run_request(model, AnalysisRequest(Problem.EDGC, budget=300))
        assert result.backend == "enumerative"
        assert result.value == pytest.approx(24.0)


class TestDispatchForced:
    def test_forced_enumerative(self):
        result = run_request(
            factory(), AnalysisRequest(Problem.CDPF, backend="enumerative")
        )
        assert result.backend == "enumerative"
        assert result.front.values() == FACTORY_FRONT

    def test_forced_bilp_on_tree(self):
        result = run_request(
            factory(), AnalysisRequest(Problem.DGC, budget=2, backend="bilp")
        )
        assert result.backend == "bilp"
        assert result.value == 200

    def test_bilp_rejected_for_probabilistic_problems(self):
        model = factory_probabilistic()
        requests = [
            AnalysisRequest(Problem.CEDPF, backend="bilp"),
            AnalysisRequest(Problem.EDGC, budget=2, backend="bilp"),
            AnalysisRequest(Problem.CGED, threshold=2, backend="bilp"),
        ]
        for request in requests:
            with pytest.raises(ValueError, match="no BILP"):
                run_request(model, request)


class TestCapabilityMatrix:
    def test_matches_table1(self):
        matrix = capability_matrix()
        assert "bottom-up" in matrix[("deterministic", "tree")]
        assert "BILP" in matrix[("deterministic", "dag")]
        assert "bottom-up" in matrix[("probabilistic", "tree")]
        assert "open problem" in matrix[("probabilistic", "dag")]
        assert len(matrix) == 4
