"""Tests for the problem taxonomy and the uniform solve() dispatch."""

import pytest

from repro.attacktree.catalog import (
    data_server,
    example10_or_pair,
    factory,
    factory_probabilistic,
    panda_iot,
)
from repro.core.problems import Method, Problem, SolveResult, capability_matrix, solve


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
        result = solve(factory(), Problem.CDPF)
        assert result.method is Method.BOTTOM_UP
        assert result.front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]

    def test_dag_deterministic_uses_conditioning(self):
        result = solve(data_server(), Problem.CDPF)
        assert result.method is Method.CONDITIONING
        assert len(result.front) == 6

    def test_treelike_probabilistic_uses_bottom_up(self):
        result = solve(example10_or_pair(), Problem.CEDPF)
        assert result.method is Method.BOTTOM_UP

    def test_dag_probabilistic_falls_back_to_enumeration(self):
        from repro.attacktree.transform import with_unit_probabilities

        model = with_unit_probabilities(data_server())
        result = solve(model, Problem.EDGC, budget=300)
        assert result.method is Method.ENUMERATIVE
        assert result.value == pytest.approx(24.0)


class TestDispatchForced:
    def test_forced_enumerative(self):
        result = solve(factory(), Problem.CDPF, method=Method.ENUMERATIVE)
        assert result.method is Method.ENUMERATIVE
        assert result.front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]

    def test_forced_bilp_on_tree(self):
        result = solve(factory(), Problem.DGC, method=Method.BILP, budget=2)
        assert result.value == 200

    def test_bilp_rejected_for_probabilistic_problems(self):
        with pytest.raises(ValueError, match="no BILP"):
            solve(factory_probabilistic(), Problem.CEDPF, method=Method.BILP)
        with pytest.raises(ValueError, match="no BILP"):
            solve(factory_probabilistic(), Problem.EDGC, method=Method.BILP, budget=2)
        with pytest.raises(ValueError, match="no BILP"):
            solve(factory_probabilistic(), Problem.CGED, method=Method.BILP, threshold=2)


class TestParameterValidation:
    def test_budget_required(self):
        with pytest.raises(ValueError, match="budget"):
            solve(factory(), Problem.DGC)

    def test_threshold_required(self):
        with pytest.raises(ValueError, match="threshold"):
            solve(factory(), Problem.CGD)

    def test_probabilistic_problem_requires_cdp(self):
        with pytest.raises(TypeError, match="cdp-AT"):
            solve(factory(), Problem.CEDPF)

    def test_front_result_requires_front(self):
        with pytest.raises(ValueError, match="Pareto front"):
            SolveResult(problem=Problem.CDPF, method=Method.AUTO, front=None)


class TestAllProblemsOnCaseStudies:
    def test_all_six_problems_on_panda(self):
        model = panda_iot()
        cdpf = solve(model, Problem.CDPF)
        dgc = solve(model, Problem.DGC, budget=7)
        cgd = solve(model, Problem.CGD, threshold=60)
        cedpf = solve(model, Problem.CEDPF)
        edgc = solve(model, Problem.EDGC, budget=7)
        cged = solve(model, Problem.CGED, threshold=25)
        assert cdpf.front.max_damage_given_cost(7) == 65
        assert dgc.value == 65
        assert cgd.value == 7
        assert cedpf.front.max_damage_given_cost(3) == pytest.approx(18.0)
        assert edgc.value == pytest.approx(27.555)
        assert cged.value == 7

    def test_deterministic_problems_accept_cdp_models(self):
        """A cdp-AT can be used for deterministic problems (probabilities ignored)."""
        result = solve(factory_probabilistic(), Problem.CDPF)
        assert result.front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]


class TestCapabilityMatrix:
    def test_matches_table1(self):
        matrix = capability_matrix()
        assert "bottom-up" in matrix[("deterministic", "tree")]
        assert "BILP" in matrix[("deterministic", "dag")]
        assert "bottom-up" in matrix[("probabilistic", "tree")]
        assert "open problem" in matrix[("probabilistic", "dag")]
        assert len(matrix) == 4
