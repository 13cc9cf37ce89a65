"""Tests for the HiGHS (scipy.optimize.milp) backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from repro.milp.highs import HighsSolver
from repro.milp.model import (
    ConstraintSense,
    IntegerProgram,
    LinearExpression,
    ModelError,
    ObjectiveSense,
    VariableKind,
)
from repro.milp.solution import MilpSolution, SolveStatus


def simple_program() -> IntegerProgram:
    program = IntegerProgram()
    program.add_binary("x")
    program.add_binary("y")
    program.add_less_equal(LinearExpression({"x": 2.0, "y": 3.0}), 4.0)
    program.add_objective(LinearExpression({"x": 3.0, "y": 5.0}), ObjectiveSense.MAXIMIZE)
    return program


def knapsack_program(values, weights, capacity) -> IntegerProgram:
    program = IntegerProgram("knapsack")
    for index in range(len(values)):
        program.add_binary(f"x{index}")
    program.add_less_equal(
        LinearExpression({f"x{i}": float(w) for i, w in enumerate(weights)}), capacity
    )
    program.add_objective(
        LinearExpression({f"x{i}": float(v) for i, v in enumerate(values)}),
        ObjectiveSense.MAXIMIZE,
    )
    return program


def linear_program(c, a_ub, b_ub, lower, upper) -> IntegerProgram:
    """``min c·x`` s.t. ``a_ub x <= b_ub`` over continuous variables in a box."""
    program = IntegerProgram("lp")
    names = [f"x{i}" for i in range(len(c))]
    for name, low, high in zip(names, lower, upper):
        program.add_variable(name, VariableKind.CONTINUOUS, low, high)
    for row, rhs in zip(a_ub, b_ub):
        program.add_less_equal(
            LinearExpression({name: float(a) for name, a in zip(names, row)}), rhs
        )
    program.add_objective(LinearExpression({name: float(v) for name, v in zip(names, c)}))
    return program


def brute_force_knapsack(values, weights, capacity) -> float:
    best = 0.0
    n = len(values)
    for mask in range(2 ** n):
        weight = sum(weights[i] for i in range(n) if mask >> i & 1)
        if weight <= capacity:
            best = max(best, sum(values[i] for i in range(n) if mask >> i & 1))
    return best


class TestHighsSolver:
    def test_optimal_solution(self):
        solution = HighsSolver().solve(simple_program())
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(5.0)
        assert solution.rounded_assignment() == {"x": 0, "y": 1}
        assert solution.backend == "highs"

    def test_infeasible(self):
        program = IntegerProgram()
        program.add_binary("x")
        program.add_constraint(LinearExpression.term("x"), ConstraintSense.GREATER_EQUAL, 2.0)
        program.add_objective(LinearExpression.term("x"))
        assert HighsSolver().solve(program).status is SolveStatus.INFEASIBLE

    def test_explicit_objective_choice(self):
        program = simple_program()
        extra = program.add_objective(
            LinearExpression({"x": 1.0, "y": 1.0}), ObjectiveSense.MINIMIZE, name="count"
        )
        solution = HighsSolver().solve(program, extra)
        assert solution.objective_value == pytest.approx(0.0)

    def test_agreement_with_brute_force(self):
        # max 3x + 5y s.t. 2x + 3y <= 4 over the four binary assignments.
        highs = HighsSolver().solve(simple_program())
        assert highs.objective_value == pytest.approx(
            brute_force_knapsack([3, 5], [2, 3], 4)
        )

    def test_small_knapsack(self):
        program = knapsack_program([10, 7, 5], [4, 3, 2], 5)
        solution = HighsSolver().solve(program)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(12.0)
        assert solution.rounded_assignment() == {"x0": 0, "x1": 1, "x2": 1}

    @pytest.mark.parametrize("budget", [0, 1, 2, 3, 4, 5])
    def test_factory_dgc_program_matches_enumeration(self, budget):
        from repro.attacktree.catalog import factory
        from repro.core.bilp import build_structure_program, cost_objective, damage_objective
        from repro.core.enumerative import enumerate_pareto_front

        model = factory()
        program = build_structure_program(model)
        program.add_less_equal(cost_objective(model).expression, float(budget))
        solution = HighsSolver().solve(program, damage_objective(model))
        assert solution.status is SolveStatus.OPTIMAL
        expected = enumerate_pareto_front(model).max_damage_given_cost(budget)
        assert solution.objective_value == pytest.approx(expected)

    def test_integer_variables_beyond_binary(self):
        # max x + y s.t. x + y <= 3.5 with x integer in [0, 3], y continuous in [0, 1].
        program = IntegerProgram()
        program.add_variable("x", VariableKind.INTEGER, 0, 3)
        program.add_variable("y", VariableKind.CONTINUOUS, 0, 1)
        program.add_less_equal(LinearExpression({"x": 1.0, "y": 1.0}), 3.5)
        program.add_objective(LinearExpression({"x": 1.0, "y": 1.0}), ObjectiveSense.MAXIMIZE)
        solution = HighsSolver().solve(program)
        assert solution.objective_value == pytest.approx(3.5)
        assert solution.value("x") == pytest.approx(3.0)

    @settings(max_examples=25, deadline=None)
    @given(
        values=st.lists(st.integers(min_value=0, max_value=15), min_size=1, max_size=6),
        weights=st.lists(st.integers(min_value=1, max_value=8), min_size=1, max_size=6),
        capacity=st.integers(min_value=0, max_value=20),
    )
    def test_random_knapsacks_optimal(self, values, weights, capacity):
        size = min(len(values), len(weights))
        values, weights = values[:size], weights[:size]
        program = knapsack_program(values, weights, capacity)
        solution = HighsSolver().solve(program)
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(
            brute_force_knapsack(values, weights, capacity)
        )

    def test_program_without_constraints(self):
        program = IntegerProgram()
        program.add_binary("x")
        program.add_objective(LinearExpression.term("x"), ObjectiveSense.MAXIMIZE)
        solution = HighsSolver().solve(program)
        assert solution.objective_value == pytest.approx(1.0)


class TestContinuousPrograms:
    """Purely continuous programs go through the same solve path."""

    def test_unconstrained_box_minimum(self):
        solution = HighsSolver().solve(linear_program([1.0, -1.0], [], [], [0, 0], [1, 1]))
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(-1.0)
        assert solution.value("x0") == pytest.approx(0.0)
        assert solution.value("x1") == pytest.approx(1.0)

    def test_single_constraint(self):
        # min -x - y s.t. x + y <= 1, 0 <= x, y <= 1
        solution = HighsSolver().solve(
            linear_program([-1.0, -1.0], [[1.0, 1.0]], [1.0], [0, 0], [1, 1])
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(-1.0)
        assert solution.value("x0") + solution.value("x1") == pytest.approx(1.0)

    def test_infeasible(self):
        # x <= -1 with x in [0, 1] is infeasible.
        solution = HighsSolver().solve(linear_program([1.0], [[1.0]], [-1.0], [0], [1]))
        assert solution.status is SolveStatus.INFEASIBLE

    def test_nonzero_lower_bounds(self):
        solution = HighsSolver().solve(linear_program([1.0], [], [], [2], [5]))
        assert solution.objective_value == pytest.approx(2.0)

    def test_negative_lower_bounds(self):
        solution = HighsSolver().solve(linear_program([1.0], [], [], [-3], [5]))
        assert solution.objective_value == pytest.approx(-3.0)

    def test_degenerate_constraints(self):
        # Redundant constraints must not disturb the optimum.
        solution = HighsSolver().solve(
            linear_program(
                [-1.0, -2.0],
                [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                [0.5, 0.5, 0.5],
                [0, 0],
                [1, 1],
            )
        )
        assert solution.status is SolveStatus.OPTIMAL
        assert solution.objective_value == pytest.approx(-1.5)

    def test_empty_domain_rejected_by_the_model(self):
        with pytest.raises(ModelError, match="empty domain"):
            linear_program([1.0], [], [], [2], [1])

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_matches_linprog_on_random_lps(self, data):
        """On random bounded LPs the solve agrees with SciPy's ``linprog``."""
        n = data.draw(st.integers(min_value=1, max_value=4), label="n")
        m = data.draw(st.integers(min_value=0, max_value=4), label="m")
        c = [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(n)]
        a = [[data.draw(st.integers(min_value=-3, max_value=3)) for _ in range(n)]
             for _ in range(m)]
        b = [data.draw(st.integers(min_value=-2, max_value=6)) for _ in range(m)]
        lower = [0.0] * n
        upper = [1.0] * n

        mine = HighsSolver().solve(linear_program(c, a, b, lower, upper))
        reference = linprog(
            c, A_ub=np.asarray(a, dtype=float).reshape(m, n) if m else None,
            b_ub=b if m else None, bounds=list(zip(lower, upper)), method="highs",
        )
        if reference.status == 2:
            assert mine.status is SolveStatus.INFEASIBLE
        else:
            assert reference.status == 0
            assert mine.status is SolveStatus.OPTIMAL
            assert mine.objective_value == pytest.approx(reference.fun, abs=1e-6)


class TestSolverSilence:
    """The BILP path must not leak HiGHS's native-stdout diagnostics."""

    @staticmethod
    def _noisy_model():
        """A model known to make HiGHS print its stray diagnostic line.

        The smoke-profile case ``random-dag-deterministic-s2023-n20-i1``,
        after the JSON round-trip every harness worker performs (which turns
        the integer decorations into floats), used to emit
        ``HighsMipSolverData::transformNewIntegerFeasibleSolution …``
        straight to OS-level stdout during the BILP front sweep.
        """
        from repro.attacktree import serialization
        from repro.workloads import ScenarioSpec, expand

        spec = ScenarioSpec(
            family="random",
            shape="dag",
            setting="deterministic",
            sizes=(20,),
            cases_per_size=2,
        )
        case = expand(spec)[1]
        return serialization.from_dict(serialization.to_dict(case.model))

    def test_direct_solve_is_silent_by_default(self, capfd):
        solution = HighsSolver().solve(simple_program())
        assert solution.status is SolveStatus.OPTIMAL
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    def test_noisy_bilp_instance_is_silent_by_default(self, capfd):
        from repro.core.problems import Problem
        from repro.engine import AnalysisRequest, AnalysisSession

        result = AnalysisSession(self._noisy_model()).run(
            AnalysisRequest(Problem.CDPF, backend="bilp")
        )
        assert result.front is not None and len(result.front) > 0
        out, err = capfd.readouterr()
        assert out == "" and err == ""

    def test_python_stdout_survives_the_gag(self, capsys):
        # The fd redirect must only cover the native call: Python-level
        # prints before and after the solve reach the caller untouched.
        print("before")
        HighsSolver().solve(simple_program())
        print("after")
        assert capsys.readouterr().out == "before\nafter\n"

    def test_overlapping_solves_restore_stdout(self, capfd):
        # The fd gag is process-global: interleaved save/restore from
        # concurrent solves must not leave fd 1 pointing at /dev/null.
        import os
        from concurrent.futures import ThreadPoolExecutor

        def solve(_):
            return HighsSolver().solve(simple_program()).status

        with ThreadPoolExecutor(max_workers=4) as pool:
            statuses = list(pool.map(solve, range(16)))
        assert all(status is SolveStatus.OPTIMAL for status in statuses)
        assert os.fstat(1).st_ino != os.stat(os.devnull).st_ino
        print("still here")
        assert "still here" in capfd.readouterr().out


class TestSolveStatus:
    def test_is_optimal_flag(self):
        assert SolveStatus.OPTIMAL.is_optimal
        assert not SolveStatus.INFEASIBLE.is_optimal

    def test_rounded_assignment_rejects_fractional(self):
        solution = MilpSolution(status=SolveStatus.OPTIMAL, objective_value=1.0,
                                assignment={"x": 0.4})
        with pytest.raises(ValueError, match="non-integral"):
            solution.rounded_assignment()
