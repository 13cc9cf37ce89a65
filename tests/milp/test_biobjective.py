"""Tests for the ε-constraint bi-objective ILP driver."""

import pytest

from repro.milp.biobjective import EpsilonConstraintSolver, infer_step
from repro.milp.model import (
    IntegerProgram,
    LinearExpression,
    Objective,
    ObjectiveSense,
)


def biobjective_knapsack() -> tuple[IntegerProgram, Objective, Objective]:
    """Three items; maximise value, minimise weight — every single-item and
    combined choice is a candidate point."""
    program = IntegerProgram("bi-knapsack")
    values = {"x0": 6.0, "x1": 5.0, "x2": 2.0}
    weights = {"x0": 4.0, "x1": 3.0, "x2": 1.0}
    for name in values:
        program.add_binary(name)
    value_objective = Objective(LinearExpression(values), ObjectiveSense.MAXIMIZE, "value")
    weight_objective = Objective(LinearExpression(weights), ObjectiveSense.MINIMIZE, "weight")
    return program, value_objective, weight_objective


def brute_force_front() -> set:
    values = [6.0, 5.0, 2.0]
    weights = [4.0, 3.0, 1.0]
    points = []
    for mask in range(8):
        value = sum(values[i] for i in range(3) if mask >> i & 1)
        weight = sum(weights[i] for i in range(3) if mask >> i & 1)
        points.append((value, weight))
    front = set()
    for value, weight in points:
        dominated = any(
            (other_value >= value and other_weight <= weight)
            and (other_value, other_weight) != (value, weight)
            and (other_value > value or other_weight < weight)
            for other_value, other_weight in points
        )
        if not dominated:
            front.add((value, weight))
    return front


class TestInferStep:
    def test_integer_coefficients(self):
        assert infer_step([[1.0, 3.0], [2.0, 10.0]]) == pytest.approx(0.5)

    def test_one_decimal_coefficients(self):
        assert infer_step([[10.8, 13.5], [100.0]]) == pytest.approx(0.05)

    def test_irrational_fallback(self):
        assert infer_step([[0.1234567891]], fallback=1e-6) == pytest.approx(1e-6)

    def test_empty_groups(self):
        assert infer_step([[], []]) == 1.0


class TestEpsilonConstraint:
    def test_full_non_dominated_set(self):
        program, value_obj, weight_obj = biobjective_knapsack()
        result = EpsilonConstraintSolver().solve(program, value_obj, weight_obj)
        assert set(result.values()) == brute_force_front()

    def test_points_sorted_by_secondary(self):
        program, value_obj, weight_obj = biobjective_knapsack()
        result = EpsilonConstraintSolver().solve(program, value_obj, weight_obj)
        secondaries = [point.secondary for point in result.points]
        assert secondaries == sorted(secondaries)

    def test_subproblem_count_reported(self):
        program, value_obj, weight_obj = biobjective_knapsack()
        result = EpsilonConstraintSolver().solve(program, value_obj, weight_obj)
        assert result.subproblems_solved >= 2 * len(result.points)

    def test_max_points_cap(self):
        program, value_obj, weight_obj = biobjective_knapsack()
        result = EpsilonConstraintSolver(max_points=2).solve(program, value_obj, weight_obj)
        assert len(result.points) == 2

    def test_explicit_step_override(self):
        program, value_obj, weight_obj = biobjective_knapsack()
        result = EpsilonConstraintSolver(step=0.5).solve(program, value_obj, weight_obj)
        assert set(result.values()) == brute_force_front()

    def test_single_point_problem(self):
        """With a single variable and zero weight, the front is one point
        plus the empty choice collapsed by domination."""
        program = IntegerProgram()
        program.add_binary("x")
        value = Objective(LinearExpression({"x": 5.0}), ObjectiveSense.MAXIMIZE)
        weight = Objective(LinearExpression({"x": 0.0}), ObjectiveSense.MINIMIZE)
        result = EpsilonConstraintSolver().solve(program, value, weight)
        assert (5.0, 0.0) in set(result.values())
