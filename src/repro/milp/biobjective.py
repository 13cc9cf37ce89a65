"""Exact bi-objective integer linear programming via the ε-constraint method.

Theorem 6 of the paper reduces the cost-damage Pareto front of a DAG-like AT
to a **bi-objective** ILP.  The original artifact drives Gurobi with the
Özlen–Azizoğlu style reduction to a sequence of single-objective problems;
this module implements the same idea with the classical *ε-constraint*
scheme, which for bi-objective problems enumerates exactly the set of
non-dominated points:

1. minimise the primary objective subject to ``secondary ≤ ε``
   (initially ``ε = ∞``);
2. tighten: minimise the secondary objective subject to the primary being at
   its optimum (a lexicographic step that lands exactly on the non-dominated
   point);
3. record the point, set ``ε`` to the achieved secondary value minus a step
   ``δ``, repeat until infeasible.

Exactness requires ``δ`` to be smaller than the smallest gap between
distinct achievable secondary-objective values.  Attack-tree instances have
objective coefficients on a coarse grid (integer costs in the case studies
and random suites, one-decimal damages in the data-server tree), so the step
is derived automatically from the coefficient grid; callers can override it
for exotic instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Sequence, Tuple

from .highs import HighsSolver
from .model import (
    ConstraintSense,
    IntegerProgram,
    LinearExpression,
    Objective,
    ObjectiveSense,
)
from .solution import SolveStatus

__all__ = ["BiobjectivePoint", "BiobjectiveResult", "EpsilonConstraintSolver",
           "infer_step"]


@dataclass(frozen=True)
class BiobjectivePoint:
    """A non-dominated point of a bi-objective ILP.

    ``primary`` and ``secondary`` are reported in the *declared* senses of
    the two objectives (so a maximisation objective reports its maximum).
    """

    primary: float
    secondary: float
    assignment: Mapping[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class BiobjectiveResult:
    """The full non-dominated set, ordered by increasing secondary value."""

    points: Tuple[BiobjectivePoint, ...]
    subproblems_solved: int

    def values(self) -> List[Tuple[float, float]]:
        """The (primary, secondary) value pairs."""
        return [(p.primary, p.secondary) for p in self.points]


def infer_step(coefficient_groups: Sequence[Sequence[float]], fallback: float = 1e-6) -> float:
    """Infer a safe ε-constraint step from objective coefficient grids.

    If every coefficient in every group is (numerically) a multiple of
    ``10^-k`` for some ``k ≤ 6``, any two distinct achievable objective
    values differ by at least ``10^-k``, so half of that is a safe step.
    Otherwise ``fallback`` is returned and exactness is only guaranteed up
    to that resolution.
    """
    values = [abs(v) for group in coefficient_groups for v in group if v]
    if not values:
        return 1.0
    for exponent in range(0, 7):
        quantum = 10.0 ** (-exponent)
        if all(abs(v / quantum - round(v / quantum)) < 1e-9 for v in values):
            return quantum / 2.0
    return fallback


class EpsilonConstraintSolver:
    """Enumerate the non-dominated set of a bi-objective integer program.

    Each ε-subproblem is solved with :class:`HighsSolver`.

    Parameters
    ----------
    step:
        The ε decrement ``δ``; ``None`` derives it from the objective
        coefficients via :func:`infer_step`.
    max_points:
        Safety valve: stop after this many non-dominated points (the fronts
        of Theorem 5 can be exponential in the worst case).
    """

    def __init__(
        self,
        step: Optional[float] = None,
        max_points: int = 100_000,
    ) -> None:
        self.step = step
        self.max_points = max_points

    def solve(
        self,
        program: IntegerProgram,
        primary: Objective,
        secondary: Objective,
    ) -> BiobjectiveResult:
        """Compute the non-dominated set of ``(primary, secondary)``.

        ``primary`` is optimised first in each ε-subproblem; ``secondary``
        is the objective the ε bound sweeps over.  For the cost-damage
        problems the natural choice is primary = damage (maximise),
        secondary = cost (minimise): each iteration asks "what is the most
        damage achievable with cost below ε", exactly problem DgC.
        """
        step = self.step
        if step is None:
            step = infer_step(
                [list(primary.expression.coefficients.values()),
                 list(secondary.expression.coefficients.values())]
            )

        solver = HighsSolver()
        # Secondary objective normalised to minimisation for the ε bound.
        secondary_min_expr = secondary.as_minimization()

        points: List[BiobjectivePoint] = []
        epsilon = math.inf
        subproblems = 0

        while len(points) < self.max_points:
            constrained = self._with_epsilon_bound(program, secondary_min_expr, epsilon)
            first = solver.solve(constrained, primary)
            subproblems += 1
            if first.status is not SolveStatus.OPTIMAL:
                break
            primary_value = first.objective_value

            # Lexicographic tightening: among solutions achieving the primary
            # optimum, minimise the secondary objective.
            tightened = self._with_epsilon_bound(program, secondary_min_expr, epsilon)
            self._bound_primary(tightened, primary, primary_value, step)
            second = solver.solve(tightened, secondary)
            subproblems += 1
            if second.status is not SolveStatus.OPTIMAL:
                # Numerical corner case: fall back to the first solution.
                second = first
            assignment = dict(second.assignment)
            secondary_value = secondary.value(assignment)
            primary_value = primary.value(assignment)
            points.append(
                BiobjectivePoint(
                    primary=primary_value,
                    secondary=secondary_value,
                    assignment=assignment,
                )
            )
            epsilon = secondary_min_expr.evaluate(assignment) - step

        ordered = tuple(sorted(points, key=lambda p: p.secondary))
        return BiobjectiveResult(points=ordered, subproblems_solved=subproblems)

    # ------------------------------------------------------------------ #
    # helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def _clone_program(program: IntegerProgram) -> IntegerProgram:
        clone = IntegerProgram(name=program.name)
        for variable in program.variables.values():
            clone.add_variable(variable.name, variable.kind, variable.lower, variable.upper)
        for constraint in program.constraints:
            clone.add_constraint(
                constraint.expression, constraint.sense, constraint.rhs, constraint.name
            )
        return clone

    def _with_epsilon_bound(
        self,
        program: IntegerProgram,
        secondary_min_expr: LinearExpression,
        epsilon: float,
    ) -> IntegerProgram:
        clone = self._clone_program(program)
        if math.isfinite(epsilon):
            clone.add_constraint(
                secondary_min_expr, ConstraintSense.LESS_EQUAL, epsilon, name="epsilon"
            )
        return clone

    @staticmethod
    def _bound_primary(
        program: IntegerProgram,
        primary: Objective,
        primary_value: float,
        step: float,
    ) -> None:
        """Constrain the primary objective to (numerically) its optimum."""
        tolerance = min(step / 2.0, 1e-6)
        expr = primary.expression
        if primary.sense is ObjectiveSense.MINIMIZE:
            program.add_constraint(
                expr, ConstraintSense.LESS_EQUAL, primary_value + tolerance,
                name="primary-optimum",
            )
        else:
            program.add_constraint(
                expr, ConstraintSense.GREATER_EQUAL, primary_value - tolerance,
                name="primary-optimum",
            )
