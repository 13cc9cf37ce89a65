"""Cost-damage analysis of DAG-like ATs via (bi-objective) integer programming.

This module implements Section VII of the paper.  The bottom-up recursion is
unsound on DAG-like ATs — a shared subtree would have its cost and damage
counted once per parent — so instead the problems are translated into
integer linear programs over one binary variable ``y_v`` per node:

* ``y_v`` is intended to represent ``S(x, v)``, the structure function of
  the attack ``x = y|_B``;
* the objectives are linear in ``y``: cost ``Σ_{v∈B} c(v)·y_v`` and damage
  ``Σ_{v∈N} d(v)·y_v`` (this is the paper's key observation — damage is a
  nonlinear function of the *attack* but a linear function of the
  *structure function*);
* the constraints only force ``y_v ≤ S(x, v)``:
  for an AND gate ``y_v ≤ y_w`` for every child ``w``, for an OR gate
  ``y_v ≤ Σ_w y_w``.  Forcing equality is unnecessary because setting
  ``y_v = S(x, v)`` never decreases damage and never increases cost, so some
  optimal solution always satisfies it (Theorem 6's proof).

Theorem 6 solves CDPF by handing the two objectives to a bi-objective ILP
solver; Theorem 7 obtains DgC and CgD directly as single-objective ILPs with
the budget/threshold as an extra linear constraint.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Tuple

from ..attacktree.attributes import CostDamageAT
from ..attacktree.node import NodeType
from ..milp.biobjective import EpsilonConstraintSolver
from ..milp.highs import HighsSolver
from ..milp.model import (
    ConstraintSense,
    IntegerProgram,
    LinearExpression,
    Objective,
    ObjectiveSense,
)
from ..milp.solution import MilpSolution, SolveStatus
from ..pareto.front import ParetoFront, ParetoPoint
from .semantics import evaluate_attack

__all__ = [
    "build_structure_program",
    "cost_objective",
    "damage_objective",
    "pareto_front_bilp",
    "max_damage_given_cost_bilp",
    "min_cost_given_damage_bilp",
]

_VARIABLE_PREFIX = "y:"


def _variable(node: str) -> str:
    """Name of the binary variable representing ``S(x, v)`` for node ``v``."""
    return _VARIABLE_PREFIX + node


def build_structure_program(cdat: CostDamageAT, name: str = "cost-damage") -> IntegerProgram:
    """Build the constraint system of Theorem 6 (no objectives attached).

    One binary variable per node; AND gates contribute ``y_v ≤ y_w`` per
    child, OR gates contribute ``y_v ≤ Σ_w y_w``.
    """
    tree = cdat.tree
    program = IntegerProgram(name=name)
    for node in tree.node_names:
        program.add_binary(_variable(node))
    for gate in tree.gates:
        node = tree.node(gate)
        if node.type is NodeType.AND:
            for child in node.children:
                expression = LinearExpression(
                    {_variable(gate): 1.0, _variable(child): -1.0}
                )
                program.add_less_equal(expression, 0.0, name=f"and:{gate}:{child}")
        else:  # OR
            coefficients = {_variable(gate): 1.0}
            for child in node.children:
                coefficients[_variable(child)] = coefficients.get(_variable(child), 0.0) - 1.0
            program.add_less_equal(
                LinearExpression(coefficients), 0.0, name=f"or:{gate}"
            )
    return program


def cost_objective(cdat: CostDamageAT) -> Objective:
    """The cost objective ``min Σ_{v∈B} c(v)·y_v``."""
    expression = LinearExpression(
        {_variable(bas): cdat.cost[bas] for bas in cdat.tree.basic_attack_steps}
    )
    return Objective(expression=expression, sense=ObjectiveSense.MINIMIZE, name="cost")


def damage_objective(cdat: CostDamageAT) -> Objective:
    """The damage objective ``max Σ_{v∈N} d(v)·y_v``."""
    expression = LinearExpression(
        {_variable(node): cdat.damage[node] for node in cdat.tree.node_names}
    )
    return Objective(expression=expression, sense=ObjectiveSense.MAXIMIZE, name="damage")


def _attack_from_solution(cdat: CostDamageAT, solution: MilpSolution) -> FrozenSet[str]:
    """Extract the attack ``x = y|_B`` from an ILP solution."""
    attack = set()
    for bas in cdat.tree.basic_attack_steps:
        if solution.value(_variable(bas)) > 0.5:
            attack.add(bas)
    return frozenset(attack)


def pareto_front_bilp(cdat: CostDamageAT, step: Optional[float] = None) -> ParetoFront:
    """Solve CDPF for an arbitrary (DAG-like or treelike) cd-AT (Theorem 6).

    The bi-objective program (maximise damage, minimise cost) is handed to
    the ε-constraint driver; every returned assignment is converted back to
    an attack and *re-evaluated with the exact semantics* so that reported
    cost/damage values are independent of solver tolerances.
    """
    program = build_structure_program(cdat)
    driver = EpsilonConstraintSolver(step=step)
    result = driver.solve(program, primary=damage_objective(cdat), secondary=cost_objective(cdat))

    points = []
    for point in result.points:
        attack = frozenset(
            bas
            for bas in cdat.tree.basic_attack_steps
            if point.assignment.get(_variable(bas), 0.0) > 0.5
        )
        cost, damage, reaches_root = evaluate_attack(cdat, attack)
        points.append(
            ParetoPoint(cost=cost, damage=damage, attack=attack, reaches_root=reaches_root)
        )
    # The empty attack is always achievable; include it explicitly in case the
    # sweep stopped at the cheapest positive-damage point.
    points.append(ParetoPoint(cost=0.0, damage=0.0, attack=frozenset(), reaches_root=False))
    return ParetoFront(points)


def max_damage_given_cost_bilp(
    cdat: CostDamageAT, budget: float
) -> Tuple[float, Optional[FrozenSet[str]]]:
    """Solve DgC via a single-objective ILP (Theorem 7).

    Maximise ``Σ d(v)·y_v`` subject to the structure constraints and
    ``Σ c(v)·y_v ≤ U``.
    """
    if budget < 0:
        return 0.0, None
    program = build_structure_program(cdat, name="DgC")
    program.add_less_equal(cost_objective(cdat).expression, budget, name="budget")
    solution = HighsSolver().solve(program, damage_objective(cdat))
    if solution.status is not SolveStatus.OPTIMAL:
        return 0.0, frozenset()
    attack = _attack_from_solution(cdat, solution)
    _, damage, _ = evaluate_attack(cdat, attack)
    return damage, attack


def min_cost_given_damage_bilp(
    cdat: CostDamageAT, threshold: float
) -> Tuple[Optional[float], Optional[FrozenSet[str]]]:
    """Solve CgD via a single-objective ILP (Theorem 7).

    Minimise ``Σ c(v)·y_v`` subject to the structure constraints and
    ``Σ d(v)·y_v ≥ L``.

    Unlike the DgC formulation, the damage constraint is a *lower* bound on
    a quantity that the relaxed ``y`` can overstate (``y_v ≤ S(x, v)`` is
    only an upper bound when maximising damage).  Here larger ``y`` helps
    satisfy the constraint, and the structure constraints exactly prevent
    ``y_v`` from exceeding ``S(x, v)``, so the formulation remains sound.
    """
    solver = HighsSolver()
    # MILP feasibility tolerances (HiGHS uses ~1e-6) can make the all-zero
    # assignment "satisfy" a tiny positive threshold.  When the extracted
    # attack misses the threshold we re-solve with a slightly strengthened
    # constraint; two bumps are ample for any realistic decoration.
    strengthened = threshold
    for _ in range(3):
        program = build_structure_program(cdat, name="CgD")
        program.add_constraint(
            damage_objective(cdat).expression,
            ConstraintSense.GREATER_EQUAL,
            strengthened,
            name="damage-threshold",
        )
        solution = solver.solve(program, cost_objective(cdat))
        if solution.status is not SolveStatus.OPTIMAL:
            return None, None
        attack = _attack_from_solution(cdat, solution)
        cost, damage, _ = evaluate_attack(cdat, attack)
        if damage + 1e-9 >= threshold:
            return cost, attack
        strengthened += max(1e-5, abs(threshold) * 1e-5)
    return None, None
