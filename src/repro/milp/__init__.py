"""Integer-linear-programming substrate.

Replaces the paper's Gurobi + YALMIP stack: a small model layer, the HiGHS
ILP solver (via SciPy), and an ε-constraint bi-objective driver.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "BiobjectivePoint": "biobjective",
    "BiobjectiveResult": "biobjective",
    "Constraint": "model",
    "ConstraintSense": "model",
    "EpsilonConstraintSolver": "biobjective",
    "HighsSolver": "highs",
    "IntegerProgram": "model",
    "LinearExpression": "model",
    "MilpSolution": "solution",
    "ModelError": "model",
    "Objective": "model",
    "ObjectiveSense": "model",
    "SolveStatus": "solution",
    "Variable": "model",
    "VariableKind": "model",
    "infer_step": "biobjective",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
