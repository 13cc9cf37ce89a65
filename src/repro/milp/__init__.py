"""Integer-linear-programming substrate.

Replaces the paper's Gurobi + YALMIP stack: a small model layer, the HiGHS
ILP solver (via SciPy), and an ε-constraint bi-objective driver.
"""

from .biobjective import (
    BiobjectivePoint,
    BiobjectiveResult,
    EpsilonConstraintSolver,
    infer_step,
)
from .highs import HighsSolver
from .model import (
    Constraint,
    ConstraintSense,
    IntegerProgram,
    LinearExpression,
    ModelError,
    Objective,
    ObjectiveSense,
    Variable,
    VariableKind,
)
from .solution import MilpSolution, SolveStatus

__all__ = [
    "BiobjectivePoint",
    "BiobjectiveResult",
    "Constraint",
    "ConstraintSense",
    "EpsilonConstraintSolver",
    "HighsSolver",
    "IntegerProgram",
    "LinearExpression",
    "MilpSolution",
    "ModelError",
    "Objective",
    "ObjectiveSense",
    "SolveStatus",
    "Variable",
    "VariableKind",
    "infer_step",
]
