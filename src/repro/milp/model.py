"""A small modelling layer for (integer) linear programs.

The paper solves its DAG-like cost-damage problems by translating them into
(bi-objective) integer linear programs and handing them to Gurobi through
YALMIP (Section VII / X).  Neither tool is open source, so this package
builds the substrate around SciPy's HiGHS:

* this module — the **model layer**: variables, linear expressions,
  constraints, objectives, and conversion to the dense arrays the
  solver consumes;
* :mod:`repro.milp.highs` — the solver, which delegates to
  ``scipy.optimize.milp`` (the HiGHS solver shipped with SciPy);
* :mod:`repro.milp.biobjective` — an ε-constraint driver that enumerates the
  exact non-dominated set of a bi-objective ILP.

The model layer is deliberately tiny — just enough expressive power for the
formulations of Theorems 6 and 7 (binary variables, ``≤`` constraints, one
or two linear objectives) while staying readable.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "VariableKind",
    "Variable",
    "LinearExpression",
    "Constraint",
    "ConstraintSense",
    "ObjectiveSense",
    "Objective",
    "IntegerProgram",
    "ModelError",
]


class ModelError(ValueError):
    """Raised when a model is malformed (unknown variables, empty objective…)."""


class VariableKind(enum.Enum):
    """The domain of a decision variable."""

    BINARY = "binary"
    INTEGER = "integer"
    CONTINUOUS = "continuous"


@dataclass(frozen=True)
class Variable:
    """A decision variable.

    Attributes
    ----------
    name:
        Unique identifier within the program.
    kind:
        Binary, general integer, or continuous.
    lower, upper:
        Bounds; binaries are implicitly clamped to ``[0, 1]``.
    """

    name: str
    kind: VariableKind = VariableKind.BINARY
    lower: float = 0.0
    upper: float = 1.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ModelError("variable name must be non-empty")
        if self.lower > self.upper:
            raise ModelError(
                f"variable {self.name!r} has empty domain [{self.lower}, {self.upper}]"
            )

    @property
    def bounds(self) -> Tuple[float, float]:
        """Effective (lower, upper) bounds."""
        if self.kind is VariableKind.BINARY:
            return (max(0.0, self.lower), min(1.0, self.upper))
        return (self.lower, self.upper)

    @property
    def is_integral(self) -> bool:
        """``True`` for binary and integer variables."""
        return self.kind is not VariableKind.CONTINUOUS


class LinearExpression:
    """A linear expression ``Σ coeff_i · x_i + constant``."""

    __slots__ = ("coefficients", "constant")

    def __init__(
        self,
        coefficients: Optional[Mapping[str, float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.coefficients: Dict[str, float] = {
            name: float(value)
            for name, value in (coefficients or {}).items()
            if value != 0.0
        }
        self.constant = float(constant)

    # -- construction -------------------------------------------------- #
    @classmethod
    def term(cls, variable: str, coefficient: float = 1.0) -> "LinearExpression":
        """A single-term expression ``coefficient · variable``."""
        return cls({variable: coefficient})

    @classmethod
    def sum_of(cls, terms: Mapping[str, float]) -> "LinearExpression":
        """An expression from a {variable: coefficient} mapping."""
        return cls(dict(terms))

    # -- arithmetic ------------------------------------------------------ #
    def __add__(self, other: "LinearExpression | float") -> "LinearExpression":
        if isinstance(other, (int, float)):
            return LinearExpression(self.coefficients, self.constant + other)
        merged = dict(self.coefficients)
        for name, value in other.coefficients.items():
            merged[name] = merged.get(name, 0.0) + value
        return LinearExpression(merged, self.constant + other.constant)

    __radd__ = __add__

    def __sub__(self, other: "LinearExpression | float") -> "LinearExpression":
        return self + (other * -1 if isinstance(other, LinearExpression) else -other)

    def __mul__(self, scalar: float) -> "LinearExpression":
        return LinearExpression(
            {name: value * scalar for name, value in self.coefficients.items()},
            self.constant * scalar,
        )

    __rmul__ = __mul__

    def evaluate(self, assignment: Mapping[str, float]) -> float:
        """Evaluate the expression at a (possibly partial) assignment.

        Missing variables count as zero, which matches the convention of the
        solvers (all variables have zero as a feasible anchor in our models).
        """
        return self.constant + sum(
            value * assignment.get(name, 0.0)
            for name, value in self.coefficients.items()
        )

    def variables(self) -> List[str]:
        """The variables appearing with nonzero coefficient."""
        return list(self.coefficients)

    def __repr__(self) -> str:
        terms = " + ".join(
            f"{value:g}·{name}" for name, value in sorted(self.coefficients.items())
        )
        if self.constant:
            terms = f"{terms} + {self.constant:g}" if terms else f"{self.constant:g}"
        return f"LinearExpression({terms or '0'})"


class ConstraintSense(enum.Enum):
    """Direction of a linear constraint."""

    LESS_EQUAL = "<="
    GREATER_EQUAL = ">="
    EQUAL = "=="


@dataclass(frozen=True)
class Constraint:
    """A linear constraint ``expression (≤ | ≥ | =) rhs``."""

    expression: LinearExpression
    sense: ConstraintSense
    rhs: float
    name: str = ""

    def as_less_equal(self) -> List[Tuple[LinearExpression, float]]:
        """Normalise to one or two ``expr ≤ rhs`` rows (used by the solvers)."""
        if self.sense is ConstraintSense.LESS_EQUAL:
            return [(self.expression, self.rhs)]
        if self.sense is ConstraintSense.GREATER_EQUAL:
            return [(self.expression * -1.0, -self.rhs)]
        return [
            (self.expression, self.rhs),
            (self.expression * -1.0, -self.rhs),
        ]

    def is_satisfied(self, assignment: Mapping[str, float], tolerance: float = 1e-7) -> bool:
        """Check the constraint at an assignment."""
        value = self.expression.evaluate(assignment)
        if self.sense is ConstraintSense.LESS_EQUAL:
            return value <= self.rhs + tolerance
        if self.sense is ConstraintSense.GREATER_EQUAL:
            return value + tolerance >= self.rhs
        return abs(value - self.rhs) <= tolerance


class ObjectiveSense(enum.Enum):
    """Whether an objective is minimised or maximised."""

    MINIMIZE = "min"
    MAXIMIZE = "max"


@dataclass(frozen=True)
class Objective:
    """A linear objective with a direction."""

    expression: LinearExpression
    sense: ObjectiveSense = ObjectiveSense.MINIMIZE
    name: str = ""

    def as_minimization(self) -> LinearExpression:
        """Return the expression to *minimise* (negated for MAXIMIZE)."""
        if self.sense is ObjectiveSense.MINIMIZE:
            return self.expression
        return self.expression * -1.0

    def value(self, assignment: Mapping[str, float]) -> float:
        """Evaluate the objective (in its own sense) at an assignment."""
        return self.expression.evaluate(assignment)


class IntegerProgram:
    """A (single- or multi-objective) integer linear program.

    The program owns its variables, constraints and objectives and can
    export itself as the dense arrays consumed by the solvers::

        minimise    c·x
        subject to  A_ub·x ≤ b_ub
                    lower ≤ x ≤ upper
                    x_i integral for integral variables
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._variables: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objectives: List[Objective] = []

    # -- building -------------------------------------------------------- #
    def add_variable(
        self,
        name: str,
        kind: VariableKind = VariableKind.BINARY,
        lower: float = 0.0,
        upper: float = 1.0,
    ) -> Variable:
        """Declare a new variable and return it."""
        if name in self._variables:
            raise ModelError(f"variable {name!r} already declared")
        variable = Variable(name=name, kind=kind, lower=lower, upper=upper)
        self._variables[name] = variable
        return variable

    def add_binary(self, name: str) -> Variable:
        """Declare a binary variable."""
        return self.add_variable(name, kind=VariableKind.BINARY)

    def add_constraint(
        self,
        expression: LinearExpression,
        sense: ConstraintSense,
        rhs: float,
        name: str = "",
    ) -> Constraint:
        """Add a linear constraint; unknown variables are rejected."""
        unknown = set(expression.variables()) - set(self._variables)
        if unknown:
            raise ModelError(f"constraint references unknown variables {sorted(unknown)!r}")
        constraint = Constraint(expression=expression, sense=sense, rhs=float(rhs), name=name)
        self._constraints.append(constraint)
        return constraint

    def add_less_equal(self, expression: LinearExpression, rhs: float, name: str = "") -> Constraint:
        """Convenience wrapper for ``expression ≤ rhs``."""
        return self.add_constraint(expression, ConstraintSense.LESS_EQUAL, rhs, name)

    def add_objective(
        self,
        expression: LinearExpression,
        sense: ObjectiveSense = ObjectiveSense.MINIMIZE,
        name: str = "",
    ) -> Objective:
        """Add an objective (programs may carry one or two)."""
        unknown = set(expression.variables()) - set(self._variables)
        if unknown:
            raise ModelError(f"objective references unknown variables {sorted(unknown)!r}")
        objective = Objective(expression=expression, sense=sense, name=name)
        self._objectives.append(objective)
        return objective

    # -- introspection ----------------------------------------------------- #
    @property
    def variables(self) -> Mapping[str, Variable]:
        """Declared variables by name."""
        return dict(self._variables)

    @property
    def variable_order(self) -> List[str]:
        """Variable names in declaration order (the column order of exports)."""
        return list(self._variables)

    @property
    def constraints(self) -> Sequence[Constraint]:
        """The declared constraints."""
        return tuple(self._constraints)

    @property
    def objectives(self) -> Sequence[Objective]:
        """The declared objectives."""
        return tuple(self._objectives)

    @property
    def objective(self) -> Objective:
        """The unique objective; raises if there are zero or several."""
        if len(self._objectives) != 1:
            raise ModelError(
                f"expected exactly one objective, found {len(self._objectives)}"
            )
        return self._objectives[0]

    def is_feasible(self, assignment: Mapping[str, float], tolerance: float = 1e-7) -> bool:
        """Check bounds, integrality and all constraints at an assignment."""
        for name, variable in self._variables.items():
            value = assignment.get(name, 0.0)
            lower, upper = variable.bounds
            if value < lower - tolerance or value > upper + tolerance:
                return False
            if variable.is_integral and abs(value - round(value)) > tolerance:
                return False
        return all(c.is_satisfied(assignment, tolerance) for c in self._constraints)

    # -- export ------------------------------------------------------------ #
    def dense_arrays(
        self, objective: Optional[Objective] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Export ``(c, A_ub, b_ub, lower, upper, integrality)``.

        ``c`` is the minimisation vector of ``objective`` (defaults to the
        program's unique objective); every constraint is normalised to
        ``≤`` rows.  The constant term of the objective is dropped (callers
        re-add it when reporting objective values).
        """
        if objective is None:
            objective = self.objective
        order = self.variable_order
        index = {name: i for i, name in enumerate(order)}
        n = len(order)

        minimised = objective.as_minimization()
        c = np.zeros(n)
        for name, value in minimised.coefficients.items():
            c[index[name]] = value

        rows: List[np.ndarray] = []
        rhs: List[float] = []
        for constraint in self._constraints:
            for expression, bound in constraint.as_less_equal():
                row = np.zeros(n)
                for name, value in expression.coefficients.items():
                    row[index[name]] = value
                rows.append(row)
                rhs.append(bound - expression.constant)
        a_ub = np.vstack(rows) if rows else np.zeros((0, n))
        b_ub = np.asarray(rhs, dtype=float)

        lower = np.zeros(n)
        upper = np.zeros(n)
        integrality = np.zeros(n)
        for name, variable in self._variables.items():
            i = index[name]
            lower[i], upper[i] = variable.bounds
            integrality[i] = 1.0 if variable.is_integral else 0.0
        return c, a_ub, b_ub, lower, upper, integrality

    def summary(self) -> str:
        """One-line human-readable description of the program size."""
        binaries = sum(1 for v in self._variables.values() if v.kind is VariableKind.BINARY)
        return (
            f"IntegerProgram({self.name or 'unnamed'}: "
            f"{len(self._variables)} variables ({binaries} binary), "
            f"{len(self._constraints)} constraints, "
            f"{len(self._objectives)} objective(s))"
        )
