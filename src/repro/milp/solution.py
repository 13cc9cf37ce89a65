"""Solver result types of the MILP substrate."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

__all__ = ["SolveStatus", "MilpSolution"]


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"

    @property
    def is_optimal(self) -> bool:
        """``True`` when an optimal solution was found."""
        return self is SolveStatus.OPTIMAL


@dataclass(frozen=True)
class MilpSolution:
    """The result of solving a single-objective (I)LP.

    Attributes
    ----------
    status:
        Solve outcome.
    objective_value:
        Value of the objective *in the sense it was declared* (so a
        maximisation objective reports the maximum, not its negation);
        ``None`` unless the status is optimal.
    assignment:
        Variable values; empty unless the status is optimal.
    backend:
        Name of the solving backend (``"highs"``).
    """

    status: SolveStatus
    objective_value: Optional[float] = None
    assignment: Mapping[str, float] = field(default_factory=dict)
    backend: str = ""

    def value(self, variable: str) -> float:
        """Return the value of a variable (0.0 if absent from the assignment)."""
        return float(self.assignment.get(variable, 0.0))

    def rounded_assignment(self, tolerance: float = 1e-6) -> Dict[str, int]:
        """Return the assignment with integral values rounded to ints.

        Intended for binary programs; raises ``ValueError`` when a value is
        further than ``tolerance`` from an integer.
        """
        result: Dict[str, int] = {}
        for name, value in self.assignment.items():
            nearest = round(value)
            if abs(value - nearest) > tolerance:
                raise ValueError(
                    f"variable {name!r} has non-integral value {value!r} in a "
                    "solution expected to be integral"
                )
            result[name] = int(nearest)
        return result
