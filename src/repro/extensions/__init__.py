"""Extensions beyond the paper's claims.

These modules implement directions the paper explicitly lists as future
work: defence hardening and robust analysis under interval-valued costs
and damages.
They are clearly separated from :mod:`repro.core`, which only contains the
algorithms the paper proves correct.
"""

from .hardening import (
    Countermeasure,
    HardeningResult,
    apply_countermeasures,
    optimal_hardening,
)
from .robust import Interval, IntervalCostDamageAT, RobustFront, robust_pareto_front

__all__ = [
    "Countermeasure",
    "HardeningResult",
    "Interval",
    "apply_countermeasures",
    "optimal_hardening",
    "IntervalCostDamageAT",
    "RobustFront",
    "robust_pareto_front",
]
