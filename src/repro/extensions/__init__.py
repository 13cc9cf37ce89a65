"""Extensions beyond the paper's claims.

These modules implement directions the paper explicitly lists as future
work: probabilistic analysis of DAG-like ATs (via reach polynomials),
defence hardening, and robust analysis under interval-valued costs and
damages.
They are clearly separated from :mod:`repro.core`, which only contains the
algorithms the paper proves correct.
"""

from .hardening import (
    Countermeasure,
    HardeningResult,
    apply_countermeasures,
    optimal_hardening,
)
from .polynomial import (
    MultilinearPolynomial,
    expected_damage_polynomial,
    pareto_front_probabilistic_polynomial,
    reach_polynomials,
)
from .robust import Interval, IntervalCostDamageAT, RobustFront, robust_pareto_front

__all__ = [
    "Countermeasure",
    "HardeningResult",
    "Interval",
    "MultilinearPolynomial",
    "apply_countermeasures",
    "expected_damage_polynomial",
    "optimal_hardening",
    "pareto_front_probabilistic_polynomial",
    "reach_polynomials",
    "IntervalCostDamageAT",
    "RobustFront",
    "robust_pareto_front",
]
