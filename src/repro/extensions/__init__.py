"""Extensions beyond the paper's claims.

These modules implement directions the paper explicitly lists as future
work: defence hardening and robust analysis under interval-valued costs
and damages.
They are clearly separated from :mod:`repro.core`, which only contains the
algorithms the paper proves correct.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "Countermeasure": "hardening",
    "HardeningResult": "hardening",
    "Interval": "robust",
    "apply_countermeasures": "hardening",
    "optimal_hardening": "hardening",
    "IntervalCostDamageAT": "robust",
    "RobustFront": "robust",
    "robust_pareto_front": "robust",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
