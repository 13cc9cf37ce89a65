"""Probabilistic attack semantics: actualizations and expected damage."""

from .._lazy import lazy_exports

_EXPORTS = {
    "actualization_distribution": "actualization",
    "expected_damage": "actualization",
    "expected_damage_via_enumeration": "actualization",
    "reach_probabilities": "actualization",
    "reach_probabilities_exact": "actualization",
    "reach_probabilities_treelike": "actualization",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
