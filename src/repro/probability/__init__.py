"""Probabilistic attack semantics: actualizations and expected damage."""

from .actualization import (
    actualization_distribution,
    expected_damage,
    expected_damage_via_enumeration,
    reach_probabilities,
    reach_probabilities_exact,
    reach_probabilities_treelike,
)

__all__ = [
    "actualization_distribution",
    "expected_damage",
    "expected_damage_via_enumeration",
    "reach_probabilities",
    "reach_probabilities_exact",
    "reach_probabilities_treelike",
]
