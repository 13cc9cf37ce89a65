"""Generic Pareto machinery: partial orders, minimisation, fronts, plotting."""

from .front import ParetoFront, ParetoPoint
from .plot import ascii_front
from .poset import (
    EPSILON,
    dominates_pair,
    dominates_triple,
    is_antichain_pairs,
    merge_pair_sets,
    pareto_minimal_pairs,
    pareto_minimal_triples,
    strictly_dominates_pair,
    strictly_dominates_triple,
)

__all__ = [
    "EPSILON",
    "ParetoFront",
    "ParetoPoint",
    "ascii_front",
    "dominates_pair",
    "dominates_triple",
    "is_antichain_pairs",
    "merge_pair_sets",
    "pareto_minimal_pairs",
    "pareto_minimal_triples",
    "strictly_dominates_pair",
    "strictly_dominates_triple",
]
