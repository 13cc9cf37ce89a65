"""Generic Pareto machinery: partial orders, minimisation, fronts, plotting."""

from .._lazy import lazy_exports

_EXPORTS = {
    "EPSILON": "poset",
    "ParetoFront": "front",
    "ParetoPoint": "front",
    "ascii_front": "plot",
    "dominates_pair": "poset",
    "dominates_triple": "poset",
    "is_antichain_pairs": "poset",
    "merge_pair_sets": "poset",
    "pareto_minimal_pairs": "poset",
    "pareto_minimal_triples": "poset",
    "strictly_dominates_pair": "poset",
    "strictly_dominates_triple": "poset",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
