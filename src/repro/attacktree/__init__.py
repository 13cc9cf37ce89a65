"""Attack-tree substrate: data structures, decorations, catalogues, generators.

This subpackage implements everything the cost-damage algorithms need from
the attack-tree formalism itself (Definitions 1–5 of the paper): the rooted
DAG of OR/AND gates over basic attack steps, the cost/damage/probability
decorations, binarisation and other rewrites, serialization, the case-study
trees from the literature, and the random-AT generator used in the
evaluation.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "AttackTree": "tree",
    "AttackTreeError": "tree",
    "AttackTreeBuilder": "builder",
    "AttributeError_": "attributes",
    "CostDamageAT": "attributes",
    "CostDamageProbAT": "attributes",
    "Node": "node",
    "NodeType": "node",
    "binarize_cd": "binarize",
    "binarize_cdp": "binarize",
    "binarize_tree": "binarize",
    "is_binary": "binarize",
    "catalog": "catalog",
    "interop": "interop",
    "metrics": "metrics",
    "random_gen": "random_gen",
    "serialization": "serialization",
    "transform": "transform",
    "validate_cost_map": "attributes",
    "validate_damage_map": "attributes",
    "validate_probability_map": "attributes",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
