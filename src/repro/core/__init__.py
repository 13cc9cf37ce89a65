"""Core cost-damage algorithms: the paper's primary contribution.

Submodules
----------
``semantics``
    Attacks, structure function, cost and damage evaluation (Definitions 2–4).
``enumerative``
    The naive exhaustive baseline used for comparison and as a test oracle.
``bottom_up`` / ``bottom_up_prob``
    Bottom-up Pareto propagation for treelike ATs — deterministic
    (Theorems 3–4) and probabilistic (Theorems 8–9); the deterministic
    kernel also folds DAG-like ATs, carrying each shared node as a label
    up to its immediate dominator.
``bilp``
    The integer-linear-programming translation for DAG-like ATs
    (Theorems 6–7); the fallback when too many labels are open at once.
``knapsack``
    The NP-completeness and expressivity constructions of Section V.
``problems``
    The six problems of the paper and Table I as resolved by the engine.
``analysis``
    Insights read off a session's fronts: critical BASs, the damage/budget
    curve and a plain-text report.

The problems are asked through :class:`repro.engine.AnalysisSession` (or
:func:`repro.engine.run_request`), which picks the kernel per Table I.
"""

from .analysis import BudgetDamagePoint, CriticalBasReport
from .problems import Problem, capability_matrix
from .semantics import (
    Attack,
    all_attacks,
    attack_cost,
    attack_damage,
    evaluate_attack,
    normalize_attack,
)

__all__ = [
    "Attack",
    "BudgetDamagePoint",
    "CriticalBasReport",
    "Problem",
    "all_attacks",
    "attack_cost",
    "attack_damage",
    "capability_matrix",
    "evaluate_attack",
    "normalize_attack",
]
