"""Cost-damage analysis of attack trees.

A Python reproduction of *"Cost-damage analysis of attack trees"*
(Lopuhaä-Zwakenberg & Stoelinga, DSN 2023): exact algorithms for the
cost-damage Pareto front and the derived single-objective problems on
attack trees, in both deterministic and probabilistic settings, together
with the substrates the paper depends on (attack-tree data structures, an
ILP stack, case-study models, random workload generation) and the full
experiment harness of the paper's evaluation.

Analyses run on a pluggable engine (:mod:`repro.engine`): solver
implementations are *backends* in a capability-aware registry that encodes
Table I of the paper as data, and an :class:`AnalysisSession` provides
cached, batchable, JSON-round-trippable queries against one model.

Quickstart
----------
>>> from repro import AnalysisRequest, AnalysisSession, AttackTreeBuilder, Problem
>>> builder = AttackTreeBuilder()
>>> _ = builder.bas("ca", cost=1, label="cyberattack")
>>> _ = builder.bas("pb", cost=3, label="place bomb")
>>> _ = builder.bas("fd", cost=2, damage=10, label="force door")
>>> _ = builder.and_gate("dr", ["pb", "fd"], damage=100)
>>> _ = builder.or_gate("ps", ["ca", "dr"], damage=200)
>>> session = AnalysisSession(builder.build_cd(root="ps"))
>>> result = session.run(AnalysisRequest(Problem.CDPF))
>>> result.front.values()
[(0.0, 0.0), (1.0, 200.0), (3.0, 210.0), (5.0, 310.0)]
>>> result.backend
'bottom-up'
>>> [r.value for r in session.run_batch(
...     [AnalysisRequest(Problem.DGC, budget=2),
...      AnalysisRequest(Problem.CGD, threshold=300)])]
[200.0, 5.0]

Sessions cache by (model fingerprint, request) and report wall time and the
resolved backend on every result.  A request names a solver only by its
backend name (``AnalysisRequest(..., backend="bilp")``); without one the
registry follows Table I.  :mod:`repro.core.analysis` reads critical BASs,
the damage/budget curve and a plain-text report off a session's fronts.
"""

from .attacktree import (
    AttackTree,
    AttackTreeBuilder,
    AttackTreeError,
    CostDamageAT,
    CostDamageProbAT,
    Node,
    NodeType,
)
from .attacktree import catalog
from .core import (
    BudgetDamagePoint,
    Problem,
    attack_cost,
    attack_damage,
    capability_matrix,
)
from .engine import (
    AnalysisRequest,
    AnalysisResult,
    AnalysisSession,
    BackendRegistry,
    Capability,
    Setting,
    Shape,
    SolverBackend,
    default_registry,
    model_fingerprint,
    shared_registry,
)
from .pareto import ParetoFront, ParetoPoint

__version__ = "4.0.0"

__all__ = [
    "AnalysisRequest",
    "AnalysisResult",
    "AnalysisSession",
    "AttackTree",
    "AttackTreeBuilder",
    "AttackTreeError",
    "BackendRegistry",
    "BudgetDamagePoint",
    "Capability",
    "CostDamageAT",
    "CostDamageProbAT",
    "Node",
    "NodeType",
    "ParetoFront",
    "ParetoPoint",
    "Problem",
    "Setting",
    "Shape",
    "SolverBackend",
    "attack_cost",
    "attack_damage",
    "capability_matrix",
    "catalog",
    "default_registry",
    "model_fingerprint",
    "shared_registry",
    "__version__",
]
