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

from ._lazy import lazy_exports

__version__ = "6.0.0"

#: Public name -> defining module; each loads on first access, so
#: ``import repro`` loads no subpackage.
_EXPORTS = {
    "AnalysisRequest": "engine.requests",
    "AnalysisResult": "engine.requests",
    "AnalysisSession": "engine.session",
    "AttackTree": "attacktree.tree",
    "AttackTreeBuilder": "attacktree.builder",
    "AttackTreeError": "attacktree.tree",
    "BackendRegistry": "engine.registry",
    "BudgetDamagePoint": "core.analysis",
    "Capability": "engine.backend",
    "CostDamageAT": "attacktree.attributes",
    "CostDamageProbAT": "attacktree.attributes",
    "Node": "attacktree.node",
    "NodeType": "attacktree.node",
    "ParetoFront": "pareto.front",
    "ParetoPoint": "pareto.front",
    "Problem": "core.problems",
    "Setting": "engine.backend",
    "Shape": "engine.backend",
    "SolverBackend": "engine.backend",
    "attack_cost": "core.semantics",
    "attack_damage": "core.semantics",
    "capability_matrix": "core.problems",
    "catalog": "attacktree.catalog",
    "default_registry": "engine.registry",
    "model_fingerprint": "engine.session",
    "shared_registry": "engine.registry",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [*_EXPORTS, "__version__"]
