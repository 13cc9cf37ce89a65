"""``atcd check`` — the project-invariant static analyzer.

The correctness story of this repo leans on invariants that unit tests
only probe anecdotally: byte-identical solver results (so kernels must
not read wall clocks or unseeded RNGs), bounded ``/metrics`` cardinality
(so every metric name and label key must come from the closed catalog in
:mod:`repro.obs.families`), atomic queue state transitions (so mutating
SQL must run inside the ``BEGIN IMMEDIATE`` transaction helpers), lock
hygiene (module state mutated under its lock, no lock-order cycles) and
the CLI's exit-code contract (user errors exit 2).  This package turns
each of those into an AST rule that CI runs on every push.

Layout
------
``engine``
    The visitor framework: :class:`SourceModule` (parse + comment map +
    parent links + import resolution), :class:`Project` (the file set one
    check run sees), :class:`Rule` (base class), :func:`run_check`.
``baseline``
    The committed-baseline workflow: grandfathered findings live in a
    JSON file keyed by ``(rule, path, message)`` — line numbers drift,
    messages don't — and ``atcd check --baseline`` subtracts them.
``rules``
    One module per invariant; see :data:`rules.ALL_RULES`.

Suppression
-----------
A finding on a line carrying ``# staticcheck: disable=RULEID(reason)``
is suppressed by the engine.  EXC001 additionally honours its dedicated
``# staticcheck: allow-broad-except(reason)`` marker — the reason is
mandatory, so every surviving broad handler documents why it is broad.
"""

from ..._lazy import lazy_exports

_EXPORTS = {
    "ALL_RULES": "rules.registry",
    "CheckReport": "engine",
    "DEFAULT_BASELINE_NAME": "baseline",
    "Finding": "engine",
    "Project": "engine",
    "Rule": "engine",
    "SourceModule": "engine",
    "StaticCheckError": "engine",
    "apply_baseline": "baseline",
    "default_rules": "rules.registry",
    "load_baseline": "baseline",
    "rule_ids": "rules.registry",
    "run_check": "engine",
    "select_rules": "rules.registry",
    "write_baseline": "baseline",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
