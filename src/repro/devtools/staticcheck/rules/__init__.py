"""The rule registry: one module per machine-checked invariant.

Adding a rule is: write a :class:`~repro.devtools.staticcheck.engine.Rule`
subclass in a new module here, append it to :data:`registry.ALL_RULES`,
export it below, give it a fixture pair in ``tests/devtools/``, and
document the invariant it mechanizes in ``benchmarks/DESIGN.md``.  The
CLI and CI pick it up from the registry automatically.
"""

from ...._lazy import lazy_exports

_EXPORTS = {
    "ALL_RULES": "registry",
    "default_rules": "registry",
    "rule_ids": "registry",
    "select_rules": "registry",
    "BroadExceptRule": "broad_except",
    "CliExitRule": "cli_exits",
    "DeferredImportRule": "imports",
    "DeterminismRule": "determinism",
    "LazyPackageRule": "package_inits",
    "LockRule": "locks",
    "MetricsCatalogRule": "metrics_catalog",
    "TransactionRule": "transactions",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
