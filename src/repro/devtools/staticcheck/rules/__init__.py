"""The rule registry: one module per machine-checked invariant.

Adding a rule is: write a :class:`~repro.devtools.staticcheck.engine.Rule`
subclass in a new module here, append it to :data:`ALL_RULES`, give it a
fixture pair in ``tests/devtools/``, and document the invariant it
mechanizes in ``benchmarks/DESIGN.md``.  The CLI and CI pick it up from
the registry automatically.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Type

from ..engine import Rule, StaticCheckError
from .broad_except import BroadExceptRule
from .cli_exits import CliExitRule
from .determinism import DeterminismRule
from .imports import DeferredImportRule
from .locks import LockRule
from .metrics_catalog import MetricsCatalogRule
from .transactions import TransactionRule

__all__ = [
    "ALL_RULES",
    "default_rules",
    "rule_ids",
    "select_rules",
    "BroadExceptRule",
    "CliExitRule",
    "DeferredImportRule",
    "DeterminismRule",
    "LockRule",
    "MetricsCatalogRule",
    "TransactionRule",
]

ALL_RULES: Sequence[Type[Rule]] = (
    DeterminismRule,
    MetricsCatalogRule,
    TransactionRule,
    LockRule,
    CliExitRule,
    BroadExceptRule,
    DeferredImportRule,
)


def default_rules() -> List[Rule]:
    """Fresh instances of every registered rule, in registry order."""
    return [rule_class() for rule_class in ALL_RULES]


def rule_ids() -> Dict[str, Type[Rule]]:
    return {rule_class.rule_id: rule_class for rule_class in ALL_RULES}


def select_rules(ids: Optional[Sequence[str]]) -> List[Rule]:
    """Instantiate the rules named by ``ids`` (all of them when empty).

    Unknown ids raise :class:`StaticCheckError`, which the CLI reports as
    a one-line exit-2 user error.
    """
    if not ids:
        return default_rules()
    registry = rule_ids()
    selected: List[Rule] = []
    for rule_id in ids:
        normalized = rule_id.strip().upper()
        if normalized not in registry:
            raise StaticCheckError(
                f"unknown rule {rule_id!r}; known rules: "
                + ", ".join(sorted(registry))
            )
        selected.append(registry[normalized]())
    return selected
