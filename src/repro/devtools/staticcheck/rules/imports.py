"""IMP001 — heavy third-party packages load where they are used.

Every ``atcd`` process imports the package: the broker, the API, each
fleet worker and each CLI call.  numpy, SciPy and networkx together take
about a second and 70 MB to import, yet only the BILP solve (SciPy's
HiGHS, numpy arrays) and the networkx interop use them.  A module-level
import of one of them puts that cost back into every process's start.

This rule allows them under ``repro/`` only inside a function body or in
the body of an ``if TYPE_CHECKING:`` block (annotations only).
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Sequence

from ..engine import Finding, Project, Rule, SourceModule

__all__ = ["DeferredImportRule", "DEFERRED_PACKAGES"]

#: Top-level packages that must be imported where they are used.
DEFERRED_PACKAGES = ("numpy", "scipy", "networkx")

_TYPE_CHECKING = {"TYPE_CHECKING", "typing.TYPE_CHECKING"}


def _imported_modules(node: ast.AST) -> List[str]:
    """The absolute module names an import statement loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        return [node.module]
    return []


def _is_deferred(module: SourceModule, node: ast.AST) -> bool:
    """True when ``node`` runs only inside a function or only for a type
    checker, not when its module is imported."""
    child = node
    for ancestor in module.ancestors(node):
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return True
        if (
            isinstance(ancestor, ast.If)
            and child in ancestor.body
            and module.resolve_name(ancestor.test) in _TYPE_CHECKING
        ):
            return True
        child = ancestor
    return False


class DeferredImportRule(Rule):
    rule_id = "IMP001"
    title = "numpy, scipy and networkx are imported where they are used"
    rationale = (
        "every atcd process imports the package, and these three cost "
        "about a second and 70 MB at start-up that only the ILP solve and "
        "the networkx interop need"
    )

    def __init__(
        self,
        packages: Sequence[str] = DEFERRED_PACKAGES,
        paths: Sequence[str] = ("repro/",),
    ) -> None:
        self.packages = frozenset(packages)
        self.paths = tuple(paths)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_matching(*self.paths):
            for node in ast.walk(module.tree):
                heavy = sorted({
                    name for name in _imported_modules(node)
                    if name.split(".")[0] in self.packages
                })
                if not heavy or _is_deferred(module, node):
                    continue
                yield module.finding(
                    node,
                    self.rule_id,
                    f"module-level import of {', '.join(heavy)} in "
                    f"{module.package_path}: import it inside the function "
                    "that uses it (or under `if TYPE_CHECKING:` for "
                    "annotations)",
                )
