"""IMP002 — package ``__init__`` modules load nothing eagerly.

Importing one module of a package runs the package's ``__init__`` first:
``import repro.net.server`` runs ``repro/__init__.py`` and
``repro/net/__init__.py``.  An ``__init__`` that imports its submodules
therefore makes every process that touches the package load all of them —
the broker would load the solver kernels, a fleet worker the HTTP
service.  Each package instead declares ``{public name: submodule}`` and
hands it to :func:`repro._lazy.lazy_exports`, which imports a submodule on
the first access of one of its names.

This rule lets a package ``__init__.py`` under ``repro/`` import at module
level only that helper and sibling modules that import nothing from
``repro`` themselves (as ``bench/measure.py``), besides ``from __future__``
imports.  An import inside a function body runs only when it is called.
"""

from __future__ import annotations

import ast
import os
from typing import Iterator, List, Optional, Sequence

from ..engine import Finding, Project, Rule, SourceModule

__all__ = ["LazyPackageRule", "LAZY_HELPER"]

#: The module every package ``__init__`` may import.
LAZY_HELPER = "repro._lazy"

_INIT = "/__init__.py"


def _loaded_modules(node: ast.AST, package: str) -> List[str]:
    """The absolute module names an import statement in ``package``'s
    ``__init__`` loads."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if not isinstance(node, ast.ImportFrom) or node.module == "__future__":
        return []
    if node.level:
        parts = package.split(".")
        base = ".".join(parts[: len(parts) - node.level + 1])
    else:
        base = ""
    if node.module:
        return [f"{base}.{node.module}" if base else node.module]
    # ``from . import name`` loads the submodule ``name``.
    return [f"{base}.{alias.name}" for alias in node.names]


def _imports_repro(tree: ast.Module) -> bool:
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) and any(
            alias.name.split(".")[0] == "repro" for alias in node.names
        ):
            return True
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").split(".")[0] == "repro"
        ):
            return True
    return False


def _sibling_tree(
    project: Project, module: SourceModule, name: str
) -> Optional[ast.Module]:
    """The parsed sibling module ``name`` of ``module``'s package, from the
    checked file set or else from disk; ``None`` when it is no plain
    module."""
    package_dir = module.package_path[: -len(_INIT)]
    found = project.modules_matching(f"{package_dir}/{name}.py")
    if found:
        return found[0].tree
    path = os.path.join(os.path.dirname(module.display_path), f"{name}.py")
    if not os.path.isfile(path):
        return None
    with open(path, "r", encoding="utf-8") as handle:
        return SourceModule(path, handle.read()).tree


class LazyPackageRule(Rule):
    rule_id = "IMP002"
    title = "package __init__ modules export lazily"
    rationale = (
        "a package __init__ runs whenever any of its modules is imported, "
        "so what it imports every process touching the package loads"
    )

    def __init__(self, paths: Sequence[str] = ("repro/",)) -> None:
        self.paths = tuple(paths)

    def check(self, project: Project) -> Iterator[Finding]:
        for module in project.modules_matching(*self.paths):
            if not module.package_path.endswith(_INIT):
                continue
            package = module.package_path[: -len(_INIT)].replace("/", ".")
            for node in ast.walk(module.tree):
                loaded = _loaded_modules(node, package)
                if not loaded or module.enclosing_function(node) is not None:
                    continue
                eager = [
                    name for name in loaded
                    if not self._allowed(project, module, package, name)
                ]
                if eager:
                    yield module.finding(
                        node,
                        self.rule_id,
                        f"module-level import of {', '.join(eager)} in "
                        f"{module.package_path}: declare its names in the "
                        "package's lazy_exports table instead",
                    )

    @staticmethod
    def _allowed(
        project: Project, module: SourceModule, package: str, name: str
    ) -> bool:
        if name == LAZY_HELPER:
            return True
        parent, _, leaf = name.rpartition(".")
        if parent != package:
            return False
        tree = _sibling_tree(project, module, leaf)
        return tree is not None and not _imports_repro(tree)
