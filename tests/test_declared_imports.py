"""Every third-party package the library imports is a declared dependency.

A clean interpreter only has what ``pyproject.toml`` lists, so an
undeclared import breaks ``import repro`` on every fresh install and CI
runner while passing on any machine that happens to have the package.
"""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

pytestmark = pytest.mark.skipif(
    sys.version_info < (3, 10), reason="sys.stdlib_module_names needs 3.10+"
)


def imported_roots():
    """Top-level names of every absolute import under ``src/repro``."""
    roots = {}
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                roots.setdefault(name.split(".")[0], path.relative_to(ROOT))
    return roots


def declared_dependencies():
    """Distribution names in ``[project].dependencies`` (lower-cased)."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r"^dependencies\s*=\s*\[(.*?)\]", text, re.M | re.S)
    assert match, "pyproject.toml has no [project].dependencies list"
    requirements = re.findall(r"\"([^\"]+)\"", match.group(1))
    return {
        re.split(r"[<>=!~;\[ ]", requirement, maxsplit=1)[0].lower().replace("-", "_")
        for requirement in requirements
    }


def test_every_third_party_import_is_declared():
    third_party = {
        root: path
        for root, path in imported_roots().items()
        if root not in sys.stdlib_module_names and root != "repro"
    }
    undeclared = {
        root: str(path)
        for root, path in third_party.items()
        if root.lower() not in declared_dependencies()
    }
    assert not undeclared, (
        f"imported but not in [project].dependencies: {undeclared}"
    )


def test_the_scan_sees_the_ilp_stack():
    # Guards the scan itself: a walker that found nothing would pass above.
    assert {"numpy", "scipy"} <= set(imported_roots())
