"""The public surface: one way to ask the six problems
(``AnalysisSession`` / ``run_request``), one way to name a solver (the
backend name) and one result type (``AnalysisResult``)."""

import importlib
import re
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]

#: Names of the pre-engine entry points the packages no longer export.
REMOVED = ("solve", "Method", "SolveResult", "CostDamageAnalyzer")


@pytest.mark.parametrize("name", ["repro", "repro.core", "repro.engine"])
def test_packages_export_only_the_engine_entry_points(name):
    package = importlib.import_module(name)
    assert not set(REMOVED) & set(package.__all__)
    for removed in REMOVED:
        assert not hasattr(package, removed), f"{name}.{removed}"
    for exported in package.__all__:
        assert hasattr(package, exported), f"{name}.{exported}"


def test_version_matches_pyproject():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    declared = re.search(r'^version = "([^"]+)"', text, re.MULTILINE).group(1)
    assert repro.__version__ == declared
