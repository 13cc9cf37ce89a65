"""numpy, SciPy and networkx load where they are used, not with the package.

Every check runs in a fresh interpreter: the test process itself has long
imported all three.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

HEAVY = ("numpy", "scipy", "networkx")


def run_fresh(code):
    """Run ``code`` in a new interpreter; return its stdout."""
    completed = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


@pytest.mark.parametrize("module", [
    "repro",
    "repro.cli",
    "repro.engine.session",
    "repro.net.server",
    "repro.service.api",
    "repro.distributed.worker",
    "repro.bench.harness",
])
def test_entry_points_load_no_heavy_package(module):
    out = run_fresh(f"""
        import sys
        import {module}
        print(sorted(name for name in {HEAVY!r} if name in sys.modules))
    """)
    assert out.strip() == "[]"


def test_resolving_to_bilp_loads_the_solver_before_the_timed_solve():
    out = run_fresh("""
        import sys
        from repro.attacktree.catalog import data_server
        from repro.core.problems import Problem
        from repro.engine import AnalysisRequest, run_request, shared_registry

        registry = shared_registry()
        backend = registry.get("bilp")
        solve = backend.solve
        seen = []
        backend.solve = lambda *args: seen.append("scipy.optimize" in sys.modules) or solve(*args)
        assert "scipy.optimize" not in sys.modules
        assert registry.resolve(Problem.CDPF, data_server(), backend="bilp") is backend
        print("scipy.optimize" in sys.modules)
        run_request(data_server(), AnalysisRequest(Problem.CDPF, backend="bilp"))
        print(seen)
    """)
    assert out.split("\n")[:2] == ["True", "[True]"]


def test_bilp_front_on_a_dag_equals_enumerative_and_prints_nothing():
    out = run_fresh("""
        import sys
        from repro.attacktree.catalog import data_server
        from repro.core.problems import Problem
        from repro.engine import AnalysisRequest, run_request

        model = data_server()
        bilp = run_request(model, AnalysisRequest(Problem.CDPF, backend="bilp"))
        oracle = run_request(model, AnalysisRequest(Problem.CDPF, backend="enumerative"))
        assert bilp.backend == "bilp"
        assert bilp.front.values() == oracle.front.values(), bilp.front.values()
    """)
    assert out == ""


def test_networkx_round_trip_loads_networkx_on_first_use():
    out = run_fresh("""
        import sys
        from repro.attacktree import serialization
        from repro.attacktree.catalog import factory_probabilistic
        from repro.attacktree.interop import from_networkx, to_networkx

        assert "networkx" not in sys.modules
        model = factory_probabilistic()
        back = from_networkx(to_networkx(model))
        assert serialization.to_dict(back) == serialization.to_dict(model)
        print("networkx" in sys.modules)
    """)
    assert out.strip() == "True"
