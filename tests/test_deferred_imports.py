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


# --------------------------------------------------------------------- #
# The package's own import graph: each process loads what its role runs.
# --------------------------------------------------------------------- #
PACKAGES = sorted(
    ".".join(path.parent.relative_to(SRC).parts)
    for path in (SRC / "repro").rglob("__init__.py")
)

KERNELS = ("repro.core.bottom_up", "repro.core.bilp", "repro.core.enumerative",
           "repro.milp", "repro.engine.backends")


def loaded_under(code, prefixes):
    """The modules under ``prefixes`` a fresh interpreter has after ``code``."""
    out = run_fresh(f"""
        import sys
        {code}
        print(sorted(name for name in sys.modules
                     if name.startswith({tuple(prefixes)!r})))
    """)
    return out.strip()


def test_broker_loads_no_analysis_module():
    assert loaded_under("import repro.cli, repro.net.server", (
        "repro.attacktree", "repro.core.bottom_up", "repro.core.bilp",
        "repro.bench", "repro.workloads", "repro.experiments", "repro.devtools",
    )) == "[]"


def test_api_loads_no_solver_kernel():
    assert loaded_under("import repro.cli, repro.service.api", KERNELS + (
        "repro.bench", "repro.workloads", "repro.experiments", "repro.devtools",
    )) == "[]"


def test_worker_loads_no_bench_harness_or_server():
    assert loaded_under("import repro.distributed.worker", (
        "repro.bench.harness", "repro.workloads", "repro.service",
        "repro.net.server",
    )) == "[]"


def test_session_loads_no_process_pool():
    assert loaded_under(
        "import repro.engine.session", ("concurrent.futures.process",)
    ) == "[]"


def test_import_repro_loads_no_subpackage():
    assert loaded_under("import repro", ("repro",)) == "['repro', 'repro._lazy']"


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_resolves_to_its_defining_object(package):
    out = run_fresh(f"""
        import importlib, sys, types
        package = importlib.import_module({package!r})
        table = getattr(package, "_EXPORTS", {{}})
        for name in package.__all__:
            assert name in dir(package), name
            value = getattr(package, name)
            assert vars(package)[name] is value, name
            if name in table:
                module_name, _, attribute = table[name].partition(":")
                module = importlib.import_module(f"{package}.{{module_name}}")
                expected = (module if module_name.split(".")[-1] == name
                            and not attribute else getattr(module, attribute or name))
                assert value is expected, name
            defining = getattr(value, "__module__", None)
            if isinstance(value, types.ModuleType):
                assert sys.modules[value.__name__] is value, name
            elif defining and defining.startswith("repro"):
                assert getattr(sys.modules[defining], value.__name__) is value, name
        print(len(package.__all__))
    """)
    assert int(out) > 0


def test_bench_measure_stays_the_timing_function():
    out = run_fresh("""
        import repro.bench.measure
        import repro.bench
        print(callable(repro.bench.measure), type(repro.bench.measure).__name__)
    """)
    assert out.strip() == "True function"
