"""The benchmark harness: timed, reproducible workload execution.

This package closes the loop the paper's evaluation opens (Table III
timings, Fig. 7 random suites): :mod:`repro.workloads` describes *what* to
run, the harness (:mod:`repro.bench.harness`) runs it through the analysis
engine — sequentially or on a **process pool** for true CPU parallelism —
and :mod:`repro.bench.artifact` persists the numbers as
versioned ``BENCH_*.json`` documents that
:func:`~repro.bench.artifact.compare_artifacts` can diff for regressions.

Typical use (the CLI's ``atcd bench`` wraps exactly this)::

    from repro.bench import execute_specs, build_artifact, profile, write_artifact

    specs = profile("smoke")
    runs = execute_specs(specs, executor="process")
    write_artifact(build_artifact("smoke", specs, runs), "BENCH_smoke.json")
"""

from .._lazy import lazy_exports

# The timing primitives are stdlib-only and imported eagerly — also
# resolving the name collision between the ``measure`` submodule and the
# ``measure`` function in the package namespace.
from .measure import TimingSample, measure, timed

#: Remaining public names load on first access: importing
#: ``repro.bench.measure`` — which the experiments do for their timing
#: primitives — must not drag in the harness, artifact and profile stacks
#: (and with them the whole workload generator).
_EXPORTS = {
    # harness
    "BenchRun": "harness",
    "build_request": "harness",
    "execute_specs": "harness",
    "expand_specs": "harness",
    # artifact
    "SCHEMA": "artifact",
    "SCHEMA_VERSION": "artifact",
    "ComparisonReport": "artifact",
    "artifact_runs": "artifact",
    "baseline_artifact": "artifact",
    "build_artifact": "artifact",
    "compare_artifacts": "artifact",
    "environment_metadata": "artifact",
    "load_artifact": "artifact",
    "validate_artifact": "artifact",
    "write_artifact": "artifact",
    # profiles
    "PROFILES": "profiles",
    "describe_profiles": "profiles",
    "profile": "profiles",
    "profile_names": "profiles",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = sorted([*_EXPORTS, "TimingSample", "measure", "timed"])
