"""Versioned BENCH JSON artifacts: write, validate, load, compare.

A benchmark artifact is one machine-readable JSON document capturing a
harness run: schema version, run name, creation time, environment metadata
(interpreter, platform, CPU count), the exact scenario specs that were
executed (so the workload regenerates bit-identically), the executor
configuration, and one row per timed case.  The schema is documented in
``benchmarks/DESIGN.md``.

:func:`compare_artifacts` is the regression gate: it matches rows across a
baseline and a candidate artifact by ``(case_id, problem)``, flags timing
regressions beyond a relative threshold (ignoring sub-resolution timings)
and — more importantly — flags *result* changes (front size / value),
which are correctness failures, not slowdowns.  A case whose resolved
backend changed is still compared, and the change is listed.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..workloads import ScenarioSpec
from .harness import BenchRun

__all__ = [
    "SCHEMA",
    "SCHEMA_VERSION",
    "environment_metadata",
    "build_artifact",
    "validate_artifact",
    "write_artifact",
    "load_artifact",
    "artifact_runs",
    "baseline_artifact",
    "ComparisonReport",
    "compare_artifacts",
]

SCHEMA = "atcd-bench"
SCHEMA_VERSION = 1

_REQUIRED_TOP_LEVEL = ("schema", "schema_version", "name", "environment", "specs",
                       "config", "runs")
_REQUIRED_RUN_FIELDS = ("case_id", "family", "shape", "setting", "problem",
                        "backend", "wall_time_seconds")


def environment_metadata() -> Dict[str, Any]:
    """Where the numbers were measured: interpreter, platform, CPU count."""
    import os

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "argv": list(sys.argv),
    }


def build_artifact(
    name: str,
    specs: Sequence[ScenarioSpec],
    runs: Sequence[BenchRun],
    config: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """Assemble a schema-valid artifact dict from a harness run."""
    artifact = {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "created_unix": time.time(),
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "environment": environment_metadata(),
        "specs": [spec.to_dict() for spec in specs],
        "config": dict(config or {}),
        "runs": [run.to_dict() for run in runs],
        "totals": {
            "cases": len(runs),
            "families": sorted({run.family for run in runs}),
            "shapes": sorted({run.shape for run in runs}),
            "settings": sorted({run.setting for run in runs}),
            "wall_time_seconds": sum(run.wall_time_seconds for run in runs),
            # Aggregate cache counters: with a shared result store attached,
            # hits / (hits + misses) is the run's store hit-rate.
            "cache_hits": sum(run.cache_hits for run in runs),
            "cache_misses": sum(run.cache_misses for run in runs),
            "store_hits": sum(run.store_hits for run in runs),
        },
    }
    # Memory profiling is opt-in (--trace-memory), so the totals only carry
    # peak columns when at least one row was traced.
    peaks = [run.peak_kb for run in runs if run.peak_kb is not None]
    if peaks:
        artifact["totals"]["peak_kb_max"] = max(peaks)
        artifact["totals"]["peak_kb_sum"] = round(sum(peaks), 3)
    validate_artifact(artifact)
    return artifact


def validate_artifact(data: Any) -> Dict[str, Any]:
    """Check an object is a structurally valid BENCH artifact.

    Raises ``ValueError`` with a one-line reason on the first violation and
    returns the (unmodified) artifact otherwise.
    """
    if not isinstance(data, dict):
        raise ValueError(f"artifact must be a JSON object, got {type(data).__name__}")
    for key in _REQUIRED_TOP_LEVEL:
        if key not in data:
            raise ValueError(f"artifact is missing the {key!r} field")
    if data["schema"] != SCHEMA:
        raise ValueError(
            f"artifact schema is {data['schema']!r}, expected {SCHEMA!r}"
        )
    if data["schema_version"] != SCHEMA_VERSION:
        raise ValueError(
            f"artifact schema_version is {data['schema_version']!r}, this build "
            f"reads version {SCHEMA_VERSION}"
        )
    if not isinstance(data["runs"], list):
        raise ValueError("artifact 'runs' must be a list")
    if not isinstance(data["specs"], list):
        raise ValueError("artifact 'specs' must be a list")
    for index, run in enumerate(data["runs"]):
        if not isinstance(run, dict):
            raise ValueError(f"runs[{index}] must be an object")
        for key in _REQUIRED_RUN_FIELDS:
            if key not in run:
                raise ValueError(f"runs[{index}] is missing the {key!r} field")
        if not isinstance(run["wall_time_seconds"], (int, float)):
            raise ValueError(f"runs[{index}].wall_time_seconds must be a number")
    # Specs must round-trip: an artifact whose workload cannot be
    # regenerated is not a reproducible benchmark record.
    for index, spec in enumerate(data["specs"]):
        try:
            ScenarioSpec.from_dict(spec)
        except (ValueError, TypeError) as error:
            raise ValueError(
                f"specs[{index}] is not a valid scenario: {error}"
            ) from error
    return data


def write_artifact(artifact: Mapping[str, Any], path: str) -> None:
    """Validate and write an artifact as indented JSON."""
    validate_artifact(dict(artifact))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load_artifact(path: str) -> Dict[str, Any]:
    """Load and validate an artifact, raising ``ValueError`` on any failure."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as error:
        raise ValueError(f"cannot read artifact {path!r}: {error}") from error
    except json.JSONDecodeError as error:
        raise ValueError(f"artifact {path!r} is not valid JSON: {error}") from error
    try:
        return validate_artifact(data)
    except ValueError as error:
        raise ValueError(f"artifact {path!r} is invalid: {error}") from error


def artifact_runs(artifact: Mapping[str, Any]) -> List[BenchRun]:
    """The artifact's rows as typed :class:`BenchRun` values."""
    return [BenchRun.from_dict(run) for run in artifact["runs"]]


def _keyed_runs(artifact: Mapping[str, Any]) -> Dict[Tuple[str, ...], BenchRun]:
    """The artifact's runs by ``(case_id, problem)``, so a resolver change
    does not unpair a case.  A case the artifact runs on several backends
    keeps the backend in its key, ``(case_id, problem, backend)``."""
    runs = artifact_runs(artifact)
    repeats = Counter((run.case_id, run.problem) for run in runs)
    return {
        (run.case_id, run.problem)
        if repeats[run.case_id, run.problem] == 1
        else (run.case_id, run.problem, run.backend): run
        for run in runs
    }


def baseline_artifact(
    artifacts: Sequence[Mapping[str, Any]]
) -> Dict[str, Any]:
    """Fold repeated runs of one profile into a rolling-baseline artifact.

    Takes N artifacts from independent runs of the *same* profile and
    produces one artifact whose per-case ``wall_time_seconds`` is the
    **median** across the runs — the number a CI regression gate should
    pin, since a single run's timing carries scheduler noise that a
    median mostly cancels.  ``std_seconds`` becomes the spread
    (max - min) across the runs, a visible record of how noisy the
    machine was when the baseline was cut.

    All inputs must share the same name and the same run keys
    (``case_id``/``problem``); result fields are taken from
    the first artifact after checking the runs agree on them — a baseline
    averaging over runs that *disagree on answers* would bury a
    correctness bug in a timing file.
    """
    if not artifacts:
        raise ValueError("baseline needs at least one artifact")
    names = {artifact["name"] for artifact in artifacts}
    if len(names) != 1:
        raise ValueError(
            f"baseline inputs mix profiles {sorted(names)!r}; rerun one "
            "profile per baseline"
        )
    per_run = [_keyed_runs(artifact) for artifact in artifacts]
    keys = set(per_run[0])
    for index, mapping in enumerate(per_run[1:], start=2):
        if set(mapping) != keys:
            raise ValueError(
                f"baseline input #{index} ran a different case set than #1; "
                "all runs must execute the identical profile"
            )
    folded: List[BenchRun] = []
    for key in per_run[0]:  # first artifact's order
        rows = [mapping[key] for mapping in per_run]
        first = rows[0]
        for row in rows[1:]:
            if row.result_points != first.result_points or (
                row.value is not None
                and first.value is not None
                and abs(row.value - first.value) > 1e-9
            ):
                raise ValueError(
                    f"baseline runs disagree on the result of "
                    f"{'/'.join(key)}: {first.result_points} points "
                    f"(value {first.value}) vs {row.result_points} points "
                    f"(value {row.value}) — fix the nondeterminism before "
                    "cutting a baseline"
                )
        times = sorted(row.wall_time_seconds for row in rows)
        middle = len(times) // 2
        median = (
            times[middle]
            if len(times) % 2
            else (times[middle - 1] + times[middle]) / 2.0
        )
        folded.append(dataclasses.replace(
            first,
            wall_time_seconds=median,
            std_seconds=round(times[-1] - times[0], 9),
        ))
    base = dict(artifacts[0])
    specs = [ScenarioSpec.from_dict(spec) for spec in base["specs"]]
    config = dict(base.get("config") or {})
    config["baseline_of_runs"] = len(artifacts)
    return build_artifact(base["name"], specs, folded, config=config)


@dataclass
class ComparisonReport:
    """The outcome of comparing a candidate artifact against a baseline.

    ``regressions`` are timing slowdowns beyond the threshold;
    ``mismatches`` are result differences (front size or value) — always
    failures regardless of timing; ``backend_changes`` list the compared
    runs whose resolved backend differs (informational: the run is still
    checked); ``missing``/``added`` list run keys only present on one side
    (informational).
    """

    threshold: float
    min_seconds: float
    compared: int = 0
    regressions: List[Dict[str, Any]] = field(default_factory=list)
    improvements: List[Dict[str, Any]] = field(default_factory=list)
    mismatches: List[Dict[str, Any]] = field(default_factory=list)
    backend_changes: List[Dict[str, Any]] = field(default_factory=list)
    missing: List[Tuple[str, ...]] = field(default_factory=list)
    added: List[Tuple[str, ...]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no regression and no result mismatch was found.

        A comparison where the baseline had runs but *none* matched the
        candidate is also a failure: a renamed profile or emptied candidate
        must not sail through the regression gate as a vacuous pass.
        """
        if self.compared == 0 and self.missing:
            return False
        return not self.regressions and not self.mismatches

    def render(self) -> str:
        """Human-readable multi-line summary."""
        lines = [
            f"compared {self.compared} runs "
            f"(threshold {self.threshold:+.0%}, floor {self.min_seconds*1e3:g} ms)"
        ]
        for entry in self.mismatches:
            lines.append(
                "RESULT MISMATCH {key}: baseline {baseline} != candidate "
                "{candidate}".format(**entry)
            )
        for entry in self.regressions:
            lines.append(
                "REGRESSION {key}: {baseline:.4f}s -> {candidate:.4f}s "
                "({ratio:+.0%})".format(**entry)
            )
        for entry in self.improvements:
            lines.append(
                "improvement {key}: {baseline:.4f}s -> {candidate:.4f}s "
                "({ratio:+.0%})".format(**entry)
            )
        for entry in self.backend_changes:
            lines.append(
                "backend changed {key}: {baseline} -> {candidate}".format(**entry)
            )
        if self.missing:
            lines.append(f"missing from candidate: {len(self.missing)} runs")
        if self.added:
            lines.append(f"new in candidate: {len(self.added)} runs")
        if self.compared == 0 and self.missing:
            lines.append("FAIL: no overlapping runs to compare")
        else:
            lines.append("PASS: no regressions" if self.ok else "FAIL")
        return "\n".join(lines)


def compare_artifacts(
    baseline: Mapping[str, Any],
    candidate: Mapping[str, Any],
    threshold: float = 0.25,
    min_seconds: float = 0.005,
) -> ComparisonReport:
    """Compare two artifacts run-by-run.

    Parameters
    ----------
    baseline / candidate:
        Validated artifact dicts (see :func:`load_artifact`).
    threshold:
        Relative slowdown that counts as a regression (0.25 = 25% slower).
    min_seconds:
        Runs where both sides are faster than this are never flagged —
        sub-resolution timings are noise, not signal.
    """
    if threshold < 0:
        raise ValueError(f"threshold must be non-negative, got {threshold!r}")
    baseline_runs = _keyed_runs(baseline)
    candidate_runs = _keyed_runs(candidate)
    report = ComparisonReport(threshold=threshold, min_seconds=min_seconds)
    report.missing = sorted(set(baseline_runs) - set(candidate_runs))
    report.added = sorted(set(candidate_runs) - set(baseline_runs))
    for key in sorted(set(baseline_runs) & set(candidate_runs)):
        before, after = baseline_runs[key], candidate_runs[key]
        report.compared += 1
        label = "/".join(key)
        if before.backend != after.backend:
            report.backend_changes.append({
                "key": label, "baseline": before.backend,
                "candidate": after.backend,
            })
        if before.result_points != after.result_points or (
            before.value is not None
            and after.value is not None
            and abs(before.value - after.value) > 1e-9
        ):
            report.mismatches.append({
                "key": label,
                "baseline": f"{before.result_points} points, value {before.value}",
                "candidate": f"{after.result_points} points, value {after.value}",
            })
            continue
        if before.wall_time_seconds < min_seconds and \
                after.wall_time_seconds < min_seconds:
            continue
        base = max(before.wall_time_seconds, 1e-12)
        ratio = (after.wall_time_seconds - before.wall_time_seconds) / base
        entry = {
            "key": label,
            "baseline": before.wall_time_seconds,
            "candidate": after.wall_time_seconds,
            "ratio": ratio,
        }
        if ratio > threshold:
            report.regressions.append(entry)
        elif ratio < -threshold:
            report.improvements.append(entry)
    return report
