"""Tests for BENCH artifact building, validation and comparison."""

import json

import pytest

from repro.bench import (
    SCHEMA_VERSION,
    artifact_runs,
    build_artifact,
    compare_artifacts,
    execute_specs,
    load_artifact,
    validate_artifact,
    write_artifact,
)
from repro.workloads import ScenarioSpec

SPECS = [
    ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
    ScenarioSpec(family="wide-fan", shape="treelike", setting="deterministic",
                 sizes=(6,)),
]


@pytest.fixture(scope="module")
def runs():
    return execute_specs(SPECS)


@pytest.fixture(scope="module")
def artifact(runs):
    return build_artifact("unit", SPECS, runs, config={"executor": "sequential"})


class TestArtifact:
    def test_build_is_schema_valid(self, artifact):
        assert validate_artifact(artifact) is artifact
        assert artifact["schema_version"] == SCHEMA_VERSION
        assert artifact["totals"]["cases"] == 3
        assert artifact["environment"]["cpu_count"] >= 1

    def test_runs_round_trip(self, artifact, runs):
        assert artifact_runs(artifact) == list(runs)

    def test_untraced_totals_omit_peak_columns(self, artifact):
        assert "peak_kb_max" not in artifact["totals"]

    def test_traced_totals_aggregate_peak_kb(self):
        runs = execute_specs(SPECS[:1], trace_memory=True)
        traced = build_artifact("traced", SPECS[:1], runs)
        assert traced["totals"]["peak_kb_max"] == max(r.peak_kb for r in runs)
        assert traced["totals"]["peak_kb_sum"] == pytest.approx(
            sum(r.peak_kb for r in runs)
        )

    def test_write_and_load(self, artifact, tmp_path):
        path = str(tmp_path / "BENCH_unit.json")
        write_artifact(artifact, path)
        loaded = load_artifact(path)
        assert loaded["name"] == "unit"
        assert artifact_runs(loaded) == artifact_runs(artifact)
        # Embedded specs regenerate: the artifact is self-describing.
        assert [ScenarioSpec.from_dict(s) for s in loaded["specs"]] == SPECS

    def test_load_missing_file_is_value_error(self, tmp_path):
        with pytest.raises(ValueError, match="cannot read artifact"):
            load_artifact(str(tmp_path / "nope.json"))

    def test_load_invalid_json_is_value_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="not valid JSON"):
            load_artifact(str(path))

    @pytest.mark.parametrize("mutate,match", [
        (lambda a: a.pop("runs"), "missing the 'runs'"),
        (lambda a: a.__setitem__("schema", "other"), "schema is"),
        (lambda a: a.__setitem__("schema_version", 999), "schema_version"),
        (lambda a: a["runs"][0].pop("case_id"), "missing the 'case_id'"),
        (lambda a: a["runs"][0].__setitem__("wall_time_seconds", "fast"),
         "must be a number"),
        (lambda a: a["specs"].append({"family": "nope", "shape": "cyclic"}),
         "not a valid scenario"),
    ])
    def test_validation_failures(self, artifact, mutate, match):
        broken = json.loads(json.dumps(artifact))
        mutate(broken)
        with pytest.raises(ValueError, match=match):
            validate_artifact(broken)


class TestComparison:
    def test_self_comparison_passes(self, artifact):
        report = compare_artifacts(artifact, artifact)
        assert report.ok
        assert report.compared == 3
        assert "PASS" in report.render()

    def test_slowdown_flagged(self, artifact):
        slower = json.loads(json.dumps(artifact))
        for run in slower["runs"]:
            run["wall_time_seconds"] = run["wall_time_seconds"] * 10 + 1.0
        report = compare_artifacts(artifact, slower, threshold=0.25)
        assert not report.ok
        assert len(report.regressions) == 3
        assert "REGRESSION" in report.render()

    def test_speedup_reported_not_failed(self, artifact):
        slower = json.loads(json.dumps(artifact))
        for run in slower["runs"]:
            run["wall_time_seconds"] = run["wall_time_seconds"] * 10 + 1.0
        report = compare_artifacts(slower, artifact, threshold=0.25)
        assert report.ok
        assert len(report.improvements) == 3

    def test_sub_resolution_noise_ignored(self, artifact):
        noisy = json.loads(json.dumps(artifact))
        for run in noisy["runs"]:
            run["wall_time_seconds"] = 0.004  # below the 5 ms floor
        fast = json.loads(json.dumps(noisy))
        for run in fast["runs"]:
            run["wall_time_seconds"] = 0.001
        assert compare_artifacts(fast, noisy).ok

    def test_result_mismatch_always_fails(self, artifact):
        wrong = json.loads(json.dumps(artifact))
        wrong["runs"][0]["result_points"] += 1
        report = compare_artifacts(artifact, wrong)
        assert not report.ok
        assert len(report.mismatches) == 1
        assert "RESULT MISMATCH" in report.render()

    def test_missing_and_added_runs_reported(self, artifact):
        smaller = json.loads(json.dumps(artifact))
        smaller["runs"].pop()
        report = compare_artifacts(artifact, smaller)
        assert report.ok  # informational, not a failure
        assert len(report.missing) == 1
        renamed = json.loads(json.dumps(artifact))
        renamed["runs"][0]["case_id"] = "brand-new"
        report = compare_artifacts(artifact, renamed)
        assert len(report.added) == 1

    def test_negative_threshold_rejected(self, artifact):
        with pytest.raises(ValueError, match="threshold"):
            compare_artifacts(artifact, artifact, threshold=-0.1)

    def test_minimal_schema_valid_runs_load_and_compare(self, artifact):
        # An artifact carrying only the fields validate_artifact requires
        # (e.g. produced by an external tool) must load and compare without
        # a KeyError.
        minimal = json.loads(json.dumps(artifact))
        minimal["runs"] = [
            {key: run[key] for key in ("case_id", "family", "shape", "setting",
                                       "problem", "backend", "wall_time_seconds")}
            for run in minimal["runs"]
        ]
        validate_artifact(minimal)
        assert artifact_runs(minimal)
        report = compare_artifacts(minimal, minimal)
        assert report.ok and report.compared == 3

    def test_zero_overlap_is_a_failure_not_a_vacuous_pass(self, artifact):
        renamed = json.loads(json.dumps(artifact))
        for run in renamed["runs"]:
            run["case_id"] = "other-" + run["case_id"]
        report = compare_artifacts(artifact, renamed)
        assert report.compared == 0
        assert not report.ok
        assert "no overlapping runs" in report.render()


class TestBackendChanges:
    """Runs pair by case and problem, so a resolver change cannot take a
    case out of the comparison."""

    def test_a_changed_backend_and_value_is_a_mismatch(self, artifact):
        baseline = json.loads(json.dumps(artifact))
        baseline["runs"][0]["value"] = 5.0
        changed = json.loads(json.dumps(baseline))
        run = changed["runs"][0]
        run["backend"] = "elsewhere"
        run["value"] = 6.0
        report = compare_artifacts(baseline, changed)
        assert not report.ok
        assert report.compared == 3 and not report.missing and not report.added
        assert len(report.mismatches) == 1
        assert report.backend_changes == [{
            "key": f"{run['case_id']}/{run['problem']}",
            "baseline": baseline["runs"][0]["backend"],
            "candidate": "elsewhere",
        }]
        assert "backend changed" in report.render()

    def test_a_changed_backend_alone_is_listed_and_timed(self, artifact):
        changed = json.loads(json.dumps(artifact))
        changed["runs"][0]["backend"] = "elsewhere"
        changed["runs"][0]["wall_time_seconds"] = 100.0
        report = compare_artifacts(artifact, changed)
        assert len(report.backend_changes) == 1
        assert len(report.regressions) == 1 and not report.ok

    def test_a_case_run_on_two_backends_keeps_both_runs(self, artifact):
        doubled = json.loads(json.dumps(artifact))
        twin = dict(doubled["runs"][0], backend="elsewhere")
        doubled["runs"].append(twin)
        report = compare_artifacts(doubled, doubled)
        assert report.ok and report.compared == 4
        assert report.backend_changes == []
