"""Tests for the shared timing primitives."""

import pytest

from repro.bench import TimingSample, measure, timed


class TestTimed:
    def test_returns_result_and_duration(self):
        result, seconds = timed(lambda: 42)
        assert result == 42
        assert seconds >= 0

    def test_measure_counts_runs(self):
        calls = []
        sample = measure(lambda: calls.append(1), repeats=4)
        assert sample.runs == 4
        assert len(calls) == 4

    def test_empty_durations_rejected(self):
        with pytest.raises(ValueError):
            TimingSample.from_durations([])

    def test_experiments_import_does_not_load_the_harness_stack(self):
        # The experiments only need the timing primitives; the bench
        # package re-exports lazily so importing them must not drag in the
        # harness, artifacts, profiles or the workload generator.
        import pathlib
        import subprocess
        import sys

        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        probe = (
            "import sys\n"
            "import repro.experiments.timing\n"
            "heavy = [m for m in sys.modules if m.startswith('repro.bench.')"
            " and m != 'repro.bench.measure']\n"
            "heavy += [m for m in sys.modules if m.startswith('repro.workloads')]\n"
            "assert not heavy, heavy\n"
        )
        subprocess.run([sys.executable, "-c", probe], check=True,
                       env={"PYTHONPATH": src})
