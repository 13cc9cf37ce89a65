"""Tests for the Table III timing harness (scaled down for CI)."""

import pytest

from repro.bench import TimingSample, measure
from repro.experiments.timing import render_table3, run_table3


class TestTimingSample:
    def test_from_durations(self):
        sample = TimingSample.from_durations([1.0, 2.0, 3.0])
        assert sample.mean_seconds == pytest.approx(2.0)
        assert sample.runs == 3
        assert sample.std_seconds > 0

    def test_single_duration_has_zero_std(self):
        sample = TimingSample.from_durations([0.5])
        assert sample.std_seconds == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            TimingSample.from_durations([])


class TestMeasure:
    def test_measure_counts_runs(self):
        calls = []
        sample = measure(lambda: calls.append(1), repeats=3)
        assert sample.runs == 3
        assert len(calls) == 3
        assert sample.mean_seconds >= 0


class TestRunTable3:
    @pytest.fixture(scope="class")
    def rows(self):
        # Scaled-down run: 1 random decoration, no enumerative baseline.
        return run_table3(random_decorations=1, include_enumerative=False)

    def test_row_labels_cover_the_paper_cases(self, rows):
        labels = [row.label for row in rows]
        assert any("Fig.4 deterministic" in label for label in labels)
        assert any("Fig.4 probabilistic" in label for label in labels)
        assert any("Fig.5 deterministic" in label for label in labels)

    def test_inapplicable_cells_are_none(self, rows):
        by_label = {row.label: row for row in rows}
        prob_row = next(row for label, row in by_label.items() if "probabilistic" in label)
        assert prob_row.timings["bilp"] is None
        server_row = next(row for label, row in by_label.items() if "Fig.5" in label)
        assert server_row.timings["bottom-up"] is None

    def test_bottom_up_beats_bilp_on_panda(self, rows):
        """The central Table III observation: BU is faster than BILP."""
        det_row = next(row for row in rows if row.label.startswith("Fig.4 deterministic (true"))
        bottom_up = det_row.timings["bottom-up"].mean_seconds
        bilp = det_row.timings["bilp"].mean_seconds
        assert bottom_up < bilp

    def test_render(self, rows):
        text = render_table3(rows)
        assert "Table III" in text
        assert "bottom-up" in text and "bilp" in text
        assert "n/a" in text

    def test_enumerative_respects_bas_limit(self):
        rows = run_table3(random_decorations=0, include_enumerative=True,
                          enumerative_bas_limit=5)
        # All case-study ATs have more than 5 BASs, so every enumerative cell
        # must be skipped.
        assert all(row.timings.get("enumerative") is None for row in rows)
