"""Tests for the named benchmark profiles."""

import pytest

from repro.bench import describe_profiles, profile, profile_names
from repro.bench.harness import build_request, expand_specs
from repro.engine import AnalysisSession
from repro.workloads import ScenarioSpec


class TestProfiles:
    def test_known_profiles(self):
        assert {"smoke", "full", "scale"} <= set(profile_names())

    def test_unknown_profile_lists_known(self):
        with pytest.raises(ValueError, match="available profiles"):
            profile("nope")

    def test_profile_returns_fresh_list(self):
        first = profile("smoke")
        first.clear()
        assert profile("smoke")

    def test_describe_mentions_every_profile(self):
        text = describe_profiles()
        for name in profile_names():
            assert name in text

    def test_smoke_covers_families_shapes_settings(self):
        # Acceptance criterion: >= 4 workload families across both shapes
        # and both settings.
        specs = profile("smoke")
        assert len({spec.family for spec in specs}) >= 4
        assert {spec.shape for spec in specs} == {"treelike", "dag"}
        assert {spec.setting for spec in specs} == {"deterministic", "probabilistic"}

    @pytest.mark.parametrize("name", ["smoke", "full", "scale"])
    def test_profiles_are_valid_specs(self, name):
        for spec in profile(name):
            assert isinstance(spec, ScenarioSpec)
            assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_scale_wide_fan_dags_straddle_the_width_cutoff(self):
        # wide-fan DAGs keep w = size // 3 labels open: the scale profile
        # must time CDPF on both sides of bottom-up's cutoff.
        from repro.core.problems import Problem
        from repro.engine.backends import MAX_WIDTH

        (spec,) = [s for s in profile("scale")
                   if (s.family, s.shape) == ("wide-fan", "dag")]
        widths = {size // 3 for size in spec.sizes}
        assert min(widths) <= MAX_WIDTH[Problem.CDPF] < max(widths)
        backends = {
            AnalysisSession(case.model).resolve(Problem.CDPF).name
            for _, case in expand_specs([spec])
        }
        assert backends == {"bottom-up", "bilp"}

    def test_smoke_requests_resolve(self):
        # Every smoke case must resolve to a backend without executing it —
        # an uncovered capability cell would only fail at bench time.
        for spec, case in expand_specs(profile("smoke")):
            request = build_request(spec)
            request.validate()
            AnalysisSession(case.model).resolve(request.problem,
                                               backend=request.backend)
