"""Tests for the capability-aware backend registry."""

import pytest

from repro.attacktree.catalog import (
    data_server,
    factory,
    factory_probabilistic,
    panda_iot,
)
from repro.attacktree.transform import with_unit_probabilities
from repro.core.problems import Problem
from repro.engine import (
    AnalysisRequest,
    BackendRegistry,
    BackendRegistryError,
    BaseBackend,
    Capability,
    CapabilityError,
    Setting,
    Shape,
    UnknownBackendError,
    default_registry,
    run_request,
    standard_backends,
)
from repro.engine.backends import MAX_WIDTH
from repro.workloads import ScenarioSpec, expand

DETERMINISTIC = (Problem.CDPF, Problem.DGC, Problem.CGD)
PROBABILISTIC = (Problem.CEDPF, Problem.EDGC, Problem.CGED)


def _shared_bas(size, setting="deterministic"):
    """The shared-bas workload DAG of a given pool size (k = size / 2)."""
    spec = ScenarioSpec(family="shared-bas", shape="dag", setting=setting, sizes=(size,))
    return expand(spec)[0].model


def _wide_fan(size):
    """The wide-fan workload DAG: its overlap third stays open up to the
    root, so the frontier width is w = size // 3."""
    spec = ScenarioSpec(family="wide-fan", shape="dag", setting="deterministic",
                        sizes=(size,))
    return expand(spec)[0].model


@pytest.fixture(scope="module")
def registry():
    return default_registry()


class TestTable1Resolution:
    """Auto-resolution must reproduce every cell of the paper's Table I."""

    @pytest.mark.parametrize("problem", DETERMINISTIC)
    def test_deterministic_tree_resolves_bottom_up(self, registry, problem):
        assert registry.resolve(problem, factory()).name == "bottom-up"

    # Per problem, the widest wide-fan DAG bottom-up takes and the narrowest
    # it leaves to BILP (w = size // 3; see repro.engine.backends.MAX_WIDTH).
    CUTOFFS = [(Problem.CDPF, 33, 36), (Problem.DGC, 15, 18), (Problem.CGD, 15, 18)]

    @pytest.mark.parametrize("problem, accepted, declined", CUTOFFS)
    def test_deterministic_dag_resolves_bottom_up_up_to_cutoff(
        self, registry, problem, accepted, declined
    ):
        assert registry.resolve(problem, data_server()).name == "bottom-up"
        assert registry.resolve(problem, _wide_fan(accepted)).name == "bottom-up"
        assert MAX_WIDTH[problem] == accepted // 3

    @pytest.mark.parametrize("problem, accepted, declined", CUTOFFS)
    def test_deterministic_dag_above_cutoff_resolves_bilp(
        self, registry, problem, accepted, declined
    ):
        assert registry.resolve(problem, _wide_fan(declined)).name == "bilp"

    def test_shared_bas_n22_resolves_bottom_up(self, registry):
        # k = 11 shared BASs, but each closes at its own gate: w = 3.
        for problem in DETERMINISTIC:
            assert registry.resolve(problem, _shared_bas(22)).name == "bottom-up"

    def test_decline_states_shared_nodes_and_width(self, registry):
        bottom_up = registry.get("bottom-up")
        reason = bottom_up.declines(_wide_fan(36), Problem.CDPF)
        assert "12 shared nodes keep up to 12 labels open" in reason
        assert bottom_up.declines(factory(), Problem.CDPF) is None

    def test_every_full_profile_dag_resolves_bottom_up(self, registry):
        from repro.bench import profile

        for spec in profile("full"):
            if (spec.shape, spec.setting) != ("dag", "deterministic"):
                continue
            for case in expand(spec):
                assert registry.resolve(Problem.CDPF, case.model).name == "bottom-up"

    def test_named_bottom_up_runs_above_cutoff(self, registry):
        model = _wide_fan(18)
        chosen = registry.resolve(Problem.DGC, model, backend="bottom-up")
        assert chosen.name == "bottom-up"
        result = run_request(
            model, AnalysisRequest(Problem.DGC, budget=3.0, backend="bottom-up")
        )
        expected = run_request(model, AnalysisRequest(Problem.DGC, budget=3.0))
        assert result.backend == "bottom-up" and expected.backend == "bilp"
        assert result.value == pytest.approx(expected.value)
        assert result.extras == {"shared_nodes": 6, "width": 6}

    @pytest.mark.parametrize("problem", PROBABILISTIC)
    def test_probabilistic_tree_resolves_bottom_up(self, registry, problem):
        assert registry.resolve(problem, panda_iot()).name == "bottom-up"

    @pytest.mark.parametrize("problem", PROBABILISTIC)
    def test_probabilistic_dag_resolves_enumerative(self, registry, problem):
        model = with_unit_probabilities(data_server())
        assert registry.resolve(problem, model).name == "enumerative"

    @pytest.mark.parametrize("problem", PROBABILISTIC)
    def test_probabilistic_dag_beyond_table_limit_fails_fast(self, registry, problem):
        # Up to 16 BASs enumerative runs on its tables; past that, per-attack
        # evaluation is too slow to serve, so auto-resolution refuses it.
        largest = _shared_bas(16, "probabilistic")
        assert registry.resolve(problem, largest).name == "enumerative"
        model = _shared_bas(17, "probabilistic")
        with pytest.raises(CapabilityError, match="enumerative: 17 BASs exceed"):
            registry.resolve(problem, model)
        named = registry.resolve(problem, model, backend="enumerative")
        assert named.name == "enumerative"

    def test_capability_report_matches_table1(self, registry):
        table = registry.capability_report()
        assert len(table) == 4
        assert "bottom-up" in table[("deterministic", "tree")]
        assert "dominator labels" in table[("deterministic", "dag")]
        assert "BILP" in table[("deterministic", "dag")]
        assert "bottom-up" in table[("probabilistic", "tree")]
        assert "open problem" in table[("probabilistic", "dag")]


class TestExplicitSelection:
    def test_one_backend_per_method(self):
        assert [backend.name for backend in standard_backends()] == [
            "bottom-up", "bilp", "enumerative",
        ]

    def test_every_standard_backend_reachable_by_name(self, registry):
        for backend in standard_backends():
            assert registry.get(backend.name).name == backend.name

    def test_unknown_backend(self, registry):
        with pytest.raises(UnknownBackendError, match="unknown backend 'simplex'"):
            registry.resolve(Problem.CDPF, factory(), backend="simplex")

    def test_unknown_backend_lists_known_names(self, registry):
        with pytest.raises(UnknownBackendError, match="bottom-up"):
            registry.get("nope")

    def test_bilp_rejects_probabilistic_cells_with_domain_message(self, registry):
        with pytest.raises(CapabilityError, match="no BILP formulation"):
            registry.resolve(Problem.CEDPF, panda_iot(), backend="bilp")

    def test_bottom_up_rejects_probabilistic_dags_with_domain_message(self, registry):
        model = with_unit_probabilities(data_server())
        with pytest.raises(CapabilityError, match="treelike"):
            registry.resolve(Problem.CEDPF, model, backend="bottom-up")


class TestRegistration:
    def _dummy(self, name="dummy"):
        class Dummy(BaseBackend):
            pass

        backend = Dummy()
        backend.name = name
        backend.capabilities = frozenset(
            {Capability(Problem.CDPF, Shape.TREE, Setting.DETERMINISTIC)}
        )
        backend.priority = 1000
        return backend

    def test_register_and_resolve_custom_backend(self):
        registry = default_registry()
        registry.register(self._dummy())
        # Highest priority wins: the dummy now shadows bottom-up for CDPF/tree.
        assert registry.resolve(Problem.CDPF, factory()).name == "dummy"
        # Other cells are untouched.
        assert registry.resolve(Problem.DGC, factory()).name == "bottom-up"

    def test_declining_backend_is_skipped_by_auto_resolution_only(self):
        registry = default_registry()
        dummy = self._dummy()
        dummy.declines = lambda model, problem: "never on this model"
        registry.register(dummy)
        assert registry.resolve(Problem.CDPF, factory()).name == "bottom-up"
        assert registry.resolve(Problem.CDPF, factory(), backend="dummy") is dummy

    def test_every_candidate_declining_is_a_capability_error(self):
        registry = BackendRegistry()
        dummy = self._dummy()
        dummy.declines = lambda model, problem: "too big"
        registry.register(dummy)
        with pytest.raises(CapabilityError, match="dummy: too big"):
            registry.resolve(Problem.CDPF, factory())

    def test_duplicate_name_rejected_without_replace(self):
        registry = default_registry()
        registry.register(self._dummy())
        with pytest.raises(BackendRegistryError, match="already registered"):
            registry.register(self._dummy())
        registry.register(self._dummy(), replace=True)

    def test_unregister(self):
        registry = default_registry()
        registry.unregister("enumerative")
        assert "enumerative" not in registry
        with pytest.raises(UnknownBackendError):
            registry.get("enumerative")

    def test_empty_registry_reports_uncovered_cell(self):
        registry = BackendRegistry()
        with pytest.raises(CapabilityError, match="no backend covers"):
            registry.resolve(Problem.CDPF, factory())


class TestWrongSettingModels:
    """Problem/model mismatches must keep the library's canonical errors."""

    def test_probabilistic_problem_on_deterministic_model(self, registry):
        from repro.engine import run_request, AnalysisRequest

        with pytest.raises(TypeError, match="cdp-AT"):
            run_request(factory(), AnalysisRequest(Problem.CEDPF), registry)

    def test_setting_mismatch_caught_at_resolution_time(self, registry):
        """Pre-flight validators rely on resolve() rejecting this early."""
        with pytest.raises(TypeError, match="cdp-AT"):
            registry.resolve(Problem.CEDPF, factory())
        with pytest.raises(TypeError, match="cdp-AT"):
            registry.resolve(Problem.EDGC, factory(), backend="enumerative")

    def test_deterministic_problem_on_probabilistic_model_projects(self, registry):
        from repro.engine import run_request, AnalysisRequest

        result = run_request(factory_probabilistic(), AnalysisRequest(Problem.CDPF), registry)
        assert result.front.values() == [(0, 0), (1, 200), (3, 210), (5, 310)]
