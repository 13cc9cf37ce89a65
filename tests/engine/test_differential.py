"""Cross-backend differential suite over random workload models.

The paper's exact methods — bottom-up propagation (treelike, and
deterministic DAGs through dominator labels), BILP (deterministic, DAGs
included) and exhaustive enumeration (every cell) — must agree wherever
their capabilities overlap.  This suite generates
random decorated trees through the :mod:`repro.workloads` families
(property-based, via Hypothesis) and asserts that every *capable* exact
backend returns identical results for each supported problem.

It doubles as the regression net for the shared result store (a result
that survives the store's JSON round-trip must still equal the live one)
and for any future exact probabilistic-DAG method: register it as an exact
backend and this suite starts differential-testing it for free.  Until one
exists, the probabilistic cells get a second opinion from ``enumerative``
with its table path disabled, which sums every attack's actualizations
one by one instead of running the zeta transform.

Sizes are capped so the enumerative baseline stays tractable; Hypothesis
settings are derandomized for CI stability.
"""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.attacktree import CostDamageProbAT  # noqa: E402
from repro.core import enumerative  # noqa: E402
from repro.core.problems import Problem  # noqa: E402
from repro.core.semantics import attack_cost, attack_damage  # noqa: E402
from repro.engine import (  # noqa: E402
    AnalysisRequest,
    SqliteStore,
    model_fingerprint,
    run_request,
)
from repro.probability.actualization import expected_damage  # noqa: E402
from repro.workloads import ScenarioSpec, expand  # noqa: E402

from ..conftest import make_random_tree  # noqa: E402

#: (family, shape) cells and the size range keeping enumeration tractable.
_DETERMINISTIC_CELLS = [
    ("random", "treelike", (4, 12)),
    ("random", "dag", (4, 12)),
    ("deep-chain", "treelike", (2, 6)),
    ("deep-chain", "dag", (2, 6)),
    ("wide-fan", "treelike", (2, 8)),
    ("wide-fan", "dag", (2, 8)),
    ("shared-bas", "dag", (4, 8)),
]
#: Probabilistic enumeration also sums over actualizations, so smaller.
_PROBABILISTIC_CELLS = [
    ("random", "treelike", (4, 9)),
    ("random", "dag", (4, 9)),
    ("deep-chain", "treelike", (2, 5)),
    ("deep-chain", "dag", (2, 5)),
    ("wide-fan", "treelike", (2, 6)),
    ("wide-fan", "dag", (2, 6)),
    ("shared-bas", "dag", (4, 7)),
]

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)


def _workload_model(setting, cells, data):
    """Draw one decorated model from the registered workload families."""
    family, shape, (low, high) = data.draw(st.sampled_from(cells), label="cell")
    size = data.draw(st.integers(low, high), label="size")
    seed = data.draw(st.integers(0, 999_999), label="seed")
    spec = ScenarioSpec(
        family=family, shape=shape, setting=setting, sizes=(size,), seed=seed
    )
    return expand(spec)[0].model


def _front_values(result):
    assert result.front is not None
    return result.front.values()


def _assert_fronts_equal(reference, candidate, context):
    ref, cand = _front_values(reference), _front_values(candidate)
    assert len(ref) == len(cand), context
    for (ref_cost, ref_damage), (cand_cost, cand_damage) in zip(ref, cand):
        assert cand_cost == pytest.approx(ref_cost, abs=1e-9), context
        assert cand_damage == pytest.approx(ref_damage, abs=1e-9), context


def _assert_values_equal(reference, candidate, context):
    if reference.value is None:
        assert candidate.value is None, context
    else:
        assert candidate.value == pytest.approx(reference.value, abs=1e-9), context


def _scalar_parameters(front_values):
    """Budgets/thresholds probing below, on and beyond the front."""
    costs = sorted({cost for cost, _ in front_values})
    damages = sorted({damage for _, damage in front_values})
    budgets = {0.0, costs[len(costs) // 2], costs[-1], costs[-1] + 1.0}
    thresholds = {0.0, damages[len(damages) // 2], damages[-1], damages[-1] + 1.0}
    return sorted(budgets), sorted(thresholds)


#: Pseudo-backend: ``enumerative`` forced onto its per-attack fallback
#: (``repro.probability.actualization.expected_damage`` per attack).
_PER_ATTACK = "enumerative/per-attack"


def _run(model, backend, problem, **params):
    """Run one request on ``backend`` (or the per-attack pseudo-backend)."""
    if backend == _PER_ATTACK:
        with mock.patch.object(enumerative, "_TABLE_LIMIT", 0):
            return _run(model, "enumerative", problem, **params)
    return run_request(model, AnalysisRequest(problem, backend=backend, **params))


def _capable_exact_backends(model, probabilistic):
    """The exact backends covering this model, per Table I capabilities."""
    if probabilistic:
        # Trees have bottom-up; the DAG cell, no exact method but enumeration.
        second = "bottom-up" if model.tree.is_treelike else _PER_ATTACK
        backends = ["enumerative", second]
    else:
        backends = ["enumerative", "bilp", "bottom-up"]
    return backends


class TestDeterministicBackendsAgree:
    @_SETTINGS
    @given(data=st.data())
    def test_cdpf_dgc_cgd_agree(self, data):
        model = _workload_model("deterministic", _DETERMINISTIC_CELLS, data)
        backends = _capable_exact_backends(model, probabilistic=False)

        reference = run_request(model, AnalysisRequest(Problem.CDPF, backend="enumerative"))
        fronts = {
            backend: run_request(model, AnalysisRequest(Problem.CDPF, backend=backend))
            for backend in backends
        }
        for backend, result in fronts.items():
            _assert_fronts_equal(reference, result, f"cdpf via {backend}")

        budgets, thresholds = _scalar_parameters(_front_values(reference))
        for budget in budgets:
            expected = run_request(
                model,
                AnalysisRequest(Problem.DGC, budget=budget, backend="enumerative"),
            )
            for backend in backends:
                got = run_request(
                    model, AnalysisRequest(Problem.DGC, budget=budget, backend=backend)
                )
                _assert_values_equal(expected, got, f"dgc({budget}) via {backend}")
        for threshold in thresholds:
            expected = run_request(
                model,
                AnalysisRequest(Problem.CGD, threshold=threshold, backend="enumerative"),
            )
            for backend in backends:
                got = run_request(
                    model,
                    AnalysisRequest(Problem.CGD, threshold=threshold, backend=backend),
                )
                _assert_values_equal(expected, got, f"cgd({threshold}) via {backend}")


class TestProbabilisticBackendsAgree:
    @_SETTINGS
    @given(data=st.data())
    def test_cedpf_edgc_cged_agree(self, data):
        model = _workload_model("probabilistic", _PROBABILISTIC_CELLS, data)
        backends = _capable_exact_backends(model, probabilistic=True)

        reference = run_request(
            model, AnalysisRequest(Problem.CEDPF, backend="enumerative")
        )
        for backend in backends:
            result = _run(model, backend, Problem.CEDPF)
            _assert_fronts_equal(reference, result, f"cedpf via {backend}")

        budgets, thresholds = _scalar_parameters(_front_values(reference))
        for budget in budgets:
            expected = run_request(
                model,
                AnalysisRequest(Problem.EDGC, budget=budget, backend="enumerative"),
            )
            for backend in backends:
                got = _run(model, backend, Problem.EDGC, budget=budget)
                _assert_values_equal(expected, got, f"edgc({budget}) via {backend}")
        for threshold in thresholds:
            expected = run_request(
                model,
                AnalysisRequest(
                    Problem.CGED, threshold=threshold, backend="enumerative"
                ),
            )
            for backend in backends:
                got = _run(model, backend, Problem.CGED, threshold=threshold)
                _assert_values_equal(expected, got, f"cged({threshold}) via {backend}")


#: Decorations off any decimal grid: 0.1 + 0.2 and 0.3 differ by an ulp,
#: 1/3 and 7.77 have no exact binary form, so sums of different attacks
#: land within ε of each other and exercise every tolerant comparison.
_OFF_GRID_VALUES = [0.0, 1e-3, 0.1, 0.2, 0.3, 1 / 3, 7.77]
_OFF_GRID_PROBABILITIES = [0.1, 0.3, 1 / 3, 0.7, 0.99, 1.0]


@st.composite
def _off_grid_trees(draw):
    """A treelike cdp-AT with at most 8 BASs and off-grid decorations."""
    tree = make_random_tree(draw(st.integers(0, 10_000)), max_bas=8).tree
    values = st.sampled_from(_OFF_GRID_VALUES)
    return CostDamageProbAT(
        tree,
        {bas: draw(values) for bas in tree.basic_attack_steps},
        {node: draw(values) for node in tree.node_names},
        {bas: draw(st.sampled_from(_OFF_GRID_PROBABILITIES))
         for bas in tree.basic_attack_steps},
    )


class TestOffGridDecorations:
    """``bottom-up`` equals ``enumerative`` on all six problems to 1e-9 when
    costs, damages and probabilities are off the decimal grid, and every
    witness realises the cost and (expected) damage reported for it."""

    @settings(max_examples=50, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(model=_off_grid_trees())
    def test_bottom_up_matches_enumerative(self, model):
        for setting_model, damage_of, front_problem, value_problem, bound_problem in (
            (model.deterministic(), attack_damage, Problem.CDPF, Problem.DGC, Problem.CGD),
            (model, expected_damage, Problem.CEDPF, Problem.EDGC, Problem.CGED),
        ):
            self._check(setting_model, damage_of, front_problem, value_problem,
                        bound_problem)

    @staticmethod
    def _check(model, damage_of, front_problem, value_problem, bound_problem):
        def solve(backend, problem, **params):
            return run_request(
                model, AnalysisRequest(problem, backend=backend, **params)
            )

        def realised(attack):
            return attack_cost(model, attack), damage_of(model, attack)

        reference = solve("enumerative", front_problem)
        front = solve("bottom-up", front_problem)
        _assert_fronts_equal(reference, front, front_problem.value)
        for point in front.front:
            cost, damage = realised(point.attack)
            assert cost == pytest.approx(point.cost, abs=1e-9)
            assert damage == pytest.approx(point.damage, abs=1e-9)

        budgets, thresholds = _scalar_parameters(_front_values(reference))
        for budget in budgets:
            context = f"{value_problem.value}({budget})"
            got = solve("bottom-up", value_problem, budget=budget)
            _assert_values_equal(
                solve("enumerative", value_problem, budget=budget), got, context
            )
            cost, damage = realised(got.witness)
            assert cost <= budget + 1e-9, context
            assert damage == pytest.approx(got.value, abs=1e-9), context
        for threshold in thresholds:
            context = f"{bound_problem.value}({threshold})"
            got = solve("bottom-up", bound_problem, threshold=threshold)
            _assert_values_equal(
                solve("enumerative", bound_problem, threshold=threshold), got, context
            )
            if got.value is None:
                continue
            cost, damage = realised(got.witness)
            assert cost == pytest.approx(got.value, abs=1e-9), context
            assert damage >= threshold - 1e-9, context


@pytest.fixture(scope="module")
def sqlite_store(tmp_path_factory):
    """A :class:`SqliteStore` shared by every Hypothesis example (each
    drawn model has its own fingerprint, so keys never collide)."""
    with SqliteStore(str(tmp_path_factory.mktemp("store") / "results.sqlite")) as store:
        yield store


@pytest.fixture(scope="module")
def broker_store(tmp_path_factory):
    """An :class:`HttpStore` against a live broker (module-scoped: one
    server serves every Hypothesis example; keys never collide because
    each drawn model has its own fingerprint)."""
    from repro.net import BrokerServer, HttpStore

    store_path = str(tmp_path_factory.mktemp("broker") / "results.sqlite")
    with BrokerServer(store_path=store_path) as server:
        server.start()
        store = HttpStore(server.url)
        yield store
        store.close()


class TestStoreRoundTripFidelity:
    """A result served from the store must equal the freshly computed one.

    Runs against a sqlite store and — the full network path: JSON
    over the wire, sqlite persistence on the broker, identity-verified
    read back — against an ``HttpStore``.
    """

    @_SETTINGS
    @given(data=st.data())
    def test_deterministic_results_survive_the_store(self, sqlite_store, data):
        self._assert_round_trip(
            sqlite_store, "deterministic", _DETERMINISTIC_CELLS,
            Problem.CDPF, data,
        )

    @_SETTINGS
    @given(data=st.data())
    def test_probabilistic_results_survive_the_store(self, sqlite_store, data):
        self._assert_round_trip(
            sqlite_store, "probabilistic", _PROBABILISTIC_CELLS,
            Problem.CEDPF, data,
        )

    @_SETTINGS
    @given(data=st.data())
    def test_deterministic_results_survive_the_http_store(
        self, broker_store, data
    ):
        self._assert_round_trip(
            broker_store, "deterministic", _DETERMINISTIC_CELLS,
            Problem.CDPF, data,
        )

    @_SETTINGS
    @given(data=st.data())
    def test_probabilistic_results_survive_the_http_store(
        self, broker_store, data
    ):
        self._assert_round_trip(
            broker_store, "probabilistic", _PROBABILISTIC_CELLS,
            Problem.CEDPF, data,
        )

    @staticmethod
    def _assert_round_trip(store, setting, cells, problem, data):
        model = _workload_model(setting, cells, data)
        fingerprint = model_fingerprint(model)
        request = AnalysisRequest(problem)
        live = run_request(model, request)
        store.put(fingerprint, request, live)
        loaded = store.get(fingerprint, request)
        assert loaded is not None
        assert loaded.to_dict() == live.to_dict()
        _assert_fronts_equal(live, loaded, "store round-trip")
