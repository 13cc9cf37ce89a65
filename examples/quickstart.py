"""Quickstart: model an attack tree and query it through the analysis engine.

This example rebuilds the paper's running example (Fig. 1) — a factory whose
production can be shut down by a cyberattack or by physically destroying the
production robot — and walks through the library's main entry points:

* building a decorated attack tree with :class:`AttackTreeBuilder`;
* opening an :class:`AnalysisSession` and running typed
  :class:`AnalysisRequest` objects against it — the engine's registry picks
  the right algorithm per Table I of the paper, results carry the resolved
  backend, wall time and cache status;
* executing a *batch* of requests in one call;
* round-tripping requests and results through JSON (the service wire
  format);
* the probabilistic setting (expected damage).

Run it with::

    python examples/quickstart.py

To *benchmark* workloads instead of analyzing one model, see
``atcd bench run --profile smoke`` and ``benchmarks/DESIGN.md`` — the
declarative workload generator (:mod:`repro.workloads`) and the harness
(:mod:`repro.bench`) time whole scenario families through the same engine
used here.
"""

from repro import (
    AnalysisRequest,
    AnalysisResult,
    AnalysisSession,
    AttackTreeBuilder,
    Problem,
)


def build_factory_model():
    """The cd-AT of Fig. 1: damages in 1000 USD, costs unitless."""
    builder = AttackTreeBuilder()
    builder.bas("ca", cost=1, label="cyberattack")
    builder.bas("pb", cost=3, label="place bomb")
    builder.bas("fd", cost=2, damage=10, label="force door")
    builder.and_gate("dr", ["pb", "fd"], damage=100, label="destroy robot")
    builder.or_gate("ps", ["ca", "dr"], damage=200, label="production shutdown")
    return builder.build_cd(root="ps")


def engine_analysis():
    model = build_factory_model()
    session = AnalysisSession(model)

    print("=" * 72)
    print("Engine analysis (cd-AT through AnalysisSession)")
    print("=" * 72)

    # One request: the engine resolves the backend (bottom-up, Table I).
    result = session.run(AnalysisRequest(Problem.CDPF))
    print("Cost-damage Pareto front (Fig. 3 of the paper):")
    print(result.front.table())
    print(f"-> {result.summary()}")
    print()

    # Re-running an identical request is served from the session cache.
    again = session.run(AnalysisRequest(Problem.CDPF))
    print(f"repeat request cached: {again.cache_hit}")
    print()

    # A batch of single-objective questions in one call; pass
    # executor="process" to fan a large batch out over a process pool.
    batch = session.run_batch(
        [
            AnalysisRequest(Problem.DGC, budget=2),
            AnalysisRequest(Problem.CGD, threshold=300),
            AnalysisRequest(Problem.CDPF, backend="enumerative"),
        ]
    )
    dgc, cgd, check = batch
    print(f"DgC: with a budget of 2 the worst-case damage is {dgc.value:g} "
          f"(attack {sorted(dgc.witness)})")
    print(f"CgD: doing at least 300 damage costs the attacker {cgd.value:g} "
          f"(attack {sorted(cgd.witness)})")
    print(f"cross-check via {check.backend}: fronts agree = "
          f"{check.front.values() == result.front.values()}")
    print()

    # Requests and results round-trip through JSON — the wire format for
    # service-style deployments (see also: atcd batch).
    wire = AnalysisRequest(Problem.DGC, budget=2).to_json()
    print(f"request on the wire:  {wire}")
    reply = session.run(AnalysisRequest.from_json(wire))
    restored = AnalysisResult.from_json(reply.to_json())
    print(f"result off the wire:  value={restored.value:g}, "
          f"backend={restored.backend}, cached={restored.cache_hit}")
    print()


def probabilistic_analysis():
    model = build_factory_model().with_probabilities(
        {"ca": 0.2, "pb": 0.4, "fd": 0.9}
    )
    session = AnalysisSession(model)

    print("=" * 72)
    print("Probabilistic analysis (cdp-AT, Example 8 of the paper)")
    print("=" * 72)
    front = session.run(AnalysisRequest(Problem.CEDPF)).front
    print("Cost-expected-damage Pareto front:")
    print(front.table())
    print()

    result = session.run(AnalysisRequest(Problem.EDGC, budget=5))
    print(f"EDgC: with a budget of 5 the expected damage is "
          f"{result.value:g} (attack {sorted(result.witness)})")
    print()

    print("Note how the probabilistic front differs from the deterministic")
    print("one: attempts that would be redundant when every step surely")
    print("succeeds become worthwhile when they merely raise the probability")
    print("of reaching a damaging node (Example 10 of the paper).")
    print()


if __name__ == "__main__":
    engine_analysis()
    probabilistic_analysis()
