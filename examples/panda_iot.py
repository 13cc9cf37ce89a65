"""Case study: location-privacy attacks on a giant-panda IoT sensor network.

Reproduces the Section X.A analysis of the paper (Figures 4, 6a and 6b):

1. load the 22-BAS treelike attack tree of the wildlife-monitoring network;
2. compute the deterministic cost-damage Pareto front bottom-up (Theorem 4)
   and compare it against the published Fig. 6a points;
3. compute the cost-expected-damage front (Theorem 9) and compare its prefix
   against Fig. 6b;
4. derive the defence priorities the paper draws from the fronts: internal
   information leakage (b18) and base-station compromise (b19/b20, b21/b22)
   are the attacks to defend against first.

Run it with::

    python examples/panda_iot.py
"""

from repro import AnalysisSession, catalog
from repro.core import analysis
from repro.experiments.casestudies import (
    PAPER_FIG6A_FRONT,
    PAPER_FIG6B_PREFIX,
)


def main() -> None:
    model = catalog.panda_iot()
    session = AnalysisSession(model)

    print("=" * 72)
    print("Giant-panda IoT sensor network (Fig. 4 of the paper)")
    print("=" * 72)
    print(analysis.describe(session))
    print()
    print(model.tree.pretty())
    print()

    # ------------------------------------------------------------------ #
    # Fig. 6a — deterministic front
    # ------------------------------------------------------------------ #
    deterministic_front = session.pareto_front().front
    print("Deterministic cost-damage Pareto front (Fig. 6a):")
    print(deterministic_front.table())
    print()
    print(f"published points: {PAPER_FIG6A_FRONT}")
    reproduced = deterministic_front.values() == [
        (float(c), float(d)) for c, d in PAPER_FIG6A_FRONT
    ]
    print(f"reproduces the published front exactly: {reproduced}")
    print()

    # ------------------------------------------------------------------ #
    # Fig. 6b — probabilistic front
    # ------------------------------------------------------------------ #
    probabilistic_front = session.expected_pareto_front().front
    print(f"Cost-expected-damage Pareto front has {len(probabilistic_front)} points "
          f"(the paper reports 31); first five published points: {PAPER_FIG6B_PREFIX}")
    for cost, damage in probabilistic_front.values()[:8]:
        print(f"  cost {cost:5.1f}  expected damage {damage:6.2f}")
    print()

    # ------------------------------------------------------------------ #
    # Defence priorities (the paper's reading of the fronts)
    # ------------------------------------------------------------------ #
    deterministic_report = analysis.critical_basic_attack_steps(session)
    probabilistic_report = analysis.critical_basic_attack_steps(
        session, probabilistic=True
    )

    def describe(bas_names):
        return ", ".join(
            f"{name} ({model.tree.node(name).label})" for name in sorted(bas_names)
        ) or "(none)"

    print("BASs appearing in some deterministic Pareto-optimal attack:")
    print("  " + describe(deterministic_report.in_some_optimal_attack))
    print("BASs appearing in every probabilistic Pareto-optimal attack:")
    print("  " + describe(probabilistic_report.in_every_optimal_attack))
    print()
    print("Reading (Section X.A of the paper): security improvements should")
    print("focus on internal information leakage (b18) and base-station")
    print("compromise by physical theft (b19, b20) or code theft (b21, b22);")
    print("in the probabilistic setting internal leakage is part of *every*")
    print("optimal attack and is therefore the single most important defence.")

    # ------------------------------------------------------------------ #
    # What-if: damage achievable per budget
    # ------------------------------------------------------------------ #
    print()
    print("Worst-case damage per attacker budget (Equation (1)):")
    for point in analysis.damage_budget_curve(session, [0, 3, 5, 10, 20, 30, 60]):
        if not point.reachable:
            print(f"  budget {point.budget:5.0f}  ->  no attack affordable")
            continue
        print(f"  budget {point.budget:5.0f}  ->  damage {point.damage:6.1f} million USD")


if __name__ == "__main__":
    main()
