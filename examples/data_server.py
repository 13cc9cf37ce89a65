"""Case study: attacks on a data server behind a firewall (DAG-like AT).

Reproduces the Section X.B analysis of the paper (Figures 5 and 6c).  The
attack tree is DAG-like — the "internet connection to the FTP server" step
is shared by three different exploits — so the paper's bottom-up method
does not apply directly.  The engine answers it with the ``bottom-up``
backend, which carries the shared step as a label up to its immediate
dominator (frontier width 1); the paper's bi-objective integer linear
programming translation (Theorem 6) is the ``bilp`` backend.

Run it with::

    python examples/data_server.py
"""

from repro import AnalysisSession, catalog
from repro.core import analysis
from repro.experiments.casestudies import PAPER_FIG6C_FRONT


def main() -> None:
    model = catalog.data_server()
    session = AnalysisSession(model)

    print("=" * 72)
    print("Data server on a network behind a firewall (Fig. 5 of the paper)")
    print("=" * 72)
    print(analysis.describe(session))
    shared = ", ".join(sorted(model.tree.shared_nodes()))
    print(f"shared nodes (what makes this a DAG): {shared}")
    print()

    # ------------------------------------------------------------------ #
    # Fig. 6c — Pareto front
    # ------------------------------------------------------------------ #
    front = session.pareto_front().front
    print("Cost-damage Pareto front (Fig. 6c), cost in seconds of attacker time:")
    print(front.table())
    print()
    print(f"published points: {PAPER_FIG6C_FRONT}")
    print()

    # The paper's observation: every Pareto-optimal attack contains the
    # previous one, so defences can be prioritised along a single chain.
    nonzero = [p for p in front if p.cost > 0]
    nested = all(a.attack <= b.attack for a, b in zip(nonzero, nonzero[1:]))
    print(f"every optimal attack contains the previous one: {nested}")
    report = analysis.critical_basic_attack_steps(session)
    critical = ", ".join(
        f"{name} ({model.tree.node(name).label})"
        for name in sorted(report.in_every_optimal_attack)
    )
    print(f"BASs in every optimal attack (defend these first): {critical}")
    print()

    # Only the cheapest optimal attack fails to reach the top node — but it
    # still causes damage 24 on the FTP server, which a minimal-attack
    # analysis (successful attacks only) would have missed entirely.
    cheapest = nonzero[0]
    print(f"cheapest optimal attack {sorted(cheapest.attack)}: damage "
          f"{cheapest.damage:g} without reaching the data server "
          f"(reaches top: {cheapest.reaches_root})")
    print()

    # ------------------------------------------------------------------ #
    # Budget / threshold queries (DgC and CgD)
    # ------------------------------------------------------------------ #
    for budget in [250, 600, 1000, 1300]:
        result = session.max_damage(budget)
        print(f"DgC: within {budget:>5} s the attacker can do damage {result.value:g}")
    threshold = 60
    result = session.min_cost(threshold)
    print(f"CgD: damage ≥ {threshold} requires at least {result.value:g} s "
          f"(attack {sorted(result.witness)})")


if __name__ == "__main__":
    main()
