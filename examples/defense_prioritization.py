"""Defence prioritisation workflow with uncertainty (robust extension).

A security team rarely knows exact costs and damages.  This example shows a
complete defender workflow on top of the library:

1. model a corporate-network attack tree with *interval-valued* costs and
   damages (the robust extension of the paper's future-work section);
2. compute the pessimistic and optimistic Pareto fronts and the band of
   worst-case damage per budget;
3. identify the attacks that are Pareto-optimal in every scenario
   ("robustly optimal") — these are the defences to fund first;
4. simulate a defence (hardening one BAS raises its cost) and re-run the
   analysis to check whether the risk actually dropped — the iterative loop
   the paper recommends at the end of Section X.A.

Run it with::

    python examples/defense_prioritization.py
"""

from repro import AnalysisSession, AttackTreeBuilder
from repro.attacktree.attributes import CostDamageAT
from repro.extensions.robust import IntervalCostDamageAT, robust_pareto_front


def build_corporate_tree():
    """A small corporate-exfiltration AT (inspired by the paper's case studies)."""
    builder = AttackTreeBuilder()
    builder.bas("phish", cost=2, label="spear-phishing an employee")
    builder.bas("exploit_vpn", cost=6, label="exploit VPN appliance")
    builder.bas("bribe", cost=8, label="bribe an insider")
    builder.bas("crack_db", cost=4, label="crack database credentials")
    builder.bas("exfil", cost=1, label="exfiltrate data")
    builder.bas("wipe_logs", cost=3, label="wipe audit logs")
    builder.or_gate("foothold", ["phish", "exploit_vpn", "bribe"], damage=5,
                    label="network foothold")
    builder.and_gate("db_access", ["foothold", "crack_db"], damage=20,
                     label="database access")
    builder.and_gate("data_theft", ["db_access", "exfil"], damage=60,
                     label="customer data stolen")
    builder.and_gate("covered_tracks", ["data_theft", "wipe_logs"], damage=15,
                     label="breach undetected")
    return builder.build_tree(root="covered_tracks")


def main() -> None:
    tree = build_corporate_tree()

    # Interval decorations: costs known to within a factor, damages estimated
    # as ranges by the risk team (in 10k EUR).
    interval_model = IntervalCostDamageAT(
        tree,
        cost={
            "phish": (1, 3), "exploit_vpn": (5, 8), "bribe": (6, 12),
            "crack_db": (3, 5), "exfil": (1, 1), "wipe_logs": (2, 4),
        },
        damage={
            "foothold": (3, 8), "db_access": (15, 25),
            "data_theft": (45, 80), "covered_tracks": (10, 20),
        },
    )

    print("=" * 72)
    print("Robust cost-damage analysis of the corporate-exfiltration AT")
    print("=" * 72)
    robust = robust_pareto_front(interval_model)
    print("Pessimistic front (attacker-favourable costs/damages):")
    print(robust.pessimistic.table())
    print()
    print("Optimistic front (defender-favourable costs/damages):")
    print(robust.optimistic.table())
    print()
    for budget in [5, 10, 15, 20]:
        low, high = robust.damage_band(budget)
        print(f"budget {budget:>3}: worst-case damage lies in [{low:5.1f}, {high:5.1f}]")
    print()
    robust_attacks = sorted(sorted(attack) for attack in robust.robust_attacks if attack)
    print(f"robustly Pareto-optimal attacks (optimal in every scenario): {robust_attacks}")
    print()

    # ------------------------------------------------------------------ #
    # Evaluate one defence: phishing training doubles the phishing cost.
    # ------------------------------------------------------------------ #
    nominal = interval_model.scenario(attacker_favourable=True)
    session_before = AnalysisSession(nominal)
    hardened = CostDamageAT(
        tree,
        cost={**dict(nominal.cost), "phish": nominal.cost["phish"] * 4},
        damage=dict(nominal.damage),
    )
    session_after = AnalysisSession(hardened)

    print("Effect of phishing training (phish cost ×4), attacker-favourable view:")
    for budget in [5, 10, 15]:
        before = session_before.max_damage(budget).value
        after = session_after.max_damage(budget).value
        print(f"  budget {budget:>3}: worst-case damage {before:5.1f} -> {after:5.1f}")
    print()
    print("The defence only helps for small attacker budgets — beyond the cost")
    print("of the VPN exploit the attacker simply switches entry vector, which")
    print("is exactly the kind of insight the cost-damage Pareto front is for.")


if __name__ == "__main__":
    main()
