"""The fixed case list of the front workload, ``dag-front``.

Every model comes from the program's public workload families
(:mod:`repro.workloads`), regenerated from the ``(family, shape, setting,
size, seed)`` rows below, so the program receives only generated models.
The rows are pinned rather than drawn from the run's ``--seed``: the
expected fronts in ``expected/`` were computed once, by a second exact
backend, for exactly these models, and a run's cost must not depend on
which random DAGs a seed happens to produce.  The run's seed fixes the
order in which each pass visits the cases.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))

#: (family, shape, setting, size, seed) rows of each front workload.
#:
#: Five cases, so with whole passes the p50 and p90 ranks fall in the
#: middle of one case's group of samples, never on the boundary between
#: two cases; the cases at those ranks (shared-bas n10 and random n10) are
#: well apart from their neighbours.
FRONT_CASES: Dict[str, Tuple[Tuple[str, str, str, int, int], ...]] = {
    "dag-front": (
        ("shared-bas", "dag", "deterministic", 6, 2),
        ("wide-fan", "dag", "deterministic", 8, 2),
        ("shared-bas", "dag", "deterministic", 10, 2),
        ("deep-chain", "dag", "deterministic", 8, 1),
        ("random", "dag", "deterministic", 10, 2),
    ),
}


@dataclass(frozen=True)
class FrontCase:
    """One generated model with the request the workload sends for it."""

    case_id: str
    model: Dict[str, Any]
    request: Dict[str, Any]
    bas_count: int
    shared_bas: int


def shared_bas_count(model: Any) -> int:
    """k: the number of BASs with more than one parent."""
    tree = model.tree
    return sum(1 for bas in tree.basic_attack_steps if len(tree.parents(bas)) > 1)


def build_cases(workload: str) -> List[FrontCase]:
    """Generate the workload's models, serialized as the program's wire
    format, in table order."""
    from repro.attacktree import serialization
    from repro.workloads import ScenarioSpec, expand

    cases = []
    for family, shape, setting, size, seed in FRONT_CASES[workload]:
        spec = ScenarioSpec(
            family=family, shape=shape, setting=setting, sizes=(size,), seed=seed
        )
        (case,) = expand(spec)
        cases.append(FrontCase(
            case_id=case.case_id,
            model=serialization.to_dict(case.model),
            request={"problem": spec.default_problem()},
            bas_count=case.bas_count,
            shared_bas=shared_bas_count(case.model),
        ))
    return cases


def pass_order(count: int, seed: int, pass_index: int) -> List[int]:
    """The seeded visiting order of one pass over ``count`` cases."""
    order = list(range(count))
    random.Random(f"{seed}:{pass_index}").shuffle(order)
    return order


def expected_path(workload: str) -> str:
    return os.path.join(HERE, "expected", f"{workload}.json")


def load_expected(workload: str) -> Dict[str, List[List[float]]]:
    """Committed front values, ``case_id -> [[cost, damage], ...]``."""
    with open(expected_path(workload), encoding="utf-8") as handle:
        return json.load(handle)["fronts"]


def front_values(result: Dict[str, Any]) -> List[List[float]]:
    """The ``[cost, damage]`` pairs of a serialized result's front."""
    return [[point["cost"], point["damage"]] for point in result["front"]]


def fronts_match(got: List[List[float]], want: List[List[float]]) -> bool:
    """Equal point counts and every coordinate within 1e-9."""
    return len(got) == len(want) and all(
        abs(a - b) <= 1e-9 for p, q in zip(got, want) for a, b in zip(p, q)
    )
