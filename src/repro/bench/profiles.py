"""Named benchmark profiles: curated scenario-spec bundles.

A profile is just a list of :class:`~repro.workloads.spec.ScenarioSpec`
values under a stable name, so ``atcd bench run --profile smoke`` means the
same workload on every machine and every PR:

``smoke``
    The CI gate: five families across both shapes and both settings, sized
    to finish in well under two minutes sequentially.
``full``
    The trajectory profile: the same coverage at paper-like sizes (random
    sweeps to 60 nodes, five cases per size) for real scaling curves.
``scale``
    Scaled-up stress variants only — deep chains, wide fans and shared-BAS
    pools pushed to the sizes where the hot paths dominate.
"""

from __future__ import annotations

from typing import Dict, List

from ..workloads import ScenarioSpec

__all__ = ["PROFILES", "profile", "profile_names", "describe_profiles"]


def _smoke() -> List[ScenarioSpec]:
    return [
        # The paper's case studies: every supported cell.
        ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
        ScenarioSpec(family="catalog", shape="treelike", setting="probabilistic"),
        ScenarioSpec(family="catalog", shape="dag", setting="deterministic"),
        # Random suites (Section X.D) in all four cells; the probabilistic
        # DAG cell runs the enumerative open-problem fallback, so it stays
        # small.
        ScenarioSpec(family="random", shape="treelike", setting="deterministic",
                     sizes=(10, 20, 30), cases_per_size=2),
        ScenarioSpec(family="random", shape="treelike", setting="probabilistic",
                     sizes=(10, 20), cases_per_size=2),
        ScenarioSpec(family="random", shape="dag", setting="deterministic",
                     sizes=(10, 20), cases_per_size=2),
        ScenarioSpec(family="random", shape="dag", setting="probabilistic",
                     sizes=(6,), cases_per_size=2),
        # Structural stress shapes.
        ScenarioSpec(family="deep-chain", shape="treelike", setting="deterministic",
                     sizes=(20,)),
        ScenarioSpec(family="deep-chain", shape="treelike", setting="probabilistic",
                     sizes=(15,)),
        ScenarioSpec(family="deep-chain", shape="dag", setting="deterministic",
                     sizes=(15,)),
        ScenarioSpec(family="deep-chain", shape="dag", setting="probabilistic",
                     sizes=(6,)),
        ScenarioSpec(family="wide-fan", shape="treelike", setting="deterministic",
                     sizes=(14,)),
        ScenarioSpec(family="wide-fan", shape="treelike", setting="probabilistic",
                     sizes=(10,)),
        ScenarioSpec(family="wide-fan", shape="dag", setting="deterministic",
                     sizes=(14,)),
        ScenarioSpec(family="shared-bas", shape="dag", setting="deterministic",
                     sizes=(12,)),
        ScenarioSpec(family="shared-bas", shape="dag", setting="probabilistic",
                     sizes=(8,)),
    ]


def _full() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(family="catalog", shape="treelike", setting="deterministic"),
        ScenarioSpec(family="catalog", shape="treelike", setting="probabilistic"),
        ScenarioSpec(family="catalog", shape="dag", setting="deterministic"),
        ScenarioSpec(family="random", shape="treelike", setting="deterministic",
                     sizes=(10, 20, 30, 40, 50, 60), cases_per_size=5),
        ScenarioSpec(family="random", shape="treelike", setting="probabilistic",
                     sizes=(10, 20, 30, 40, 50, 60), cases_per_size=5),
        ScenarioSpec(family="random", shape="dag", setting="deterministic",
                     sizes=(10, 20, 30, 40), cases_per_size=5),
        ScenarioSpec(family="random", shape="dag", setting="probabilistic",
                     sizes=(6, 8), cases_per_size=3),
        ScenarioSpec(family="deep-chain", shape="treelike", setting="deterministic",
                     sizes=(25, 50, 100), cases_per_size=2),
        ScenarioSpec(family="deep-chain", shape="treelike", setting="probabilistic",
                     sizes=(25, 50), cases_per_size=2),
        ScenarioSpec(family="deep-chain", shape="dag", setting="deterministic",
                     sizes=(25, 50), cases_per_size=2),
        ScenarioSpec(family="deep-chain", shape="dag", setting="probabilistic",
                     sizes=(7,), cases_per_size=2),
        ScenarioSpec(family="wide-fan", shape="treelike", setting="deterministic",
                     sizes=(10, 15, 20), cases_per_size=2),
        ScenarioSpec(family="wide-fan", shape="treelike", setting="probabilistic",
                     sizes=(10, 14), cases_per_size=2),
        ScenarioSpec(family="wide-fan", shape="dag", setting="deterministic",
                     sizes=(10, 15, 20), cases_per_size=2),
        ScenarioSpec(family="shared-bas", shape="dag", setting="deterministic",
                     sizes=(10, 16, 22), cases_per_size=2),
        ScenarioSpec(family="shared-bas", shape="dag", setting="probabilistic",
                     sizes=(8, 10), cases_per_size=2),
    ]


def _scale() -> List[ScenarioSpec]:
    return [
        ScenarioSpec(family="deep-chain", shape="treelike", setting="deterministic",
                     sizes=(100, 200, 400)),
        ScenarioSpec(family="deep-chain", shape="treelike", setting="probabilistic",
                     sizes=(100, 200)),
        ScenarioSpec(family="wide-fan", shape="treelike", setting="deterministic",
                     sizes=(16, 20, 24)),
        ScenarioSpec(family="shared-bas", shape="dag", setting="deterministic",
                     sizes=(20, 30, 40)),
        # The overlap third stays open up to the root, so w = size // 3:
        # sizes on both sides of bottom-up's CDPF width cutoff (w = 11).
        ScenarioSpec(family="wide-fan", shape="dag", setting="deterministic",
                     sizes=(24, 33, 36, 39)),
        ScenarioSpec(family="random", shape="treelike", setting="deterministic",
                     sizes=(50, 100, 150), cases_per_size=3),
        ScenarioSpec(family="random", shape="dag", setting="deterministic",
                     sizes=(40, 60), cases_per_size=3),
    ]


PROFILES: Dict[str, List[ScenarioSpec]] = {}


def _register_profiles() -> None:
    PROFILES["smoke"] = _smoke()
    PROFILES["full"] = _full()
    PROFILES["scale"] = _scale()


_register_profiles()


def profile(name: str) -> List[ScenarioSpec]:
    """Look up a profile's specs by name (a fresh list each call)."""
    try:
        return list(PROFILES[name])
    except KeyError:
        known = ", ".join(profile_names()) or "(none)"
        raise ValueError(
            f"unknown bench profile {name!r}; available profiles: {known}"
        ) from None


def profile_names() -> List[str]:
    """The registered profile names, sorted."""
    return sorted(PROFILES)


def describe_profiles() -> str:
    """Multi-line overview of profiles (for ``atcd bench list``)."""
    lines = []
    for name in profile_names():
        specs = PROFILES[name]
        families = sorted({spec.family for spec in specs})
        cases = sum(
            (len(spec.sizes) * spec.cases_per_size) if spec.family != "catalog" else 2
            for spec in specs
        )
        lines.append(
            f"{name:<8} {len(specs)} specs, ~{cases} cases, "
            f"families: {', '.join(families)}"
        )
    return "\n".join(lines)
