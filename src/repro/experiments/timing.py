"""Timing experiments: Table III of the paper.

Table III measures the wall-clock time of computing the (cost-)damage
Pareto fronts of the two case-study ATs with the bottom-up method, the BILP
method and the enumerative baseline — once for the "true" decorations and
once averaged over random decorations.

The enumerative baseline on the full panda AT takes hours (the paper reports
34 h / 49 h); :func:`run_table3` therefore takes an ``include_enumerative``
flag plus an ``enumerative_bas_limit`` so that quick runs (tests, CI,
benchmarks) can skip or bound it, while a full reproduction can switch it
on.  Absolute timings on this container differ from the paper's i7 machine;
the reproduced claim is the *ordering and orders of magnitude*:
bottom-up ≪ BILP ≪ enumerative.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..attacktree import catalog
from ..attacktree.attributes import CostDamageAT, CostDamageProbAT
from ..attacktree.random_gen import random_decoration
from ..bench.measure import TimingSample, measure
from ..core.problems import Problem
from ..engine import AnalysisRequest, run_request
from .report import format_timing_rows

__all__ = ["Table3Row", "run_table3", "render_table3"]


@dataclass
class Table3Row:
    """One row of Table III: a case and its per-method timings."""

    label: str
    timings: Dict[str, Optional[TimingSample]] = field(default_factory=dict)

    def seconds(self) -> Dict[str, Optional[float]]:
        """Flatten to method → mean seconds (None when not applicable)."""
        return {
            method: (sample.mean_seconds if sample is not None else None)
            for method, sample in self.timings.items()
        }


def _measure_backend(
    model, problem: Problem, backend: str, repeats: int = 1
) -> TimingSample:
    """Time one engine request end-to-end (resolution included).

    All Table III timings now flow through the same
    :func:`repro.engine.run_request` path the benchmark harness uses, so
    experiment numbers and ``BENCH_*.json`` numbers are directly
    comparable.
    """
    request = AnalysisRequest(problem, backend=backend)
    return measure(lambda: run_request(model, request), repeats)


def _random_variants_panda(count: int, seed: int) -> List[CostDamageProbAT]:
    """Random c/d/p re-decorations of the panda AT (Section X.C)."""
    rng = random.Random(seed)
    base = catalog.panda_iot()
    variants = []
    for _ in range(count):
        cost, damage, probability = random_decoration(base.tree, rng)
        variants.append(CostDamageProbAT(base.tree, cost, damage, probability))
    return variants


def _random_variants_data_server(count: int, seed: int) -> List[CostDamageAT]:
    """Random c/d re-decorations of the data-server AT."""
    rng = random.Random(seed)
    base = catalog.data_server()
    variants = []
    for _ in range(count):
        cost, damage, _ = random_decoration(base.tree, rng)
        variants.append(CostDamageAT(base.tree, cost, damage))
    return variants


def run_table3(
    random_decorations: int = 5,
    include_enumerative: bool = False,
    enumerative_bas_limit: int = 14,
    seed: int = 42,
) -> List[Table3Row]:
    """Reproduce Table III (optionally scaled down).

    Parameters
    ----------
    random_decorations:
        Number of random c/d/p decorations to average over (the paper uses
        100; the default keeps quick runs quick).
    include_enumerative:
        Also time the enumerative baseline.  For the panda AT (22 BASs) a
        single enumerative run visits 4·10⁶ attacks and, in the
        probabilistic case, is far slower still; it is only attempted when
        the AT has at most ``enumerative_bas_limit`` BASs, otherwise the
        entry is reported as ``None`` (printed "n/a"), mirroring how the
        paper skips entries it could not run.
    enumerative_bas_limit:
        Upper bound on ``|B|`` for enumerative timing runs.
    seed:
        Seed for the random decorations.
    """
    rows: List[Table3Row] = []
    panda = catalog.panda_iot()
    panda_det = panda.deterministic()
    data_server = catalog.data_server()

    def enumerative_allowed(model) -> bool:
        return include_enumerative and len(model.tree.basic_attack_steps) <= enumerative_bas_limit

    # --- Fig. 4 (panda), deterministic, true values -------------------------- #
    row = Table3Row(label="Fig.4 deterministic (true c,d)")
    row.timings["bottom-up"] = _measure_backend(panda_det, Problem.CDPF, "bottom-up")
    row.timings["bilp"] = _measure_backend(panda_det, Problem.CDPF, "bilp")
    row.timings["enumerative"] = (
        _measure_backend(panda_det, Problem.CDPF, "enumerative")
        if enumerative_allowed(panda_det)
        else None
    )
    rows.append(row)

    # --- Fig. 4 (panda), probabilistic, true values --------------------------- #
    row = Table3Row(label="Fig.4 probabilistic (true c,d,p)")
    row.timings["bottom-up"] = _measure_backend(panda, Problem.CEDPF, "bottom-up")
    row.timings["bilp"] = None  # no BILP method in the probabilistic setting
    row.timings["enumerative"] = (
        _measure_backend(panda, Problem.CEDPF, "enumerative")
        if enumerative_allowed(panda)
        else None
    )
    rows.append(row)

    # --- Fig. 5 (data server), deterministic, true values --------------------- #
    row = Table3Row(label="Fig.5 deterministic (true c,d)")
    row.timings["bottom-up"] = None  # DAG-like: bottom-up does not apply
    row.timings["bilp"] = _measure_backend(data_server, Problem.CDPF, "bilp")
    row.timings["enumerative"] = (
        _measure_backend(data_server, Problem.CDPF, "enumerative")
        if enumerative_allowed(data_server)
        else None
    )
    rows.append(row)

    if random_decorations > 0:
        # --- random decorations, averaged ------------------------------------- #
        panda_variants = _random_variants_panda(random_decorations, seed)
        server_variants = _random_variants_data_server(random_decorations, seed + 1)

        det_durations = [
            _measure_backend(m.deterministic(), Problem.CDPF, "bottom-up").mean_seconds
            for m in panda_variants
        ]
        bilp_durations = [
            _measure_backend(m.deterministic(), Problem.CDPF, "bilp").mean_seconds
            for m in panda_variants
        ]
        row = Table3Row(label=f"Fig.4 deterministic (random c,d ×{random_decorations})")
        row.timings["bottom-up"] = TimingSample.from_durations(det_durations)
        row.timings["bilp"] = TimingSample.from_durations(bilp_durations)
        row.timings["enumerative"] = None
        rows.append(row)

        prob_durations = [
            _measure_backend(m, Problem.CEDPF, "bottom-up").mean_seconds
            for m in panda_variants
        ]
        row = Table3Row(label=f"Fig.4 probabilistic (random c,d,p ×{random_decorations})")
        row.timings["bottom-up"] = TimingSample.from_durations(prob_durations)
        row.timings["bilp"] = None
        row.timings["enumerative"] = None
        rows.append(row)

        server_durations = [
            _measure_backend(m, Problem.CDPF, "bilp").mean_seconds
            for m in server_variants
        ]
        server_enum = (
            [
                _measure_backend(m, Problem.CDPF, "enumerative").mean_seconds
                for m in server_variants
            ]
            if include_enumerative
            and len(data_server.tree.basic_attack_steps) <= enumerative_bas_limit
            else None
        )
        row = Table3Row(label=f"Fig.5 deterministic (random c,d ×{random_decorations})")
        row.timings["bottom-up"] = None
        row.timings["bilp"] = TimingSample.from_durations(server_durations)
        row.timings["enumerative"] = (
            TimingSample.from_durations(server_enum) if server_enum else None
        )
        rows.append(row)

    return rows


def render_table3(rows: List[Table3Row]) -> str:
    """Render Table III rows as aligned text."""
    return format_timing_rows(
        {row.label: row.seconds() for row in rows},
        title="Table III — C(E)DPF computation time (seconds)",
    )
