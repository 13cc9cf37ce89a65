"""Where the traced run attaches its spans to the program.

Kernel and engine functions are patched where their callers look them
up (module attributes and class methods); queue, store and job-manager
objects are wrapped in :class:`tracing.Timed` proxies.  The attribute
functions record what the analysis later joins on: task ids, job ids,
store hits and published snapshot sizes.
"""

from __future__ import annotations

from typing import Any

from tracing import Timed, Tracer

def install_kernel_spans(tracer: Tracer) -> None:
    """Time decoding, backend resolution, the solvers and encoding."""
    from repro.attacktree import serialization
    from repro.core import bilp, bottom_up, bottom_up_prob
    from repro.engine.registry import BackendRegistry
    from repro.engine.requests import AnalysisRequest, AnalysisResult
    from repro.milp.highs import HighsSolver
    from repro.pareto import front

    tracer.patch(serialization, "from_dict", "attacktree.decode")
    tracer.patch(AnalysisRequest, "from_dict", "engine.request_decode")
    tracer.patch(BackendRegistry, "resolve", "engine.resolve")
    tracer.patch(
        AnalysisResult, "to_dict", "engine.encode",
        lambda result, args, kwargs: {"points": len(result.get("front", ()))},
    )
    tracer.patch(HighsSolver, "solve", "milp.highs")
    tracer.patch(bilp, "pareto_front_bilp", "core.bilp")
    # The bottom-up entry points: the tree fronts, and the DgC/CgD solvers
    # the broker-batch requests run on their tree.
    for name in (
        "pareto_front_treelike",
        "max_damage_given_cost_treelike",
        "min_cost_given_damage_treelike",
    ):
        tracer.patch(bottom_up, name, "core.bottom_up")
    tracer.patch(
        bottom_up_prob, "pareto_front_treelike_probabilistic", "core.bottom_up"
    )
    for module, names in (
        (front, ("pareto_minimal_pairs",)),
        (bottom_up, ("pareto_minimal_pairs", "pareto_minimal_triples")),
        (bottom_up_prob, ("pareto_minimal_triples",)),
    ):
        for name in names:
            tracer.patch(module, name, "pareto.minimize")


def _published_bytes(result: Any, args: tuple, kwargs: dict) -> Any:
    from repro.obs.scrape import WORKER_METRICS_META_PREFIX

    key, value = args[0], args[1]
    return {"bytes": len(value)} if key.startswith(WORKER_METRICS_META_PREFIX) else None


def execute_attrs(result: Any, args: tuple, kwargs: dict) -> Any:
    """Job id and request index of an executed service task."""
    job = args[0].get("job") or {}
    return {"job_id": job.get("id"), "index": job.get("index")}


def timed_queue(queue: Any, tracer: Tracer) -> Timed:
    return Timed(queue, tracer, "queue", {
        "submit": lambda result, args, kwargs: {"task_ids": list(result)},
        "claim": lambda result, args, kwargs: {
            "task_id": None if result is None else result.task_id
        },
        "complete": lambda result, args, kwargs: {
            "task_id": args[0], "ok": bool(result)
        },
        "set_meta": _published_bytes,
    })


def timed_store(store: Any, tracer: Tracer) -> Timed:
    return Timed(store, tracer, "store", {
        "get": lambda result, args, kwargs: {"hit": result is not None},
    })


def timed_jobs(jobs: Any, tracer: Tracer) -> Timed:
    return Timed(jobs, tracer, "jobs", {
        "submit": lambda result, args, kwargs: {"job_id": result["job_id"]},
    })
