"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload dag-front|broker-batch \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with nothing attached to the program; ``--trace 1`` records spans
and reports the per-layer metrics instead.  Human-readable report lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  See
``perfbench/README.md`` for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import sys
from typing import Any, Dict, List

import fronts
import services
from layers import PER_LAYER, kernel_layers, layer_table, service_layers
from measure import percentile
from tracing import Tracer, window

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space of a run (state files, logs, spans), inside the checkout.
RUNS = os.path.join(ROOT, ".perfbench_runs")

WORKLOADS = ("dag-front", "broker-batch")

#: (name, unit) of every end-to-end metric.
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
    ("ok_rate", "ratio"),
)


def end_to_end(outcome: Dict[str, Any]) -> Dict[str, float]:
    latencies_ms = [value * 1e3 for value in outcome["latencies_s"]]
    ops = len(latencies_ms)
    metrics = {
        "ops_per_s": ops / outcome["window_s"],
        "latency_p50_ms": percentile(latencies_ms, 50),
        "latency_p90_ms": percentile(latencies_ms, 90),
        "cpu_ms_per_op": outcome["cpu_s"] * 1e3 / ops,
        "peak_rss_mb": outcome["peak_rss_mb"],
        "ok_rate": (ops - outcome["failed"]) / ops,
    }
    if outcome.get("setups_s"):
        metrics["setup_s"] = statistics.median(outcome["setups_s"])
    return metrics


def run_front(args: argparse.Namespace, env: Dict[str, str]):
    tracer = Tracer() if args.trace else None
    setups = [] if args.trace else fronts.measure_setup(env)
    outcome = fronts.run(args.workload, args.seed, args.seconds, tracer)
    outcome["setups_s"] = setups
    cases = outcome["cases"]
    record = {
        "seed": args.seed,
        "passes": outcome["passes"],
        "cases": [
            {"id": case.case_id, "backend": outcome["backends"].get(case.case_id),
             "bas": case.bas_count,
             "median_ms": round(outcome["case_median_ms"].get(case.case_id, 0.0), 3),
             "k": case.shared_bas}
            for case in cases
        ],
    }
    lines: List[str] = []
    layers: Dict[str, float] = {}
    if tracer is not None:
        ops = len(outcome["latencies_s"])
        spans = window(tracer.spans, *outcome["window_ns"])
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(kernel_layers([spans], ops))
        lines = ["per-layer time per op (in-process):"] + layer_table([spans], ops)
    return outcome, record, layers, lines


def run_service(args: argparse.Namespace, env: Dict[str, str], run_dir: str):
    outcome = services.run(args.seed, bool(args.trace), run_dir, env)
    ops = outcome["ops"]
    submits = sorted((op.submit_end - op.submit_start) / 1e6 for op in ops)
    record = {
        "seed": args.seed,
        "jobs": len({op.job_id for op in ops}),
        "requests": len(ops),
    }
    lines = [f"service.http_submit_ms median {statistics.median(submits):.3f}"]
    layers: Dict[str, float] = {}
    if args.trace:
        start, end = outcome["window_ns"]
        api = [window(spans, start, end) for spans in outcome["spans"]["api"]]
        workers = [window(spans, start, end) for spans in outcome["spans"]["worker"]]
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(kernel_layers(workers, len(ops)))
        service_metrics, stages = service_layers(api, workers, ops)
        layers.update(service_metrics)
        lines += ["per-layer time per op (API process):"] + layer_table(api, len(ops))
        lines += ["per-layer time per op (workers):"] + layer_table(workers, len(ops))
        lines += stage_lines(stages, outcome)
    return outcome, record, layers, lines


def stage_lines(stages: Dict[str, List[float]], outcome: Dict[str, Any]) -> List[str]:
    """Stage medians beside the traced latency p50, and what they leave out."""
    p50 = statistics.median(outcome["latencies_s"]) * 1e3
    lines = [f"stage medians beside traced latency_p50_ms {p50:.1f}:"]
    explained = 0.0
    for name, samples in stages.items():
        value = statistics.median(samples) if samples else 0.0
        explained += value
        lines.append(f"  {name:<14} {value:9.1f} ms")
    lines.append(
        f"  {'unexplained':<14} {p50 - explained:9.1f} ms (claim to execute, "
        "the complete call, and medians not adding up)"
    )
    return lines


def overhead_lines(workload: str, traced: Dict[str, float]) -> List[str]:
    """Traced minus untraced end-to-end metrics, against the last untraced
    run of this workload in this checkout."""
    path = os.path.join(RUNS, f"untraced-{workload}.json")
    if not os.path.exists(path):
        return ["tracing overhead: no untraced run of this workload yet"]
    with open(path, encoding="utf-8") as handle:
        untraced = json.load(handle)
    lines = [f"tracing overhead (traced - untraced seed {untraced['seed']}):"]
    for name, unit in END_TO_END:
        if name in traced and name in untraced["metrics"]:
            delta = traced[name] - untraced["metrics"][name]
            lines.append(f"  {name:<16} {delta:+12.3f} {unit}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    # SIGTERM unwinds like an error, so every launched process is stopped
    # and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    run_dir = os.path.join(RUNS, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    try:
        if args.workload == "dag-front":
            outcome, record, layers, lines = run_front(args, env)
        else:
            outcome, record, layers, lines = run_service(args, env, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = end_to_end(outcome)
    print("inputs: " + json.dumps(record, sort_keys=True))
    for name, unit in END_TO_END:
        if name in metrics:
            print(f"{'traced ' if args.trace else ''}{name:<16} {metrics[name]:14.4f} {unit}")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name:<28} {layers[name]:14.4f} {unit}")
        lines += overhead_lines(args.workload, metrics)
    else:
        with open(os.path.join(RUNS, f"untraced-{args.workload}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"seed": args.seed, "metrics": metrics}, handle)
    for line in lines:
        print(line)
    units = dict(PER_LAYER) if args.trace else dict(END_TO_END)
    values = layers if args.trace else metrics
    attempted = len(outcome["latencies_s"])
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": attempted,
        "failed": outcome["failed"],
        "metrics": {
            name: {"value": values[name], "unit": unit} for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
