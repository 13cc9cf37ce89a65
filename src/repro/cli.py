"""Command-line interface for cost-damage analysis of attack trees.

Installed as the ``atcd`` console script.  Sub-commands:

``atcd analyze MODEL.json``
    Print the model summary, the Pareto front and the critical-BAS report.
``atcd pareto MODEL.json [--probabilistic] [--backend NAME]``
    Print only the Pareto front (CDPF or CEDPF).
``atcd dgc MODEL.json --budget U`` / ``atcd cgd MODEL.json --threshold L``
    Solve the single-objective problems.
``atcd batch MODEL.json REQUESTS.json [--parallel] [--out FILE] [--store DB]``
    Execute a JSON list of analysis requests through one
    :class:`~repro.engine.AnalysisSession` and emit the results as JSON —
    the service-style entry point of the engine.  ``--parallel`` runs the
    batch on a process pool; with ``--store`` the session reads through
    and writes back to a shared sqlite result store.
``atcd backends``
    List the registered solver backends and their capabilities.
``atcd store stats|prune DB``
    Inspect or empty a shared result store (see :mod:`repro.engine.store`);
    ``prune --ttl SECONDS`` / ``--max-bytes N`` evict oldest-first instead
    of emptying, for long-lived deployments.
``atcd bench run [--profile NAME] [--out FILE] [--executor ...] [--store DB]``
    Execute a benchmark profile through the engine, sequentially or on a
    process pool, and write a versioned ``BENCH_*.json`` artifact (see
    ``benchmarks/DESIGN.md``).  With ``--store`` repeated runs serve
    unchanged cases from the shared store; ``--trace-memory`` records
    per-case peak allocation as ``peak_kb``.
``atcd dist submit|worker|run|status|gather|resubmit``
    Distributed execution over a durable work queue
    (see :mod:`repro.distributed`) of a benchmark profile.  ``dist run``
    is the single-host mode (coordinator plus N local worker processes);
    ``submit``/``worker`` split the same run across hosts sharing the
    queue file, with ``status``/``gather`` usable from anywhere;
    ``resubmit`` re-queues dead-lettered tasks with a fresh retry budget.
    Every ``--queue`` and ``--store`` accepts either a sqlite path or an
    ``atcd serve`` broker URL (``http://host:port``) — the latter needs no
    shared filesystem.  Request batches go to ``atcd api`` instead.
``atcd serve --queue DB --store DB [--host H] [--port P] [--token T]``
    Serve a work queue and/or result store over HTTP (the network broker,
    see :mod:`repro.net`), so shared-nothing hosts can run workers
    against ``http://host:port`` queue/store URLs.  One broker serves at
    most one queue; a run that needs its own queue starts its own
    ``atcd serve --queue``.  ``--access-log PATH|-`` writes one
    structured JSON line per request.
``atcd queue prune DB|URL --ttl SECONDS``
    Garbage-collect finished tasks and orphaned job descriptors from one
    work queue (a sqlite file or an ``atcd serve`` broker URL).
``atcd api --queue DB|URL --keys FILE [--workers N] [--store DB|URL]``
    Serve the multi-tenant analysis API (see :mod:`repro.service`):
    clients POST request batches to ``/v1/jobs`` with per-tenant API
    keys, poll or stream results, and cancel jobs.  ``--workers N``
    additionally runs N keep-alive local workers against the queue, for
    a self-contained single-host service.
``atcd bench baseline [--profile NAME] [--runs N] [--out FILE]``
    Run a profile N times (default 3) and write the per-case *median*
    artifact — the rolling baseline CI compares against.
``atcd bench compare BASELINE.json CANDIDATE.json [--threshold R]``
    Diff two artifacts; exits 1 when a timing regression or result
    mismatch is found.
``atcd bench list``
    Show the registered workload families and benchmark profiles.
``atcd catalog NAME [--out FILE]``
    Export one of the built-in case-study models (factory, panda-iot,
    data-server) as JSON, for use as a starting point.
``atcd experiments``
    Run the paper's case-study experiments and print the comparison against
    the published fronts.
``atcd check [PATHS ...] [--rule ID] [--json] [--baseline FILE]``
    Run the project-invariant static analyzer
    (see :mod:`repro.devtools.staticcheck`) — determinism, metrics
    cardinality, transaction discipline, lock order, CLI exit codes and
    broad-except hygiene.  Exits 1 on findings outside the baseline,
    0 when clean; ``--write-baseline FILE`` grandfathers the current
    findings.

Models are the JSON documents produced by
:mod:`repro.attacktree.serialization`.  Requests/results are the JSON
representations of :class:`repro.engine.AnalysisRequest` /
:class:`repro.engine.AnalysisResult`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

# Every handler imports the modules it runs: a broker, API or worker
# process must not load the solver kernels, the experiments or the
# static analyzer to parse its arguments.

__all__ = ["main", "build_parser"]

#: ``atcd catalog`` name -> model function in :mod:`repro.attacktree.catalog`.
_CATALOG = {
    "factory": "factory",
    "factory-probabilistic": "factory_probabilistic",
    "panda-iot": "panda_iot",
    "data-server": "data_server",
}

#: ``staticcheck.DEFAULT_BASELINE_NAME``, spelled out so that building the
#: parser does not import the analyzer.
_DEFAULT_BASELINE_NAME = "staticcheck-baseline.json"

#: Subcommands whose ValueError/TypeError failures are user errors (bad
#: backend name, uncovered cell, missing parameter, malformed request,
#: unknown bench profile/executor, invalid artifact, unusable store or
#: queue file or broker URL, zero workers, undecorated model, unknown
#: staticcheck rule or unreadable baseline).
_ENGINE_COMMANDS = frozenset(
    {"analyze", "pareto", "dgc", "cgd", "batch", "bench", "store", "dist",
     "serve", "queue", "api", "obs", "check"}
)

#: Shared help text for every ``--trace-out`` flag.
_TRACE_OUT_HELP = (
    "append finished spans as NDJSON to this file ('-' for stderr); "
    "trace ids propagate across submit -> queue -> worker, so files from "
    "several processes join on trace_id"
)


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests and documentation)."""
    parser = argparse.ArgumentParser(
        prog="atcd",
        description="Cost-damage analysis of attack trees (DSN 2023 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    analyze = subparsers.add_parser("analyze", help="full report for a model")
    analyze.add_argument("model", help="path to a JSON attack-tree model")
    analyze.add_argument("--probabilistic", action="store_true",
                         help="use expected damage (requires probabilities)")

    pareto = subparsers.add_parser("pareto", help="print the Pareto front")
    pareto.add_argument("model", help="path to a JSON attack-tree model")
    pareto.add_argument("--probabilistic", action="store_true")
    pareto.add_argument("--backend", default=None,
                        help="force a registered engine backend by name "
                             "(default follows Table I; see 'atcd backends')")
    pareto.add_argument("--plot", action="store_true",
                        help="also render the front as an ASCII plot")

    dgc = subparsers.add_parser("dgc", help="max damage given a cost budget")
    dgc.add_argument("model")
    dgc.add_argument("--budget", type=float, required=True)
    dgc.add_argument("--probabilistic", action="store_true")
    dgc.add_argument("--backend", default=None)

    cgd = subparsers.add_parser("cgd", help="min cost given a damage threshold")
    cgd.add_argument("model")
    cgd.add_argument("--threshold", type=float, required=True)
    cgd.add_argument("--probabilistic", action="store_true")
    cgd.add_argument("--backend", default=None)

    batch = subparsers.add_parser(
        "batch", help="run a JSON list of analysis requests against one model"
    )
    batch.add_argument("model", help="path to a JSON attack-tree model")
    batch.add_argument("requests", help="path to a JSON list of request objects")
    batch.add_argument("--parallel", action="store_true",
                       help="execute the batch on a process pool")
    batch.add_argument("--out", default=None, help="output path (default: stdout)")
    batch.add_argument("--store", default=None, metavar="DB|URL",
                       help="shared result store to read through and write "
                            "back to: a sqlite file (created if absent) or "
                            "an atcd-serve broker URL (http://host:port)")

    subparsers.add_parser("backends", help="list registered solver backends")

    store_cmd = subparsers.add_parser(
        "store", help="inspect or prune a shared result store"
    )
    store_sub = store_cmd.add_subparsers(dest="store_command", required=True)
    store_stats = store_sub.add_parser(
        "stats", help="entry counts and layout of a store file"
    )
    store_stats.add_argument("path", help="result-store sqlite file or "
                                          "broker URL")
    store_prune = store_sub.add_parser(
        "prune", help="delete stored results (all, or one model's)"
    )
    store_prune.add_argument("path", help="result-store sqlite file or "
                                          "broker URL")
    store_prune.add_argument("--fingerprint", default=None, metavar="SHA256",
                             help="only prune results of this model fingerprint "
                                  "(default: prune everything)")
    store_prune.add_argument("--ttl", type=float, default=None, metavar="SECONDS",
                             help="evict only results older than this many "
                                  "seconds instead of pruning everything")
    store_prune.add_argument("--max-bytes", type=int, default=None, metavar="N",
                             help="evict oldest results until the store file "
                                  "fits under N bytes")

    bench = subparsers.add_parser(
        "bench", help="run and compare workload benchmarks"
    )
    bench_sub = bench.add_subparsers(dest="bench_command", required=True)
    bench_run = bench_sub.add_parser(
        "run", help="execute a benchmark profile and write a BENCH_*.json artifact"
    )
    bench_run.add_argument("--profile", default="smoke",
                           help="profile name (see 'atcd bench list'; default: smoke)")
    bench_run.add_argument("--out", default=None,
                           help="artifact path (default: BENCH_<profile>.json)")
    bench_run.add_argument("--executor", default="sequential",
                           help="sequential or process (default: sequential)")
    bench_run.add_argument("--max-workers", type=int, default=None,
                           help="pool size for the process executor")
    bench_run.add_argument("--repeats", type=int, default=1,
                           help="timing repetitions per case (default: 1)")
    bench_run.add_argument("--store", default=None, metavar="DB|URL",
                           help="shared result store (sqlite file, created "
                                "if absent, or broker URL); repeated runs "
                                "and pool workers share results through it")
    bench_run.add_argument("--trace-memory", action="store_true",
                           help="record per-case peak allocation (tracemalloc) "
                                "as the peak_kb row field; slows the run")
    bench_compare = bench_sub.add_parser(
        "compare", help="diff two artifacts for regressions"
    )
    bench_compare.add_argument("baseline", help="baseline BENCH_*.json")
    bench_compare.add_argument("candidate", help="candidate BENCH_*.json")
    bench_compare.add_argument("--threshold", type=float, default=0.25,
                               help="relative slowdown flagged as regression "
                                    "(default: 0.25)")
    bench_compare.add_argument("--min-seconds", type=float, default=0.005,
                               help="ignore runs where both sides are faster "
                                    "than this (default: 0.005)")
    bench_baseline = bench_sub.add_parser(
        "baseline", help="run a profile N times and write the per-case "
                         "median artifact (the rolling CI baseline)"
    )
    bench_baseline.add_argument("--profile", default="smoke",
                                help="profile name (default: smoke)")
    bench_baseline.add_argument("--runs", type=int, default=3,
                                help="independent runs to take the median "
                                     "over (default: 3)")
    bench_baseline.add_argument("--out", default=None,
                                help="artifact path (default: "
                                     "BENCH_<profile>_baseline.json)")
    bench_baseline.add_argument("--executor", default="sequential",
                                help="sequential or process "
                                     "(default: sequential)")
    bench_baseline.add_argument("--max-workers", type=int, default=None,
                                help="pool size for the process executor")
    bench_sub.add_parser("list", help="list workload families and profiles")

    dist = subparsers.add_parser(
        "dist", help="distributed execution over a durable work queue"
    )
    dist_sub = dist.add_subparsers(dest="dist_command", required=True)

    dist_submit = dist_sub.add_parser(
        "submit", help="shard a benchmark profile into a queue"
    )
    dist_submit.add_argument("--queue", required=True, metavar="DB|URL",
                             help="work-queue sqlite file (one run per queue; "
                                  "created if absent) or atcd-serve broker "
                                  "URL (http://host:port)")
    dist_submit.add_argument("--profile", required=True,
                             help="benchmark profile to shard "
                                  "(see 'atcd bench list')")
    dist_submit.add_argument("--repeats", type=int, default=1,
                             help="timing repetitions per case (default: 1)")
    dist_submit.add_argument("--trace-memory", action="store_true",
                             help="workers record per-case peak allocation "
                                  "as peak_kb")
    dist_submit.add_argument("--max-attempts", type=int, default=3,
                             help="claims per task before dead-lettering "
                                  "(default: 3)")

    dist_worker = dist_sub.add_parser(
        "worker", help="claim and execute tasks from a queue until drained"
    )
    dist_worker.add_argument("--queue", required=True, metavar="DB|URL",
                             help="work-queue sqlite file (must exist) or "
                                  "broker URL (http://host:port)")
    dist_worker.add_argument("--store", default=None, metavar="DB|URL",
                             help="shared result store (sqlite file, created "
                                  "if absent, or broker URL); makes "
                                  "re-execution after crashes idempotent")
    dist_worker.add_argument("--worker-id", default=None,
                             help="stable worker name (default: hostname-pid)")
    dist_worker.add_argument("--lease", type=float, default=30.0, metavar="S",
                             help="visibility lease seconds per claim, "
                                  "heartbeat-renewed while a task runs "
                                  "(default: 30)")
    dist_worker.add_argument("--poll", type=float, default=0.2, metavar="S",
                             help="longest one idle claim waits in the "
                                  "queue for a task to become pending; it "
                                  "returns as soon as one does (default: 0.2)")
    dist_worker.add_argument("--max-tasks", type=int, default=None,
                             help="stop after this many task attempts")
    dist_worker.add_argument("--keep-alive", action="store_true",
                             help="keep polling after the queue drains "
                                  "(long-lived fleets; default: exit when "
                                  "drained)")
    dist_worker.add_argument("--inject-delay", type=float, default=0.0,
                             metavar="S",
                             help="sleep before executing each claimed task "
                                  "(fault-injection/chaos testing)")
    dist_worker.add_argument("--trace-out", default=None, metavar="PATH|-",
                             help=_TRACE_OUT_HELP)

    dist_run = dist_sub.add_parser(
        "run", help="single-host run: coordinator + N local worker processes"
    )
    dist_run.add_argument("--profile", default="smoke",
                          help="profile name (default: smoke)")
    dist_run.add_argument("--workers", type=int, default=2,
                          help="local worker processes (default: 2)")
    dist_run.add_argument("--queue", default=None, metavar="DB|URL",
                          help="work-queue file to use and keep, or broker "
                               "URL (default: a temporary file, removed "
                               "after the run)")
    dist_run.add_argument("--store", default=None, metavar="DB|URL",
                          help="shared result store for the workers "
                               "(sqlite file, created if absent, or broker "
                               "URL)")
    dist_run.add_argument("--out", default=None,
                          help="artifact path (default: BENCH_<profile>.json)")
    dist_run.add_argument("--repeats", type=int, default=1,
                          help="timing repetitions per case (default: 1)")
    dist_run.add_argument("--trace-memory", action="store_true",
                          help="workers record per-case peak allocation "
                               "as peak_kb")
    dist_run.add_argument("--max-attempts", type=int, default=3,
                          help="claims per task before dead-lettering "
                               "(default: 3)")
    dist_run.add_argument("--lease", type=float, default=30.0, metavar="S",
                          help="worker visibility lease seconds (default: 30)")
    dist_run.add_argument("--timeout", type=float, default=None, metavar="S",
                          help="fail if the run has not drained after this "
                               "many seconds")
    dist_run.add_argument("--trace-out", default=None, metavar="PATH|-",
                          help=_TRACE_OUT_HELP + " (shared with the local "
                               "worker processes)")

    dist_status = dist_sub.add_parser(
        "status", help="task states, workers and retries of a queue"
    )
    dist_status.add_argument("--queue", required=True, metavar="DB|URL",
                             help="work-queue sqlite file (must exist) or "
                                  "broker URL")

    dist_gather = dist_sub.add_parser(
        "gather", help="collect a drained run into its output document"
    )
    dist_gather.add_argument("--queue", required=True, metavar="DB|URL",
                             help="work-queue sqlite file (must exist) or "
                                  "broker URL")
    dist_gather.add_argument("--out", default=None,
                             help="artifact path (default: BENCH_<name>.json)")

    dist_resubmit = dist_sub.add_parser(
        "resubmit", help="re-queue dead-lettered tasks with a fresh retry "
                         "budget"
    )
    dist_resubmit.add_argument("--queue", required=True, metavar="DB|URL",
                               help="work-queue sqlite file (must exist) or "
                                    "broker URL")

    serve = subparsers.add_parser(
        "serve", help="serve a work queue / result store over HTTP "
                      "(network broker for shared-nothing hosts)"
    )
    serve.add_argument("--queue", default=None, metavar="DB",
                       help="work-queue sqlite file to expose "
                            "(created if absent)")
    serve.add_argument("--store", default=None, metavar="DB",
                       help="result-store sqlite file to expose "
                            "(created if absent)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1; use 0.0.0.0 "
                            "to accept other hosts)")
    serve.add_argument("--port", type=int, default=8765,
                       help="TCP port (default: 8765; 0 picks a free port)")
    serve.add_argument("--token", default=None,
                       help="require this bearer token on every request "
                            "(default: $ATCD_BROKER_TOKEN if set; clients "
                            "read the same variable)")
    serve.add_argument("--verbose", action="store_true",
                       help="log one line per request to stderr")
    serve.add_argument("--access-log", default=None, metavar="PATH|-",
                       help="append one structured JSON line per request "
                            "(request id, route, status, latency-ms) to "
                            "this file, or stderr for '-'")
    serve.add_argument("--trace-out", default=None, metavar="PATH|-",
                       help=_TRACE_OUT_HELP)

    queue_cmd = subparsers.add_parser(
        "queue", help="maintain one work queue"
    )
    queue_sub = queue_cmd.add_subparsers(dest="queue_command", required=True)
    queue_prune = queue_sub.add_parser(
        "prune", help="garbage-collect finished tasks and orphaned job "
                      "descriptors from one queue"
    )
    queue_prune.add_argument("target", metavar="DB|URL",
                             help="work-queue sqlite file (must exist) or "
                                  "broker URL (http://host:port)")
    queue_prune.add_argument("--ttl", type=float, required=True, metavar="S",
                             help="delete done/cancelled tasks finished more "
                                  "than this many seconds ago (0 deletes "
                                  "all finished tasks); dead tasks are "
                                  "always kept")

    api = subparsers.add_parser(
        "api", help="serve the multi-tenant analysis API (jobs over HTTP)"
    )
    api.add_argument("--queue", required=True, metavar="DB|URL",
                     help="work queue backing the service: sqlite file "
                          "(created if absent) or a broker URL "
                          "(http://host:port)")
    api.add_argument("--keys", required=True, metavar="FILE",
                     help="tenant keys file: {\"tenants\": [{\"name\", "
                          "\"key\", \"max_in_flight\"?, "
                          "\"rate_per_second\"?, \"burst\"?}]}")
    api.add_argument("--store", default=None, metavar="DB|URL",
                     help="shared result store handed to --workers "
                          "(sqlite file or broker URL)")
    api.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    api.add_argument("--port", type=int, default=8780,
                     help="TCP port (default: 8780; 0 picks a free port)")
    api.add_argument("--workers", type=int, default=0, metavar="N",
                     help="also run N keep-alive local worker processes "
                          "against --queue (default: 0; run workers "
                          "yourself with 'atcd dist worker --keep-alive')")
    api.add_argument("--max-attempts", type=int, default=3,
                     help="claims per task before dead-lettering "
                          "(default: 3)")
    api.add_argument("--max-requests", type=int, default=1000,
                     help="largest accepted batch per job (default: 1000)")
    api.add_argument("--access-log", default="-", metavar="PATH|-",
                     help="append one structured JSON line per request "
                          "(request id, tenant, route, status, latency-ms) "
                          "to this file (default: stderr)")
    api.add_argument("--verbose", action="store_true",
                     help="additionally log http.server lines to stderr")
    api.add_argument("--trace-out", default=None, metavar="PATH|-",
                     help=_TRACE_OUT_HELP + " (shared with --workers "
                          "processes)")

    obs_cmd = subparsers.add_parser(
        "obs", help="inspect a live server's metrics"
    )
    obs_sub = obs_cmd.add_subparsers(dest="obs_command", required=True)
    obs_dump = obs_sub.add_parser(
        "dump", help="scrape GET /metrics from a running broker or "
                     "analysis service and print it"
    )
    obs_dump.add_argument("url", metavar="URL",
                          help="base URL of a running 'atcd serve' or "
                               "'atcd api' (http://host:port)")
    obs_dump.add_argument("--json", action="store_true",
                          help="parse the exposition and print it as JSON "
                               "instead of raw Prometheus text")
    obs_dump.add_argument("--token", default=None,
                          help="bearer token for a token-protected broker "
                               "(default: $ATCD_BROKER_TOKEN if set)")

    catalog_cmd = subparsers.add_parser("catalog", help="export a built-in model")
    catalog_cmd.add_argument("name", choices=sorted(_CATALOG))
    catalog_cmd.add_argument("--out", default=None, help="output path (default: stdout)")

    subparsers.add_parser(
        "experiments", help="run the paper's case-study experiments"
    )

    check = subparsers.add_parser(
        "check", help="run the project-invariant static analyzer"
    )
    check.add_argument(
        "paths", nargs="*",
        help="files or directories to analyze (default: the installed "
             "repro package)",
    )
    check.add_argument(
        "--rule", action="append", metavar="ID",
        help="run only this rule id (repeatable; default: all rules)",
    )
    check.add_argument(
        "--json", action="store_true", dest="as_json",
        help="emit the report as JSON instead of file:line text",
    )
    check.add_argument(
        "--baseline", metavar="FILE",
        help="baseline of grandfathered findings to subtract "
             f"(default: {_DEFAULT_BASELINE_NAME} in the working "
             "directory, when present)",
    )
    check.add_argument(
        "--write-baseline", metavar="FILE",
        help="write the current findings to FILE as the new baseline "
             "and exit 0",
    )
    return parser


def _open_session(path: str, store=None):
    """An :class:`AnalysisSession` on the decorated model at ``path``."""
    from .attacktree import serialization
    from .attacktree.attributes import CostDamageAT, CostDamageProbAT
    from .engine import AnalysisSession

    model = serialization.load_json(path)
    if not isinstance(model, (CostDamageAT, CostDamageProbAT)):
        # ValueError lands in main()'s user-error net: one line, exit 2.
        raise ValueError(
            f"{path} describes a bare attack tree without cost/damage decorations"
        )
    return AnalysisSession(model, store=store)


def _command_analyze(args: argparse.Namespace) -> int:
    from .core import analysis

    session = _open_session(args.model)
    print(analysis.report(session, probabilistic=args.probabilistic))
    return 0


def _command_pareto(args: argparse.Namespace) -> int:
    from .core.problems import Problem
    from .engine import AnalysisRequest
    from .experiments.report import format_pareto_front

    session = _open_session(args.model)
    problem = Problem.CEDPF if args.probabilistic else Problem.CDPF
    result = session.run(AnalysisRequest(problem, backend=args.backend))
    print(format_pareto_front(result.front))
    if args.plot:
        from .pareto.plot import ascii_front

        print()
        label = "cost-expected-damage" if args.probabilistic else "cost-damage"
        print(ascii_front(result.front, title=f"{label} Pareto front"))
    return 0


def _command_dgc(args: argparse.Namespace) -> int:
    from .core.problems import Problem
    from .engine import AnalysisRequest

    session = _open_session(args.model)
    problem = Problem.EDGC if args.probabilistic else Problem.DGC
    result = session.run(
        AnalysisRequest(problem, budget=args.budget, backend=args.backend)
    )
    witness = "{}" if not result.witness else "{" + ", ".join(sorted(result.witness)) + "}"
    label = "expected damage" if args.probabilistic else "damage"
    print(f"max {label} within budget {args.budget:g}: {result.value:g}")
    print(f"witness attack: {witness}")
    return 0


def _command_cgd(args: argparse.Namespace) -> int:
    from .core.problems import Problem
    from .engine import AnalysisRequest

    session = _open_session(args.model)
    problem = Problem.CGED if args.probabilistic else Problem.CGD
    result = session.run(
        AnalysisRequest(problem, threshold=args.threshold, backend=args.backend)
    )
    if result.value is None:
        print(f"no attack reaches damage {args.threshold:g}")
        return 1
    witness = "{}" if not result.witness else "{" + ", ".join(sorted(result.witness)) + "}"
    print(f"min cost reaching damage {args.threshold:g}: {result.value:g}")
    print(f"witness attack: {witness}")
    return 0


def _command_batch(args: argparse.Namespace) -> int:
    from .engine.store import open_store

    store = open_store(args.store) if args.store else None
    try:
        return _run_batch_command(args, store)
    finally:
        if store is not None:
            store.close()


def _run_batch_command(args: argparse.Namespace, store) -> int:
    from .engine import AnalysisRequest

    session = _open_session(args.model, store=store)
    with open(args.requests, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, list):
        print(f"atcd: {args.requests} must contain a JSON list of requests",
              file=sys.stderr)
        return 2
    # Parse and validate the whole batch up front — field types, parameters
    # and backend resolution: a malformed entry, missing budget, bogus
    # backend name or a problem the model cannot support must not abort
    # after the earlier analyses already ran.
    requests = []
    for index, entry in enumerate(payload):
        try:
            request = AnalysisRequest.from_dict(entry)
            request.validate()
            session.resolve(request.problem, backend=request.backend)
        except (ValueError, TypeError) as error:
            # Same format and exit code as engine errors on the other
            # subcommands, plus the offending entry's index.
            print(f"atcd: {args.requests}[{index}]: {error}", file=sys.stderr)
            return 2
        requests.append(request)
    results = session.run_batch(
        requests, executor="process" if args.parallel else "sequential"
    )
    try:
        text = json.dumps([result.to_dict() for result in results], indent=2)
    except TypeError as error:
        # A result that does not serialize (e.g. a third-party backend put a
        # non-JSON object in extras) is an internal bug, not a user error:
        # re-raise outside main()'s user-error net so the traceback survives.
        raise RuntimeError(
            f"internal error serializing batch results: {error}"
        ) from error
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {len(results)} results to {args.out}")
    else:
        print(text)
    for result in results:
        print(result.summary(), file=sys.stderr)
    return 0


def _command_bench(args: argparse.Namespace) -> int:
    # Imported lazily: the bench stack pulls in the workload generators,
    # which the other subcommands never need.
    from . import bench
    from .workloads import describe_families

    if args.bench_command == "list":
        print("workload families:")
        print(describe_families())
        print()
        print("profiles:")
        print(bench.describe_profiles())
        return 0
    if args.bench_command == "compare":
        baseline = bench.load_artifact(args.baseline)
        candidate = bench.load_artifact(args.candidate)
        report = bench.compare_artifacts(
            baseline, candidate,
            threshold=args.threshold, min_seconds=args.min_seconds,
        )
        print(report.render())
        return 0 if report.ok else 1
    if args.bench_command == "baseline":
        if args.runs < 1:
            raise ValueError(f"--runs must be positive, got {args.runs!r}")
        specs = bench.profile(args.profile)
        artifacts = []
        for attempt in range(args.runs):
            runs = bench.execute_specs(
                specs, executor=args.executor, max_workers=args.max_workers
            )
            artifacts.append(bench.build_artifact(
                args.profile, specs, runs,
                config={"profile": args.profile, "executor": args.executor},
            ))
            print(f"  baseline run {attempt + 1}/{args.runs}: "
                  f"{artifacts[-1]['totals']['wall_time_seconds']:.2f}s total",
                  file=sys.stderr)
        artifact = bench.baseline_artifact(artifacts)
        out = args.out or f"BENCH_{args.profile}_baseline.json"
        bench.write_artifact(artifact, out)
        _print_artifact_summary(artifact, out)
        print(f"  median of {args.runs} runs; compare candidates with: "
              f"atcd bench compare {out} BENCH_{args.profile}.json")
        return 0
    # bench run
    specs = bench.profile(args.profile)
    runs = bench.execute_specs(
        specs,
        executor=args.executor,
        max_workers=args.max_workers,
        repeats=args.repeats,
        store_path=args.store,
        trace_memory=args.trace_memory,
    )
    artifact = bench.build_artifact(
        args.profile,
        specs,
        runs,
        config={
            "profile": args.profile,
            "executor": args.executor,
            "max_workers": args.max_workers,
            "repeats": args.repeats,
            "store": args.store,
            "trace_memory": args.trace_memory,
        },
    )
    out = args.out or f"BENCH_{args.profile}.json"
    bench.write_artifact(artifact, out)
    _print_artifact_summary(artifact, out)
    for run in runs:
        peak = f"  peak={run.peak_kb:.0f}KiB" if run.peak_kb is not None else ""
        print(
            f"  {run.case_id:<55} {run.problem:<6} via {run.backend:<12} "
            f"{run.wall_time_seconds * 1e3:9.2f} ms  "
            f"points={run.result_points}{peak}",
            file=sys.stderr,
        )
    return 0


def _print_artifact_summary(artifact: dict, out: str) -> None:
    totals = artifact["totals"]
    line = (
        f"wrote {out}: {totals['cases']} cases over "
        f"{len(totals['families'])} families "
        f"({', '.join(totals['families'])}), "
        f"shapes {', '.join(totals['shapes'])}, "
        f"settings {', '.join(totals['settings'])}, "
        f"total solver time {totals['wall_time_seconds']:.2f}s"
    )
    if "peak_kb_max" in totals:
        line += f", peak memory {totals['peak_kb_max']:.0f} KiB"
    print(line)


def _command_store(args: argparse.Namespace) -> int:
    from .engine.store import open_store

    # Inspection must not conjure an empty store out of a typo'd path.
    with open_store(args.path, must_exist=True) as store:
        if args.store_command == "stats":
            summary = store.summary()
            print(f"store {summary['path']}")
            print(f"  schema version : {summary['schema_version']}")
            print(f"  entries        : {summary['entries']}")
            print(f"  models         : {summary['models']}")
            print(f"  size           : {summary['size_bytes']} bytes")
            if summary["by_problem_backend"]:
                print("  by problem/backend:")
                for cell, count in summary["by_problem_backend"].items():
                    print(f"    {cell:<24} {count}")
            return 0
        # store prune
        if args.ttl is not None or args.max_bytes is not None:
            if args.fingerprint is not None:
                raise ValueError(
                    "--fingerprint cannot be combined with --ttl/--max-bytes "
                    "(eviction is age/size-scoped, not model-scoped)"
                )
            dropped = store.evict(ttl_seconds=args.ttl, max_bytes=args.max_bytes)
            bounds = []
            if args.ttl is not None:
                bounds.append(f"ttl {args.ttl:g}s")
            if args.max_bytes is not None:
                bounds.append(f"max {args.max_bytes} bytes")
            print(
                f"evicted {dropped} results ({', '.join(bounds)}) "
                f"from {args.path}"
            )
            return 0
        dropped = store.prune(fingerprint=args.fingerprint)
        scope = (
            f"model {args.fingerprint}" if args.fingerprint else "all models"
        )
        print(f"pruned {dropped} results ({scope}) from {args.path}")
        return 0


def _command_dist(args: argparse.Namespace) -> int:
    # Imported lazily, like the bench stack: the distributed runtime pulls
    # in the workload generators, which other subcommands never need.
    from .distributed import Coordinator, open_queue

    if args.dist_command == "submit":
        return _dist_submit(args)
    if args.dist_command == "worker":
        return _dist_worker(args)
    if args.dist_command == "status":
        with open_queue(args.queue, must_exist=True) as queue:
            summary = queue.summary()
            coordinator = Coordinator(queue)
            info = coordinator.run_info()
            print(f"queue {args.queue}: run {info['name']!r} ({info['kind']})")
            print(f"  tasks   : {summary['tasks']}")
            for state, count in summary["counts"].items():
                print(f"    {state:<8}: {count}")
            print(f"  retries : {summary['retries']}")
            print(f"  workers : {', '.join(summary['workers']) or '(none yet)'}")
            for entry in summary["dead"]:
                print(f"  DEAD {entry['task_id']} after {entry['attempts']} "
                      f"attempts: {entry['error']}")
            return 0
    if args.dist_command == "gather":
        with open_queue(args.queue, must_exist=True) as queue:
            report = Coordinator(queue).gather()
        return _dist_emit(args, report)
    if args.dist_command == "resubmit":
        with open_queue(args.queue, must_exist=True) as queue:
            task_ids = queue.resubmit_dead()
        if not task_ids:
            print(f"no dead tasks in {args.queue}")
        else:
            print(
                f"resubmitted {len(task_ids)} dead tasks to {args.queue} "
                f"with a fresh retry budget; start workers with: "
                f"atcd dist worker --queue {args.queue}"
            )
        return 0
    # dist run
    return _dist_run(args)


def _dist_submit(args: argparse.Namespace) -> int:
    from . import bench
    from .distributed import Coordinator, open_queue

    specs = bench.profile(args.profile)
    with open_queue(args.queue) as queue:
        task_ids = Coordinator(queue).submit_profile(
            args.profile,
            specs,
            repeats=args.repeats,
            trace_memory=args.trace_memory,
            max_attempts=args.max_attempts,
        )
    print(
        f"submitted {len(task_ids)} tasks to {args.queue}; start workers "
        f"with: atcd dist worker --queue {args.queue}"
    )
    return 0


def _dist_worker(args: argparse.Namespace) -> int:
    from .bench.measure import frozen_heap
    from .distributed import Worker, open_queue, signal_shutdown
    from .engine.store import open_store

    store = None
    close_trace = _open_trace_output(args.trace_out)
    try:
        with open_queue(args.queue, must_exist=True) as queue:
            # The store is opened only after the queue checked out: a
            # typo'd queue path must not leave a stray store file behind.
            store = open_store(args.store) if args.store else None
            worker = Worker(
                queue,
                worker_id=args.worker_id,
                store=store,
                lease_seconds=args.lease,
                poll_seconds=args.poll,
                max_tasks=args.max_tasks,
                exit_when_drained=not args.keep_alive,
                inject_delay_seconds=args.inject_delay,
            )
            # SIGTERM/SIGINT fail the in-flight task back to the queue
            # (immediately claimable) and exit cleanly, instead of
            # abandoning it to its lease.  The frozen heap keeps each
            # bench case's collect off the worker's long-lived objects.
            with signal_shutdown(worker), frozen_heap():
                report = worker.run()
    finally:
        if store is not None:
            store.close()
        close_trace()
    print(
        f"worker {report.worker_id}: {report.completed} completed, "
        f"{report.failed} failed",
        file=sys.stderr,
    )
    if report.interrupted is not None:
        print(
            f"worker {report.worker_id}: interrupted by signal "
            f"{report.interrupted}; in-flight work returned to the queue",
            file=sys.stderr,
        )
        return 128 + report.interrupted
    return 0


def _dist_emit(args: argparse.Namespace, report) -> int:
    """Write a GatherReport's BENCH artifact; shared by gather and run."""
    from . import bench

    out = args.out or f"BENCH_{report.name}.json"
    bench.write_artifact(report.output, out)
    _print_artifact_summary(report.output, out)
    workers = ", ".join(report.workers) or "(none)"
    print(f"  distributed: workers {workers}, retries {report.retries}, "
          f"dead tasks {len(report.dead)}")
    for entry in report.dead:
        label = entry.get("case_id", entry["task_id"])
        print(
            f"atcd: DEAD task {label} after {entry['attempts']} attempts: "
            f"{entry['error']}",
            file=sys.stderr,
        )
    # Dead-lettered tasks mean the output is partial: the run completed,
    # but the exit code must not claim full success.
    return 1 if report.dead else 0


def _dist_run(args: argparse.Namespace) -> int:
    import shutil
    import tempfile

    from . import bench
    from .distributed import Coordinator, LocalFleet, open_queue

    if args.workers < 1:
        raise ValueError(
            f"workers must be a positive integer, got {args.workers!r}"
        )
    specs = bench.profile(args.profile)
    temp_dir = None
    close_trace = _open_trace_output(args.trace_out)
    if args.queue is None:
        temp_dir = tempfile.mkdtemp(prefix="atcd-dist-")
        queue_path = os.path.join(temp_dir, "queue.sqlite")
    else:
        queue_path = args.queue
    try:
        with open_queue(queue_path) as queue:
            coordinator = Coordinator(queue)
            coordinator.submit_profile(
                args.profile,
                specs,
                repeats=args.repeats,
                trace_memory=args.trace_memory,
                max_attempts=args.max_attempts,
            )
            with LocalFleet(
                queue_path,
                args.workers,
                store_path=args.store,
                lease_seconds=args.lease,
                trace_out=args.trace_out,
            ) as fleet:
                fleet.start()
                coordinator.wait(timeout=args.timeout, on_poll=fleet.supervise)
                fleet.join()
            report = coordinator.gather(
                distributed={"workers": args.workers, "store": args.store}
            )
    finally:
        close_trace()
        if temp_dir is not None:
            shutil.rmtree(temp_dir, ignore_errors=True)
    return _dist_emit(args, report)


def _open_access_log(spec: Optional[str]):
    """An :class:`AccessLog` plus closer from an ``--access-log`` value.

    ``None`` disables logging, ``-`` logs to stderr, anything else is a
    file path opened in append mode (restarts extend the log, they do not
    truncate history).
    """
    if spec is None:
        return None, (lambda: None)
    from .net.accesslog import AccessLog

    if spec == "-":
        return AccessLog(sys.stderr), (lambda: None)
    handle = open(spec, "a", encoding="utf-8")
    return AccessLog(handle), handle.close


def _open_trace_output(spec: Optional[str]):
    """Register a ``--trace-out`` span exporter; returns a closer.

    The closer deregisters the exporter as well as closing its file, so
    in-process callers of :func:`main` (tests) do not leak exporters into
    the process-global registry.
    """
    if spec is None:
        return lambda: None
    from .obs.trace import open_trace_output, remove_exporter

    exporter = open_trace_output(spec)

    def close() -> None:
        remove_exporter(exporter)
        exporter.close()

    return close


def _command_serve(args: argparse.Namespace) -> int:
    # Lazy import, like the dist stack: only this verb needs the broker.
    import signal as signal_module

    from .net.server import BrokerServer
    from .net.wire import TOKEN_ENV_VAR

    if not args.queue and not args.store:
        raise ValueError("nothing to serve: pass --queue and/or --store")
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    access_log, close_log = _open_access_log(args.access_log)
    close_trace = _open_trace_output(args.trace_out)
    try:
        server = BrokerServer(
            queue_path=args.queue,
            store_path=args.store,
            host=args.host,
            port=args.port,
            token=token,
            verbose=args.verbose,
            access_log=access_log,
        )
    except OSError as error:
        # Port in use, privileged port, unbindable address: user errors,
        # reported on the same one-line exit-2 contract as bad paths.
        close_log()
        close_trace()
        raise ValueError(
            f"cannot serve on {args.host}:{args.port}: {error}"
        ) from error
    except Exception:
        close_log()
        close_trace()
        raise
    served = [
        f"{kind} {path}"
        for kind, path in (
            ("queue", args.queue),
            ("store", args.store),
        )
        if path
    ]
    auth = "token auth" if token else "no auth"
    # A wildcard bind accepts every interface but is not itself a
    # connectable address — print a URL other hosts can actually use.
    if args.host in ("0.0.0.0", "::"):
        import socket

        url = f"http://{socket.gethostname()}:{server.port}"
        note = f" (listening on {args.host})"
    else:
        url, note = server.url, ""
    print(
        f"atcd broker serving {' and '.join(served)} at {url}{note} "
        f"({auth}); point --queue/--store at that URL",
        flush=True,
    )

    def _stop(signum, frame):
        raise KeyboardInterrupt

    previous = signal_module.signal(signal_module.SIGTERM, _stop)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("atcd broker shutting down", file=sys.stderr)
    finally:
        signal_module.signal(signal_module.SIGTERM, previous)
        server.close()
        close_log()
        close_trace()
    return 0


def _command_queue(args: argparse.Namespace) -> int:
    from .distributed import open_queue

    with open_queue(args.target, must_exist=True) as queue:
        pruned = queue.prune(args.ttl)
    print(
        f"pruned {pruned['tasks']} finished tasks and "
        f"{pruned['descriptors']} orphaned job descriptors "
        f"from {args.target}"
    )
    return 0


def _command_api(args: argparse.Namespace) -> int:
    import signal as signal_module
    import threading

    from .distributed import LocalFleet, QueueError, open_queue
    from .service import ServiceServer, TenantRegistry

    registry = TenantRegistry.from_file(args.keys)
    access_log, close_log = _open_access_log(args.access_log)
    close_trace = _open_trace_output(args.trace_out)
    fleet = None
    supervisor = None
    stopping = threading.Event()
    try:
        queue = open_queue(args.queue)
        try:
            server = ServiceServer(
                queue,
                registry,
                host=args.host,
                port=args.port,
                max_attempts=args.max_attempts,
                max_requests=args.max_requests,
                access_log=access_log,
                verbose=args.verbose,
            )
        except OSError as error:
            queue.close()
            raise ValueError(
                f"cannot serve on {args.host}:{args.port}: {error}"
            ) from error
    except Exception:
        close_log()
        close_trace()
        raise
    try:
        if args.workers:
            fleet = LocalFleet(
                args.queue, args.workers, store_path=args.store,
                keep_alive=True, trace_out=args.trace_out,
            )
            fleet.start()

            def _supervise_loop() -> None:
                # Keep-alive workers should never exit; one that does has
                # crashed, and the fleet replaces it (within its respawn
                # budget) so the service does not quietly stop executing.
                # Waiting on the event (not sleeping) lets shutdown stop
                # the loop before the fleet is terminated, so no worker is
                # respawned after it.
                while not stopping.wait(2.0):
                    try:
                        fleet.supervise(server.queue.counts())
                    except (OSError, QueueError):
                        # Dead fleet with no respawn budget, unreachable
                        # queue, or a spawn failure: stop supervising; the
                        # server keeps answering with whatever is left.
                        return

            supervisor = threading.Thread(
                target=_supervise_loop, name="atcd-api-fleet", daemon=True
            )
            supervisor.start()
        print(
            f"atcd analysis service at {server.url} "
            f"({len(registry)} tenants, queue {args.queue}"
            + (f", {args.workers} local workers" if args.workers else "")
            + "); submit with POST /v1/jobs",
            flush=True,
        )

        def _stop(signum, frame):
            raise KeyboardInterrupt

        previous = signal_module.signal(signal_module.SIGTERM, _stop)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("atcd analysis service shutting down", file=sys.stderr)
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
    finally:
        stopping.set()
        server.close()
        if supervisor is not None:
            supervisor.join()
        if fleet is not None:
            fleet.terminate()
        close_log()
        close_trace()
    return 0


def _command_obs(args: argparse.Namespace) -> int:
    import urllib.error
    import urllib.request

    from .net.wire import AUTH_HEADER, TOKEN_ENV_VAR
    from .obs.promtext import parse as parse_promtext

    if not args.url.startswith(("http://", "https://")):
        raise ValueError(f"not an http(s) URL: {args.url!r}")
    url = args.url.rstrip("/") + "/metrics"
    token = args.token or os.environ.get(TOKEN_ENV_VAR) or None
    request = urllib.request.Request(url)
    if token:
        request.add_header(AUTH_HEADER, f"Bearer {token}")
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            text = response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        raise ValueError(
            f"{url} answered {error.code} {error.reason}"
            + (" (pass --token?)" if error.code == 401 else "")
        ) from error
    except (urllib.error.URLError, OSError) as error:
        raise ValueError(f"cannot reach {url}: {error}") from error
    if args.json:
        document = {
            name: {
                "type": family.type,
                "help": family.help,
                "samples": [
                    {"name": sample_name, "labels": labels, "value": value}
                    for sample_name, labels, value in family.samples
                ],
            }
            for name, family in sorted(parse_promtext(text).items())
        }
        print(json.dumps(document, indent=2, sort_keys=True))
    else:
        print(text, end="")
    return 0


def _command_backends(args: argparse.Namespace) -> int:
    from .engine import shared_registry

    registry = shared_registry()
    print(registry.describe())
    print()
    print("Table I resolution:")
    for (setting, shape), label in sorted(registry.capability_report().items()):
        print(f"  {setting:<14} {shape:<5} -> {label}")
    return 0


def _command_catalog(args: argparse.Namespace) -> int:
    from .attacktree import catalog, serialization

    model = getattr(catalog, _CATALOG[args.name])()
    text = serialization.to_json(model)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        print(f"wrote {args.name} to {args.out}")
    else:
        print(text)
    return 0


def _command_experiments(args: argparse.Namespace) -> int:
    from .experiments import casestudies

    results = casestudies.run_all_case_studies()
    all_match = True
    for result in results.values():
        print(result.render())
        print()
        all_match = all_match and result.exact_match
    print(f"all published points reproduced: {all_match}")
    return 0 if all_match else 1


def _command_check(args: argparse.Namespace) -> int:
    from .devtools import staticcheck

    paths = list(args.paths)
    if not paths:
        # Default to the installed package itself, wherever the command
        # runs from; relpath keeps finding paths (and therefore baseline
        # fingerprints) stable when that is the usual repo-root checkout.
        package_dir = os.path.dirname(os.path.abspath(__file__))
        paths = [os.path.relpath(package_dir)]
    project = staticcheck.Project.from_paths(paths)
    rules = staticcheck.select_rules(args.rule)
    report = staticcheck.run_check(project, rules)

    if args.write_baseline:
        staticcheck.write_baseline(args.write_baseline, report.findings)
        print(
            f"wrote {len(report.findings)} grandfathered finding(s) "
            f"to {args.write_baseline}"
        )
        return 0

    baseline_path = args.baseline
    if baseline_path is None and os.path.exists(staticcheck.DEFAULT_BASELINE_NAME):
        baseline_path = staticcheck.DEFAULT_BASELINE_NAME
    grandfathered = 0
    stale: list = []
    findings = report.findings
    if baseline_path is not None:
        baseline = staticcheck.load_baseline(baseline_path)
        findings, grandfathered, stale = staticcheck.apply_baseline(
            report.findings, baseline
        )

    if args.as_json:
        document = report.to_dict()
        document["findings"] = [finding.to_dict() for finding in findings]
        document["grandfathered"] = grandfathered
        document["stale_baseline_entries"] = [
            {"rule": rule, "path": path, "message": message}
            for rule, path, message in stale
        ]
        document["baseline"] = baseline_path
        print(json.dumps(document, indent=2, sort_keys=True))
        return 1 if findings else 0

    for finding in findings:
        print(finding.render())
    for rule, path, _message in stale:
        print(
            f"stale baseline entry ({rule} in {path}): the violation was "
            f"fixed — remove it from {baseline_path}",
            file=sys.stderr,
        )
    summary = (
        f"checked {report.files_checked} file(s), "
        f"{len(report.rules_run)} rule(s): {len(findings)} finding(s)"
    )
    if grandfathered:
        summary += f", {grandfathered} grandfathered"
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    print(summary)
    return 1 if findings else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _command_analyze,
        "pareto": _command_pareto,
        "dgc": _command_dgc,
        "cgd": _command_cgd,
        "batch": _command_batch,
        "backends": _command_backends,
        "bench": _command_bench,
        "dist": _command_dist,
        "store": _command_store,
        "serve": _command_serve,
        "queue": _command_queue,
        "api": _command_api,
        "obs": _command_obs,
        "catalog": _command_catalog,
        "experiments": _command_experiments,
        "check": _command_check,
    }
    if args.command not in _ENGINE_COMMANDS:
        return handlers[args.command](args)
    try:
        return handlers[args.command](args)
    except (ValueError, TypeError) as error:
        # Engine/request errors (unknown backend, uncovered capability cell,
        # missing parameter, wrong model kind, malformed request JSON) are
        # user errors on these subcommands: report them as one line, not a
        # traceback.  Other subcommands run unwrapped so genuine internal
        # failures keep their stack traces.
        print(f"atcd: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
