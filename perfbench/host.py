"""Launcher entry points of the traced service runs.

``host.py api`` serves the analysis API and ``host.py worker`` runs one
queue worker, each built from the same public objects the production
``atcd api`` / ``atcd dist worker`` build, but with timing proxies around
the queue, the store, the job manager and the executor.  Spans stay in
memory and are written to ``<--spans>-<role>-<pid>.json`` when SIGTERM
ends the process.

    python3 perfbench/host.py api --queue DB|URL --keys FILE --spans PREFIX
    python3 perfbench/host.py worker --queue DB|URL --store DB|URL \
        --worker-id ID --spans PREFIX
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from hooks import (  # noqa: E402  (needs the path set above)
    execute_attrs, install_kernel_spans, timed_jobs, timed_queue, timed_store,
)
from tracing import Tracer  # noqa: E402


def serve_api(args: argparse.Namespace, tracer: Tracer) -> None:
    from repro.distributed import open_queue
    from repro.service import ServiceServer, TenantRegistry
    from repro.service import api as api_module
    from repro.service import jobs as jobs_module

    # validate_batch runs twice per POST: once in the handler, once in
    # JobManager.submit; both call sites are timed.
    tracer.patch(api_module, "validate_batch", "service.validate")
    tracer.patch(jobs_module, "validate_batch", "service.validate")
    server = ServiceServer(
        timed_queue(open_queue(args.queue), tracer),
        TenantRegistry.from_file(args.keys),
        port=0,
    )
    server.jobs = timed_jobs(server.jobs, tracer)

    def _stop(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _stop)
    print(f"atcd analysis service at {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.close()


def run_worker(args: argparse.Namespace, tracer: Tracer) -> None:
    from repro.distributed import Worker, open_queue, signal_shutdown
    from repro.distributed.worker import execute_task_payload
    from repro.engine.store import open_store

    install_kernel_spans(tracer)
    queue = timed_queue(open_queue(args.queue, must_exist=True), tracer)
    store = timed_store(open_store(args.store), tracer)
    worker = Worker(
        queue,
        worker_id=args.worker_id,
        store=store,
        exit_when_drained=False,
        executor=tracer.wrap(
            lambda payload: execute_task_payload(payload, store=store),
            "distributed.execute",
            execute_attrs,
        ),
    )
    worker.publish_metrics = tracer.wrap(worker.publish_metrics, "obs.publish")
    with signal_shutdown(worker):
        worker.run()
    store.close()
    queue.close()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("role", choices=("api", "worker"))
    parser.add_argument("--queue", required=True)
    parser.add_argument("--keys")
    parser.add_argument("--store")
    parser.add_argument("--worker-id")
    parser.add_argument("--spans", required=True)
    args = parser.parse_args()
    tracer = Tracer()
    try:
        if args.role == "api":
            serve_api(args, tracer)
        else:
            run_worker(args, tracer)
    finally:
        tracer.dump(f"{args.spans}-{args.role}-{os.getpid()}.json", args.role)
    return 0


if __name__ == "__main__":
    sys.exit(main())
