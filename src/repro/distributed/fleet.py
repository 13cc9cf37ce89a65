"""Local worker fleets: N ``atcd dist worker`` subprocesses on this host.

``atcd dist run`` is the single-host convenience mode of the distributed
runtime: one coordinator plus a :class:`LocalFleet` of worker *processes*
(true CPU parallelism, like the bench harness's process executor — but
through the same durable queue a multi-host deployment would use, so the
execution path is identical either way).

The fleet is supervised, not fire-and-forget: workers normally exit on
their own once the queue drains, so a worker that disappears while work is
outstanding has crashed — the coordinator's poll hook respawns it, within
a bounded budget (a poison *task* is handled by the queue's retry budget;
the respawn budget guards against a poison *environment* crash-looping
forever).
"""

from __future__ import annotations

import os
import subprocess
import sys
from typing import Dict, List, Optional

from .queue import QueueError

__all__ = ["LocalFleet", "worker_command", "worker_environment"]


def worker_command(
    queue_path: str,
    store_path: Optional[str] = None,
    lease_seconds: float = 30.0,
    poll_seconds: float = 0.2,
    worker_id: Optional[str] = None,
    keep_alive: bool = False,
    trace_out: Optional[str] = None,
) -> List[str]:
    """The argv for one local ``atcd dist worker`` subprocess.

    ``poll_seconds`` bounds each idle claim's wait in the queue (``--poll``);
    a worker takes a new task as soon as it is pending.
    ``keep_alive`` workers poll for new work indefinitely instead of
    exiting once the queue drains — the fleet mode behind a long-lived
    service, where an idle queue means "no jobs right now", not "done".
    ``trace_out`` forwards ``--trace-out``: workers append whole NDJSON
    lines, so one shared file collects the entire fleet's spans.
    """
    command = [
        sys.executable, "-m", "repro.cli", "dist", "worker",
        "--queue", queue_path,
        "--lease", str(lease_seconds),
        "--poll", str(poll_seconds),
    ]
    if store_path:
        command += ["--store", store_path]
    if worker_id:
        command += ["--worker-id", worker_id]
    if keep_alive:
        command.append("--keep-alive")
    if trace_out:
        command += ["--trace-out", trace_out]
    return command


def worker_environment() -> Dict[str, str]:
    """The subprocess environment: this build of ``repro`` on the path.

    The directory this very package was imported from is prepended to
    ``PYTHONPATH`` so source checkouts (where ``repro`` is importable only
    via ``PYTHONPATH=src``) spawn workers of the same build; for installed
    packages the extra entry is harmless.
    """
    package_root = os.path.dirname(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    )
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = (
        package_root + os.pathsep + existing if existing else package_root
    )
    return env


class LocalFleet:
    """Spawn, supervise and reap N local worker subprocesses.

    Parameters
    ----------
    queue_path / store_path / lease_seconds / poll_seconds:
        Forwarded to every worker (see :func:`worker_command`);
        ``poll_seconds`` bounds an idle worker's claim wait, it is not a
        sleep.
    workers:
        Fleet size (kept constant while the run is outstanding).
    respawn_budget:
        How many crashed workers may be replaced before the fleet gives
        up; defaults to the fleet size.
    keep_alive:
        Spawn long-lived workers that keep polling after the queue drains
        (``atcd api --workers N`` mode).  The supervisor semantics change
        with it: a missing keep-alive worker is *always* a crash, even on
        an idle queue, so :meth:`supervise` respawns regardless of
        outstanding work.
    """

    def __init__(
        self,
        queue_path: str,
        workers: int,
        store_path: Optional[str] = None,
        lease_seconds: float = 30.0,
        poll_seconds: float = 0.2,
        respawn_budget: Optional[int] = None,
        keep_alive: bool = False,
        trace_out: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(
                f"workers must be a positive integer, got {workers!r}"
            )
        self.queue_path = queue_path
        self.store_path = store_path
        self.workers = workers
        self.lease_seconds = lease_seconds
        self.poll_seconds = poll_seconds
        self.respawn_budget = workers if respawn_budget is None else respawn_budget
        self.keep_alive = keep_alive
        self.trace_out = trace_out
        self._spawned = 0
        self._processes: List[subprocess.Popen] = []
        self._dead_with_work_polls = 0

    def _spawn_one(self) -> subprocess.Popen:
        self._spawned += 1
        process = subprocess.Popen(
            worker_command(
                self.queue_path,
                store_path=self.store_path,
                lease_seconds=self.lease_seconds,
                poll_seconds=self.poll_seconds,
                worker_id=f"local-{os.getpid()}-w{self._spawned}",
                keep_alive=self.keep_alive,
                trace_out=self.trace_out,
            ),
            env=worker_environment(),
            stdout=subprocess.DEVNULL,  # workers report on stderr only
        )
        self._processes.append(process)
        return process

    def start(self) -> None:
        """Launch the initial fleet."""
        for _ in range(self.workers):
            self._spawn_one()

    def alive(self) -> int:
        """How many workers are currently running."""
        return sum(1 for process in self._processes if process.poll() is None)

    def supervise(self, counts: Dict[str, int]) -> None:
        """Coordinator poll hook: keep the fleet at size while work remains.

        Workers exit zero on their own only once the queue is drained, so
        with pending/running tasks outstanding every missing worker is a
        crash: replace it, within the respawn budget.  A fleet that is
        entirely dead with no budget left raises — a hung ``dist run``
        would otherwise wait on its timeout for workers that no longer
        exist.  The abort needs the condition on two *consecutive* polls:
        ``counts`` was read before ``alive()``, so the last task may have
        completed (and the workers legitimately exited) in between — the
        coordinator's next poll observes the drained queue and returns
        normally instead.
        """
        outstanding = counts["pending"] + counts["running"]
        if outstanding == 0 and not self.keep_alive:
            self._dead_with_work_polls = 0
            return
        missing = self.workers - self.alive()
        for _ in range(missing):
            if self._spawned - self.workers >= self.respawn_budget:
                if self.alive() == 0:
                    self._dead_with_work_polls += 1
                    if self._dead_with_work_polls >= 2:
                        raise QueueError(
                            "all local workers exited with work outstanding "
                            f"(pending={counts['pending']}, "
                            f"running={counts['running']}) and the respawn "
                            f"budget ({self.respawn_budget}) is spent"
                        )
                return
            self._spawn_one()
        self._dead_with_work_polls = 0

    def join(self, timeout: float = 30.0) -> None:
        """Wait for the (drained) workers to exit on their own."""
        for process in self._processes:
            if process.poll() is None:
                try:
                    process.wait(timeout=timeout)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    process.wait(timeout=5.0)

    def terminate(self) -> None:
        """Stop every remaining worker (cleanup on error paths).

        ``terminate()`` sends SIGTERM, which a worker's signal handler
        turns into a graceful exit: the in-flight task is failed back to
        the queue (immediately claimable) rather than abandoned to its
        lease.  Workers that don't wind down in time are killed — their
        task then takes the lease-expiry path.
        """
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            if process.poll() is None:
                try:
                    process.wait(timeout=5.0)
                except subprocess.TimeoutExpired:
                    process.kill()
                    process.wait(timeout=5.0)

    def __enter__(self) -> "LocalFleet":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.terminate()
