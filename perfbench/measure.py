"""Sample statistics and per-process resource accounting.

Everything here is stdlib-only and reads Linux ``/proc`` directly, so the
benchmark can account for processes it did not create itself (the worker
subprocesses an ``atcd api`` launches).
"""

from __future__ import annotations

import math
import os
import time
from typing import Dict, Iterable, List, Sequence

#: A percentile is reported only when at least this many samples lie
#: strictly above its rank.
MIN_TAIL_SAMPLES = 10
#: Ops every run makes at least, so that p90 has 10 samples above it.
MIN_OPS = 100
#: Set-ups per run; setup_s is their median.
SETUP_LAUNCHES = 5

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


def percentile(samples: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``samples``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES` samples
    lie above the rank, so a p90 needs 100 samples and a p50 needs 20.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie in (0, 100), got {q!r}")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    beyond = len(ordered) - rank
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(ordered)} samples has {beyond} above it; "
            f"need at least {MIN_TAIL_SAMPLES}"
        )
    return ordered[rank - 1]


def now_ns() -> int:
    """CLOCK_MONOTONIC in nanoseconds: comparable across processes."""
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


# ---------------------------------------------------------------------- #
# /proc accounting
# ---------------------------------------------------------------------- #
def _stat_fields(pid: int) -> List[str]:
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        raw = handle.read()
    # The command name (field 2) may contain spaces; it ends at the last ')'.
    return raw[raw.rindex(")") + 2:].split()


def descendants(pid: int) -> List[int]:
    """``pid`` and every live process below it (children, grandchildren...)."""
    parents: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(int(entry))[1])
        except (OSError, ValueError, IndexError):
            continue  # exited while we looked
        parents.setdefault(ppid, []).append(int(entry))
    tree, frontier = [pid], [pid]
    while frontier:
        children = parents.get(frontier.pop(), [])
        tree.extend(children)
        frontier.extend(children)
    return tree


def running_in_group(pgid: int) -> List[int]:
    """Processes of group ``pgid`` that have not exited.  A zombie has
    exited; it waits only for its parent (or init) to reap it."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            fields = _stat_fields(int(entry))
        except OSError:
            continue
        if int(fields[2]) == pgid and fields[0] not in ("Z", "X"):
            members.append(int(entry))
    return members


def cpu_seconds(pids: Iterable[int]) -> float:
    """User+system CPU consumed so far by the given live processes."""
    total = 0
    for pid in pids:
        try:
            fields = _stat_fields(pid)
        except OSError:
            continue
        # Fields 14 and 15 of /proc/<pid>/stat (utime, stime), counted
        # from field 3 after the name was cut off.
        total += int(fields[11]) + int(fields[12])
    return total / _CLOCK_TICKS


def peak_rss_mb(pids: Iterable[int]) -> float:
    """Sum of the processes' peak resident set sizes (VmHWM), in MiB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


def open_paths(pid: int) -> List[str]:
    """Targets of the process's open file descriptors (empty if gone)."""
    base = f"/proc/{pid}/fd"
    targets = []
    try:
        entries = os.listdir(base)
    except OSError:
        return []
    for entry in entries:
        try:
            targets.append(os.readlink(os.path.join(base, entry)))
        except OSError:
            continue
    return targets
