"""In-memory spans recorded from outside the program, and their analysis.

A :class:`Tracer` times calls into the program's public functions and
objects: :meth:`Tracer.patch` swaps a module or class attribute for a
timing wrapper, :class:`Timed` proxies every method call of one object
(a queue, a store, a job manager).  Spans live in memory and are written
out once, when the process ends (:meth:`Tracer.dump`).

Timestamps are CLOCK_MONOTONIC nanoseconds, so spans written by different
processes on one host can be joined on task and job ids.
"""

from __future__ import annotations

import functools
import json
import threading
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from measure import now_ns

#: One span: [name, start_ns, end_ns, parent index or None, attrs].
Span = List[Any]

AttrsFn = Callable[[Any, tuple, dict], Optional[Dict[str, Any]]]


class Tracer:
    """Records nested spans per thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(
        self,
        name: str,
        function: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        attrs_fn: Optional[AttrsFn] = None,
    ) -> Any:
        """Run ``function(*args, **kwargs)`` inside one span named ``name``."""
        stack = self._stack()
        record: Span = [name, now_ns(), 0, stack[-1] if stack else None, None]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            result = function(*args, **kwargs)
        finally:
            record[2] = now_ns()
            stack.pop()
        if attrs_fn is not None:
            record[4] = attrs_fn(result, args, kwargs)
        return result

    def wrap(
        self, function: Callable[..., Any], name: str,
        attrs_fn: Optional[AttrsFn] = None,
    ) -> Callable[..., Any]:
        """A timing wrapper around ``function``."""

        @functools.wraps(function)
        def timed(*args: Any, **kwargs: Any) -> Any:
            return self.call(name, function, args, kwargs, attrs_fn)

        return timed

    def patch(
        self, owner: Any, attribute: str, name: str,
        attrs_fn: Optional[AttrsFn] = None,
    ) -> None:
        """Replace ``owner.attribute`` by a timing wrapper for the rest of
        the process.  A class attribute that is a plain function stays a
        method: the wrapper is a function too, so instances still bind."""
        setattr(owner, attribute, self.wrap(getattr(owner, attribute), name, attrs_fn))

    def dump(self, path: str, role: str) -> None:
        """Write every span recorded so far as one JSON document."""
        with self._lock:
            spans = [list(span) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"role": role, "spans": spans}, handle)


class Timed:
    """Proxy recording one span per method call on ``target``.

    Span names are ``<prefix>.<method>``; ``attrs`` maps a method name to a
    function deriving span attributes from ``(result, args, kwargs)``.
    Attributes that are not methods pass straight through.
    """

    def __init__(
        self, target: Any, tracer: Tracer, prefix: str,
        attrs: Optional[Dict[str, AttrsFn]] = None,
    ) -> None:
        self._target = target
        self._tracer = tracer
        self._prefix = prefix
        self._attrs = attrs or {}

    def __getattr__(self, attribute: str) -> Any:
        value = getattr(self._target, attribute)
        if attribute.startswith("_") or not callable(value):
            return value
        return self._tracer.wrap(
            value, f"{self._prefix}.{attribute}", self._attrs.get(attribute)
        )


# ---------------------------------------------------------------------- #
# analysis
# ---------------------------------------------------------------------- #
def self_times(spans: Sequence[Span]) -> List[int]:
    """Each span's duration minus the part of it its direct children cover."""
    children: Dict[int, List[int]] = {}
    for index, span in enumerate(spans):
        if span[3] is not None:
            children.setdefault(span[3], []).append(index)
    result = []
    for index, (_, start, end, _, _) in enumerate(spans):
        intervals = sorted(
            (max(spans[c][1], start), min(spans[c][2], end))
            for c in children.get(index, ())
        )
        covered, reach = 0, start
        for low, high in intervals:
            low = max(low, reach)
            if high > low:
                covered += high - low
                reach = high
        result.append(end - start - covered)
    return result


def window(spans: Sequence[Span], start_ns: int, end_ns: int) -> List[Span]:
    """The spans lying wholly inside ``[start_ns, end_ns]``, parents
    renumbered (a parent outside the window becomes ``None``)."""
    kept = [i for i, span in enumerate(spans) if start_ns <= span[1] and span[2] <= end_ns]
    renumber = {old: new for new, old in enumerate(kept)}
    return [
        [spans[i][0], spans[i][1], spans[i][2], renumber.get(spans[i][3]), spans[i][4]]
        for i in kept
    ]


def has_ancestor(spans: Sequence[Span], index: int, names: Iterable[str]) -> bool:
    """Whether any enclosing span of ``spans[index]`` has one of ``names``."""
    wanted = set(names)
    parent = spans[index][3]
    while parent is not None:
        if spans[parent][0] in wanted:
            return True
        parent = spans[parent][3]
    return False


def summarize(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, total and self time in milliseconds."""
    table: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(span[0], {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["total_ms"] += (span[2] - span[1]) / 1e6
        row["self_ms"] += own / 1e6
    return table
