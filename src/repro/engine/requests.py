"""Typed analysis requests and results, with JSON round-tripping.

:class:`AnalysisRequest` is the engine's unit of work: which problem to
solve, its scalar parameter (budget or threshold) and optionally a backend
forced by name.  :class:`AnalysisResult` carries the answer together with
structured metadata — which backend actually ran, wall-clock time, model
size, whether the session cache was hit — so service-style callers can
log, bill and debug analyses without parsing free text.

Both types serialize to plain JSON-compatible dicts (and back), which is
what the batch CLI sub-command and any future network service exchange.
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..core.problems import Problem
from ..pareto.front import ParetoFront, ParetoPoint

__all__ = ["AnalysisRequest", "AnalysisResult"]


@dataclass(frozen=True)
class AnalysisRequest:
    """One analysis to run against a model.

    Attributes
    ----------
    problem:
        Which of the six cost-damage problems to solve.
    budget:
        Cost budget; required by ``DGC``/``EDGC``.
    threshold:
        Damage threshold; required by ``CGD``/``CGED``.
    backend:
        Name of a registered backend to force, or ``None`` to let the
        registry resolve one following Table I.
    """

    problem: Problem
    budget: Optional[float] = None
    threshold: Optional[float] = None
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        if not isinstance(self.problem, Problem):
            object.__setattr__(self, "problem", Problem(self.problem))
        # Type-check the wire fields eagerly: this type is the service wire
        # format, and a string budget must fail here with a clear message,
        # not deep inside a solver with a field-less comparison error.
        for name in ("budget", "threshold"):
            value = getattr(self, name)
            if value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise ValueError(f"{name} must be a number, got {value!r}")
            # json parses NaN, and a NaN budget or threshold fails every
            # comparison, so solvers would answer as if it were absent.
            if value is not None and math.isnan(value):
                raise ValueError(f"{name} must be a number, got NaN")
        if self.backend is not None and not isinstance(self.backend, str):
            raise ValueError(f"backend must be a string name, got {self.backend!r}")

    # ------------------------------------------------------------------ #
    # validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Check the parameter required by the problem is present."""
        if self.problem in {Problem.DGC, Problem.EDGC} and self.budget is None:
            raise ValueError(f"problem {self.problem.value} requires a cost budget")
        if self.problem in {Problem.CGD, Problem.CGED} and self.threshold is None:
            raise ValueError(f"problem {self.problem.value} requires a damage threshold")

    def cache_key(self) -> Tuple[Any, ...]:
        """A hashable identity used by session caches."""
        return (self.problem.value, self.budget, self.threshold, self.backend)

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible representation."""
        payload: Dict[str, Any] = {"problem": self.problem.value}
        if self.budget is not None:
            payload["budget"] = self.budget
        if self.threshold is not None:
            payload["threshold"] = self.threshold
        if self.backend is not None:
            payload["backend"] = self.backend
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisRequest":
        """Rebuild a request from :meth:`to_dict` output."""
        unknown = set(data) - {"problem", "budget", "threshold", "backend"}
        if unknown:
            raise ValueError(f"unknown request fields: {sorted(unknown)!r}")
        if "problem" not in data:
            raise ValueError("request is missing the 'problem' field")
        return cls(
            problem=Problem(data["problem"]),
            budget=data.get("budget"),
            threshold=data.get("threshold"),
            backend=data.get("backend"),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisRequest":
        """Parse a request from a JSON string."""
        return cls.from_dict(json.loads(text))


def _front_to_list(front: ParetoFront) -> List[Dict[str, Any]]:
    points = []
    for point in front:
        entry: Dict[str, Any] = {"cost": point.cost, "damage": point.damage}
        if point.attack is not None:
            entry["attack"] = sorted(point.attack)
        if point.reaches_root is not None:
            entry["reaches_root"] = point.reaches_root
        points.append(entry)
    return points


def _front_from_list(points: List[Mapping[str, Any]]) -> ParetoFront:
    return ParetoFront(
        ParetoPoint(
            cost=entry["cost"],
            damage=entry["damage"],
            attack=None if entry.get("attack") is None else frozenset(entry["attack"]),
            reaches_root=entry.get("reaches_root"),
        )
        for entry in points
    )


@dataclass(frozen=True)
class AnalysisResult:
    """The answer to one :class:`AnalysisRequest`, with execution metadata.

    Attributes
    ----------
    request:
        The request this result answers.
    backend:
        Name of the backend that actually ran (after registry resolution).
    shape / setting:
        The resolved Table I cell, as strings (``"tree"``/``"dag"`` and
        ``"deterministic"``/``"probabilistic"``).
    front / value / witness:
        The analysis answer; fronts for CDPF/CEDPF, value-witness pairs for
        the single-objective problems (``value`` may be ``None`` when a
        threshold is unachievable).
    wall_time_seconds:
        Time spent inside the backend.  For cache hits this is the original
        computation's time, not the (near-zero) lookup time.
    cache_hit:
        Whether the session answered from its cache.
    node_count / bas_count:
        Size of the analyzed model.
    extras:
        Backend-specific metadata (e.g. ``bottom-up``'s ``shared_nodes``
        and ``width`` on a DAG).
    """

    request: AnalysisRequest
    backend: str
    shape: str
    setting: str
    front: Optional[ParetoFront] = None
    value: Optional[float] = None
    witness: Optional[FrozenSet[str]] = None
    wall_time_seconds: float = 0.0
    cache_hit: bool = False
    node_count: int = 0
    bas_count: int = 0
    extras: Dict[str, Any] = field(default_factory=dict)

    def as_cache_hit(self) -> "AnalysisResult":
        """A copy of this result marked as served from cache.

        ``extras`` is deep-copied so a caller mutating the returned dict
        (e.g. popping consumed standard errors) cannot corrupt the cached
        entry shared with future requests.
        """
        return replace(self, cache_hit=True, extras=copy.deepcopy(self.extras))

    # ------------------------------------------------------------------ #
    # JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-compatible representation."""
        payload: Dict[str, Any] = {
            "request": self.request.to_dict(),
            "backend": self.backend,
            "shape": self.shape,
            "setting": self.setting,
            "wall_time_seconds": self.wall_time_seconds,
            "cache_hit": self.cache_hit,
            "node_count": self.node_count,
            "bas_count": self.bas_count,
        }
        if self.front is not None:
            payload["front"] = _front_to_list(self.front)
        if self.value is not None:
            payload["value"] = self.value
        if self.witness is not None:
            payload["witness"] = sorted(self.witness)
        if self.extras:
            payload["extras"] = self.extras
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AnalysisResult":
        """Rebuild a result from :meth:`to_dict` output."""
        witness = data.get("witness")
        return cls(
            request=AnalysisRequest.from_dict(data["request"]),
            backend=data["backend"],
            shape=data["shape"],
            setting=data["setting"],
            front=None if data.get("front") is None else _front_from_list(data["front"]),
            value=data.get("value"),
            witness=None if witness is None else frozenset(witness),
            wall_time_seconds=data.get("wall_time_seconds", 0.0),
            cache_hit=data.get("cache_hit", False),
            node_count=data.get("node_count", 0),
            bas_count=data.get("bas_count", 0),
            extras=dict(data.get("extras", {})),
        )

    def to_json(self) -> str:
        """Serialize to a JSON string."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AnalysisResult":
        """Parse a result from a JSON string."""
        return cls.from_dict(json.loads(text))

    def summary(self) -> str:
        """One line suitable for logs: backend, timing, answer size."""
        if self.front is not None:
            answer = f"front with {len(self.front)} points"
        elif self.value is not None:
            answer = f"value {self.value:g}"
        else:
            answer = "no feasible attack"
        hit = " (cached)" if self.cache_hit else ""
        return (
            f"{self.request.problem.value} via {self.backend} "
            f"[{self.setting}/{self.shape}] in {self.wall_time_seconds * 1e3:.2f} ms"
            f"{hit}: {answer}"
        )
