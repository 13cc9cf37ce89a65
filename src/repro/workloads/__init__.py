"""Declarative, reproducible benchmark workloads.

This package is the scenario layer of the benchmark subsystem: a
:class:`ScenarioSpec` names a workload *family* plus shape, setting, size
sweep, seed and decoration ranges, and :func:`expand` turns it into
decorated attack-tree models.  Expansion is fully deterministic in the
spec, so a spec embedded in a ``BENCH_*.json`` artifact regenerates the
exact models the numbers were measured on.

See :mod:`repro.workloads.families` for the built-in families and the
registry, and :mod:`repro.bench` for the harness that times the expanded
workloads through the analysis engine.
"""

from .._lazy import lazy_exports

_EXPORTS = {
    "CatalogFamily": "families",
    "DecorationRanges": "spec",
    "DeepChainFamily": "families",
    "RandomFamily": "families",
    "SETTINGS": "spec",
    "SHAPES": "spec",
    "ScenarioSpec": "spec",
    "SharedBasFamily": "families",
    "WideFanFamily": "families",
    "WorkloadCase": "families",
    "WorkloadFamily": "families",
    "describe_families": "families",
    "expand": "families",
    "family": "families",
    "family_names": "families",
    "register_family": "families",
}

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = list(_EXPORTS)
