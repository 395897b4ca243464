"""Unified execution engine: backend registry, planner, batched execution.

Three layers (see DESIGN.md, "Architecture: engines, planner, prepared
index"):

1. :mod:`repro.engine.base` / :mod:`repro.engine.registry` — the
   :class:`EngineSpec` protocol with declared capabilities, and the
   registry that ``repro.METHODS``, the CLI method list and third-party
   engines all share.
2. :mod:`repro.engine.planner` — the public :func:`plan` API: the
   Fig. 8 adaptive configuration plus the device-memory partitioning
   budgets, wrapped in an inspectable :class:`ExecutionPlan`.
3. :mod:`repro.engine.prepared` / :mod:`repro.engine.executor` —
   :class:`PreparedIndex` ("cluster once, query many") and the batched
   dispatcher that tiles oversized query sets and merges per-batch
   results.

Heavier submodules load lazily so that core modules may import
:mod:`repro.engine.base` without cycles.
"""

from __future__ import annotations

from importlib import import_module

from .base import EngineCaps, EngineSpec, ExecutionContext
from .registry import (METHODS, MethodsView, engine_names, get_engine,
                       register, unregister)

__all__ = [
    "EngineCaps", "EngineSpec", "ExecutionContext",
    "METHODS", "MethodsView", "engine_names", "get_engine",
    "register", "unregister",
    "ExecutionPlan", "QueryBatchPlan", "plan", "plan_shape",
    "ti_partition_rows", "dense_partition_rows", "partition_ranges",
    "PreparedIndex", "execute",
]

_LAZY = {
    "ExecutionPlan": ".planner",
    "QueryBatchPlan": ".planner",
    "plan": ".planner",
    "plan_shape": ".planner",
    "ti_partition_rows": ".planner",
    "dense_partition_rows": ".planner",
    "partition_ranges": ".planner",
    "PreparedIndex": ".prepared",
    "execute": ".executor",
}


def __getattr__(name):
    if name in _LAZY:
        value = getattr(import_module(_LAZY[name], __name__), name)
        globals()[name] = value
        return value
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
