"""Shard planning: how a query set is split across pool workers.

The planner's query-batching layer (PR 1) already defines the unit of
independent work — a query tile executed against the shared Step-1
plan via ``query_subset``.  :func:`plan_shards` chooses the tile size
and shard count *jointly* from the join shape, the device row budget
and the worker count: tiles never exceed the device budget, shrink
toward an even ``|Q| / workers`` split when more than one worker is
available, and never fall below :data:`MIN_ROWS_PER_SHARD` (tiny
inputs collapse back to the serial path, where a pool would only add
overhead).

Worker count and pool kind resolve from explicit arguments first, then
the ``REPRO_WORKERS`` / ``REPRO_POOL`` environment variables, then the
serial defaults — so existing callers see byte-identical behaviour
until they opt in.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import ValidationError

__all__ = [
    "ShardPlan", "plan_shards", "resolve_workers", "resolve_pool_kind",
    "WORKERS_ENV", "POOL_ENV", "MIN_ROWS_PER_SHARD", "POOL_KINDS",
]

#: Environment override for the default worker count (``--workers`` and
#: the ``workers=`` keyword take precedence).
WORKERS_ENV = "REPRO_WORKERS"

#: Environment override for the default pool kind.
POOL_ENV = "REPRO_POOL"

#: Below this many queries per shard, splitting further only buys
#: dispatch overhead (the per-shard work is micro-seconds).
MIN_ROWS_PER_SHARD = 32

POOL_KINDS = ("process", "thread", "serial")


def resolve_workers(workers=None):
    """Resolve a worker count: argument > ``REPRO_WORKERS`` > 1.

    ``0`` (or ``"auto"``) means one worker per available core; the
    default of 1 keeps execution serial.
    """
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "").strip()
        if not raw:
            return 1
        workers = raw
    if isinstance(workers, str):
        if workers.lower() == "auto":
            return _cpu_count()
        try:
            workers = int(workers)
        except ValueError:
            raise ValidationError(
                "workers must be an integer or 'auto', got %r"
                % (workers,)) from None
    workers = int(workers)
    if workers < 0:
        raise ValidationError("workers must be >= 0 (0 means auto)")
    if workers == 0:
        return _cpu_count()
    return workers


def resolve_pool_kind(kind=None):
    """Resolve a pool kind: argument > ``REPRO_POOL`` > ``"process"``."""
    if kind is None or kind == "":
        kind = os.environ.get(POOL_ENV, "").strip().lower() or "process"
    kind = str(kind).lower()
    if kind not in POOL_KINDS:
        raise ValidationError(
            "pool must be one of %s, got %r" % (", ".join(POOL_KINDS), kind))
    return kind


def _cpu_count():
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class ShardPlan:
    """The sharding decision for one join: who runs which query tile."""

    workers: int
    n_shards: int
    rows_per_shard: int
    kind: str = "process"

    @property
    def sharded(self):
        """Whether execution actually fans out (else: stay serial)."""
        return self.workers > 1 and self.n_shards > 1

    def ranges(self, n_queries):
        """The ``(start, stop)`` query ranges, in tile order."""
        rows = max(1, int(self.rows_per_shard))
        return [(start, min(start + rows, int(n_queries)))
                for start in range(0, int(n_queries), rows)]

    def describe(self):
        return {"workers": self.workers, "shards": self.n_shards,
                "rows_per_shard": self.rows_per_shard, "pool": self.kind}


def plan_shards(n_queries, budget_rows, workers, kind="process",
                min_rows=MIN_ROWS_PER_SHARD, fixed_rows=False):
    """Choose shard count and tile size jointly.

    Parameters
    ----------
    n_queries:
        |Q| for this join.
    budget_rows:
        The device-memory row budget (the serial tile size); shards
        never exceed it, so sharded tiles still fit the device.
    workers:
        Resolved worker count (see :func:`resolve_workers`).
    kind:
        Pool kind the plan is for.
    min_rows:
        Floor on the shard size — below it, fan-out costs more than it
        saves and the plan collapses to fewer (or one) worker.
    fixed_rows:
        ``True`` when the caller forced ``query_batch_size``: the tile
        size is then honoured exactly and only the assignment of tiles
        to workers changes.
    """
    n_queries = int(n_queries)
    workers = max(1, int(workers))
    if n_queries <= 0:
        return ShardPlan(workers=1, n_shards=1, rows_per_shard=1, kind=kind)
    rows = max(1, min(int(budget_rows), n_queries))
    if workers > 1 and not fixed_rows:
        even = -(-n_queries // workers)
        rows = min(rows, max(even, min(int(min_rows), n_queries)))
    n_shards = max(1, -(-n_queries // rows))
    return ShardPlan(workers=min(workers, n_shards), n_shards=n_shards,
                     rows_per_shard=rows, kind=kind)
