"""Shard execution: one worker's query tiles against shared Step-1 state.

A :class:`ShardTask` is what travels to a pool worker (or runs inline,
for the serial pool and the executor's batched path): one shared
:class:`ShardJob` (the join inputs) plus the list of query tiles that
worker owns.  For prepared-index engines the job carries the Step-1
state the caller built once — the :class:`~repro.core.ti_knn.JoinPlan`
— and every tile runs against it through a ``query_subset``; workers
never rebuild it.

Zero-copy: when the execution runs against a disk-backed
:class:`repro.index.Index` on a process pool, the job carries a
:class:`~repro.index.cache.PlanHandle` — the index *directory path*
plus its ``(fingerprint, version)`` identity and the query-side
clusters — instead of the plan and the target arrays.  The worker
reattaches the target side via ``np.load(..., mmap_mode="r")`` through
the process-level index cache, so every worker shares one page-cache
copy of the targets and the pickled payload is O(queries), not
O(targets).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs

__all__ = ["ShardJob", "ShardTask", "ShardOutcome", "run_shard_task"]


@dataclass(frozen=True)
class ShardJob:
    """The per-join inputs shared by every shard of one execution.

    In ``"shared"`` mode the job carries exactly one of ``plan`` (the
    caller's JoinPlan, pickled by value) and ``handle`` (a
    :class:`~repro.index.cache.PlanHandle` to a disk-backed index).
    With a handle the ``targets`` field ships as ``None`` and the worker
    derives the target matrix from the resolved plan.
    """

    engine: str
    mode: str                # "shared" (prepared plan) | "slice" (row slice)
    queries: np.ndarray
    targets: np.ndarray
    k: int
    rng: object = None
    device: object = None
    options: dict = field(default_factory=dict)
    plan: object = None      # the caller's JoinPlan
    handle: object = None    # PlanHandle, when the index is disk-backed
    account_index: int = 0   # the one shard that accounts preparation


@dataclass(frozen=True)
class ShardTask:
    """One worker's share of a job: the job plus its query tiles."""

    job: ShardJob
    shards: tuple            # ((tile index, start, stop), ...)


@dataclass
class ShardOutcome:
    """One executed tile, tagged for deterministic tile-order merging."""

    index: int
    start: int
    stop: int
    result: object
    worker: str = ""
    wall_s: float = 0.0


def _worker_name():
    import multiprocessing

    process = multiprocessing.current_process().name
    if process != "MainProcess":
        return process
    return threading.current_thread().name


def run_shard_task(task):
    """Execute one worker's tiles; returns a list of ShardOutcomes.

    Prepared-index engines get the job's plan plus a ``query_subset``,
    other engines get a plain row slice; preparation work is accounted
    on the job's designated shard only, so merged counters equal the
    unbatched totals.  Each tile runs in an ``engine.batch`` span, which
    is live when the task runs inline under the caller's tracer.
    """
    from ..engine.base import ExecutionContext
    from ..engine.registry import get_engine

    job = task.job
    spec = get_engine(job.engine)
    worker = _worker_name()
    plan = job.handle.resolve() if job.handle else job.plan
    targets = job.targets
    if targets is None:
        # Handle-shipped job: the target matrix is the mmap-backed
        # point set of the resolved plan, shared process-wide.
        targets = plan.target_clusters.points

    outcomes = []
    for index, start, stop in task.shards:
        begin = time.perf_counter()
        with obs.span("engine.batch", index=index, start=start, stop=stop):
            if job.mode == "shared":
                ctx = ExecutionContext(
                    rng=job.rng, device=job.device, plan=plan,
                    query_subset=np.arange(start, stop),
                    account_prepare=(index == job.account_index))
                result = spec.run(job.queries, targets, job.k, ctx,
                                  **job.options)
            else:
                ctx = ExecutionContext(rng=job.rng, device=job.device)
                result = spec.run(job.queries[start:stop], targets, job.k,
                                  ctx, **job.options)
        outcomes.append(ShardOutcome(
            index=index, start=start, stop=stop, result=result,
            worker=worker, wall_s=time.perf_counter() - begin))
    return outcomes
