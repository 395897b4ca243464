"""Multi-core sharded execution (see docs/PARALLEL.md).

The engine executor's query tiles are independent by construction —
each carries its own ``query_subset`` against the shared Step-1 plan,
with preparation accounted on exactly one tile.  This package fans
those tiles across OS processes (or threads) and merges the per-shard
results back in tile order:

* :mod:`repro.parallel.shard` — :class:`ShardPlan` and the joint
  shard-count/tile-size decision (:func:`plan_shards`), plus the
  ``REPRO_WORKERS`` / ``REPRO_POOL`` resolution;
* :mod:`repro.parallel.worker` — the one tile loop
  (:func:`run_shard_task`): a worker's tiles against the Step-1 plan
  the caller built once, shipped by value or as a zero-copy handle;
* :mod:`repro.parallel.pool` — the process/thread/serial
  :class:`WorkerPool` and the shared-pool registry.

The correctness contract, enforced by the test suite: sharded results
and aggregate ``JoinStats``/funnel counters are **bit-for-bit
identical** to the serial run, for any worker count and pool kind.
"""

from .pool import WorkerPool, get_pool, shutdown_pools
from .shard import (MIN_ROWS_PER_SHARD, POOL_ENV, POOL_KINDS, ShardPlan,
                    WORKERS_ENV, plan_shards, resolve_pool_kind,
                    resolve_workers)
from .worker import ShardJob, ShardOutcome, ShardTask, run_shard_task

__all__ = [
    "WorkerPool", "get_pool", "shutdown_pools",
    "ShardPlan", "plan_shards", "resolve_workers", "resolve_pool_kind",
    "WORKERS_ENV", "POOL_ENV", "POOL_KINDS", "MIN_ROWS_PER_SHARD",
    "ShardJob", "ShardTask", "ShardOutcome", "run_shard_task",
]
