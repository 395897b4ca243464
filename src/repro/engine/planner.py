"""Query planner: explicit, inspectable execution plans.

This module owns the two decisions that used to be scattered across the
pipelines:

* the **adaptive configuration** (Fig. 8) — wrapped from
  :mod:`repro.core.adaptive` into an :class:`ExecutionPlan` so callers
  (the CLI ``plan`` command, the bench harness, tests) can see what a
  join *would* do without running it;
* the **memory partitioning** — the Garcia-baseline row budget
  (:func:`dense_partition_rows`, formerly private to
  :mod:`repro.baselines.cublas_knn`) and the TI row budget
  (:func:`ti_partition_rows`, formerly private to
  :mod:`repro.core.gpu_pipeline`) now live side by side in one shared
  layer, and additionally drive the dispatcher's query-batch decision
  (:class:`QueryBatchPlan`) for prepared-index engines.

The planner is deliberately cheap: it never clusters any points.  The
adaptive scheme only reads aggregate shape quantities (|Q|, |T|, k, d,
the average target-cluster size |T|/mt), all of which are known before
Step 1 runs, so the plan it reports is exactly the configuration the
engine will resolve at run time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import obs

__all__ = ["ExecutionPlan", "QueryBatchPlan", "plan", "plan_shape",
           "ti_partition_rows", "dense_partition_rows", "partition_ranges"]

_FLOAT = 4  # device floats are 32-bit

#: ``decide()`` overrides the planner forwards; anything else an engine
#: accepts (epsilon, mq/mt, ...) does not change the Fig. 8 decisions.
_DECIDE_KEYS = frozenset([
    "force_filter", "force_placement", "force_layout", "threads_per_query",
    "remap", "knearests_coalesced", "block_size",
])


# ----------------------------------------------------------------------
# Shared memory-partitioning budgets
# ----------------------------------------------------------------------
def ti_partition_rows(n_q, n_t, dim, k, device, threads_per_query=1,
                      filter_strength="full"):
    """Queries per level-2 tile under the TI working-set budget.

    Fixed footprint: both point matrices, cluster metadata and the
    centre-distance table.  Per-query footprint: the kNearests slots
    (or the partial filter's survivor buffer) for every sub-thread —
    ``O(k)`` per query instead of the baseline's ``O(|T|)``, which is
    why TI partitions are rare and large (Section V-B).
    """
    base = (n_q + n_t) * dim * _FLOAT          # point matrices
    base += n_t * 2 * _FLOAT                   # member ids + distances
    base += int(3 * np.sqrt(n_q)) ** 2 * _FLOAT  # bound tables (approx)
    tpq = max(1, int(threads_per_query))
    if filter_strength == "full":
        per_query = k * _FLOAT * tpq
    else:
        # Survivor buffer, conservatively 4k entries per query.
        per_query = 4 * k * _FLOAT * tpq
    per_query += 2 * _FLOAT                    # map + bookkeeping

    usable = device.global_mem_bytes - base
    if usable <= 0:
        return max(1, n_q // 8)
    return max(1, min(n_q, usable // per_query))


def dense_partition_rows(n_q, n_t, dim, device):
    """Queries per group under the Garcia-baseline budget.

    The working set per group of ``g`` queries is the ``g * |T|``
    distance matrix plus the two point matrices, in device floats.
    """
    fixed = (n_q + n_t) * dim * _FLOAT
    per_query = n_t * _FLOAT
    usable = device.global_mem_bytes - fixed
    if usable <= 0:
        # Even the inputs are close to capacity; fall back to single
        # queries per group (the allocator will raise if truly stuck).
        return 1
    return max(1, min(n_q, usable // per_query))


def partition_ranges(n, rows):
    """Split ``range(n)`` into ``(start, stop)`` tiles of ``rows`` each."""
    rows = max(1, int(rows))
    return [(start, min(start + rows, n)) for start in range(0, n, rows)]


# ----------------------------------------------------------------------
# Execution plans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class QueryBatchPlan:
    """The dispatcher's query-tiling decision for one join."""

    rows_per_batch: int
    n_batches: int

    @property
    def batched(self):
        return self.n_batches > 1

    def ranges(self, n_queries):
        return partition_ranges(n_queries, self.rows_per_batch)


@dataclass(frozen=True)
class ExecutionPlan:
    """Everything the execution layer decided for one join shape.

    ``config`` is the Fig. 8 :class:`~repro.core.adaptive.ExecutionConfig`
    for the simulated-GPU TI engines, ``None`` for the host engines and
    the dense baseline (which have no adaptive knobs).
    """

    method: str
    n_queries: int
    n_targets: int
    k: int
    dim: int
    mq: int
    mt: int
    config: object
    batching: QueryBatchPlan
    device: object = None
    sharding: object = None  # repro.parallel.ShardPlan
    decision: object = None  # repro.sched.Decision

    def describe(self):
        """Flat dict for logging (bench harness, CLI ``plan``)."""
        info = {
            "method": self.method,
            "|Q|": self.n_queries, "|T|": self.n_targets,
            "k": self.k, "d": self.dim,
            "mq": self.mq, "mt": self.mt,
            "query_batches": self.batching.n_batches,
            "rows_per_batch": self.batching.rows_per_batch,
        }
        if self.sharding is not None:
            info["workers"] = self.sharding.workers
            info["shards"] = self.sharding.n_shards
            if self.sharding.sharded:
                info["rows_per_shard"] = self.sharding.rows_per_shard
                info["pool"] = self.sharding.kind
        if self.config is not None:
            info.update(self.config.describe())
        if self.device is not None:
            info["device"] = getattr(self.device, "name", str(self.device))
        if self.decision is not None:
            for key, value in self.decision.describe().items():
                info.setdefault(key, value)
        return info


def plan_shape(n_queries, n_targets, k, dim, method="sweet", device=None,
               mq=None, mt=None, workers=None, pool=None, **overrides):
    """Plan a join from its shape alone (no point data needed).

    This is the planner core; :func:`plan` is the array-taking wrapper.
    ``workers``/``pool`` feed the sharding decision (see
    :mod:`repro.parallel`); both default to the ``REPRO_WORKERS`` /
    ``REPRO_POOL`` environment and ultimately to serial execution.
    """
    with obs.span("planner.plan", method=method, n_queries=int(n_queries),
                  n_targets=int(n_targets), k=int(k), dim=int(dim)) as sp:
        exec_plan = _plan_shape(n_queries, n_targets, k, dim, method=method,
                                device=device, mq=mq, mt=mt, workers=workers,
                                pool=pool, **overrides)
        sp.annotate(mq=exec_plan.mq, mt=exec_plan.mt,
                    rows_per_batch=exec_plan.batching.rows_per_batch,
                    query_batches=exec_plan.batching.n_batches,
                    workers=exec_plan.sharding.workers,
                    shards=exec_plan.sharding.n_shards)
        return exec_plan


def _plan_shape(n_queries, n_targets, k, dim, method="sweet", device=None,
                mq=None, mt=None, workers=None, pool=None, **overrides):
    # Imported lazily so the planner module itself has no core/gpu
    # dependencies (several core modules import the partition budgets
    # above at import time).
    from ..core.adaptive import basic_config, decide
    from ..core.landmarks import determine_landmark_count
    from ..gpu.device import tesla_k20c
    from ..sched import decide as sched_decide
    from .registry import get_engine

    decision = sched_decide(n_queries, n_targets, k, dim, method=method,
                            workers=workers, pool=pool,
                            filter_strength=overrides.get("filter_strength"))
    method = decision.engine
    spec = get_engine(method)
    caps = spec.caps
    n_queries, n_targets, k, dim = (int(n_queries), int(n_targets), int(k),
                                    int(dim))
    if caps.needs_device:
        device = device or tesla_k20c()
    budget = device.global_mem_bytes if device is not None else None

    if caps.supports_prepared_index:
        if mq is None:
            mq = determine_landmark_count(n_queries, budget)
        if mt is None:
            mt = determine_landmark_count(n_targets, budget)
    else:
        mq = mq or 0
        mt = mt or 0

    config = None
    if caps.needs_device and caps.supports_prepared_index:
        knobs = {key: value for key, value in overrides.items()
                 if key in _DECIDE_KEYS}
        if method == "ti-gpu":
            config = basic_config(n_queries, k, device)
        else:
            avg_cluster = n_targets / max(1, mt)
            config = decide(n_queries, n_targets, k, dim, avg_cluster,
                            device, **knobs)

    if caps.needs_device and caps.supports_prepared_index:
        rows = ti_partition_rows(
            n_queries, n_targets, dim, k, device,
            threads_per_query=config.parallel.threads_per_query,
            filter_strength=config.filter_strength)
    elif caps.needs_device and caps.tiles_internally:
        rows = dense_partition_rows(n_queries, n_targets, dim, device)
    else:
        rows = n_queries
    rows = max(1, int(rows))
    n_batches = max(1, -(-n_queries // rows))

    from dataclasses import replace

    from ..parallel.shard import plan_shards, resolve_pool_kind, \
        resolve_workers
    sharding = plan_shards(n_queries, rows, resolve_workers(workers),
                           kind=resolve_pool_kind(pool))
    # Re-anchor the record on the actual shard split (the decision was
    # made before the device row budget was known).
    decision = replace(decision, workers=sharding.workers,
                       n_shards=sharding.n_shards)

    return ExecutionPlan(
        method=method, n_queries=n_queries, n_targets=n_targets, k=k,
        dim=dim, mq=int(mq), mt=int(mt), config=config,
        batching=QueryBatchPlan(rows_per_batch=rows, n_batches=n_batches),
        device=device, sharding=sharding, decision=decision)


def plan(queries, targets, k, method="sweet", device=None, mq=None, mt=None,
         **overrides):
    """Public planning API: what would ``knn_join`` decide for this input?

    Returns the :class:`ExecutionPlan` — adaptive configuration,
    landmark counts and the query-batching decision — without touching
    the data beyond reading its shape.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if queries.ndim != 2 or targets.ndim != 2:
        raise ValueError("queries and targets must be 2-D arrays")
    return plan_shape(queries.shape[0], targets.shape[0], k,
                      queries.shape[1], method=method, device=device,
                      mq=mq, mt=mt, **overrides)
