"""The adaptive scheme (Section IV-D, Fig. 8 of the paper).

Given a problem instance (Q, T, k, d) and the device limits, the
scheme configures Sweet KNN on the fly:

* **filter strength** — ``k / d < 8`` → full level-2 filtering with an
  updating bound; otherwise the partial filter (no ``kNearests``
  maintenance, no bound updates);
* **kNearests placement** — ``k*4 <= th1`` → shared memory,
  ``<= th2`` → registers, else global memory (full filter only);
* **parallelism** — query-level when ``|Q| >= r * max_cur``, else
  multi-level with ``ceil(r * max_cur / |Q|)`` threads per query.

:func:`basic_config` freezes the Section-III basic implementation
(column-major layout, global-memory kNearests with the Fig. 6
layout 2, no remapping, one thread per query, full filter), which is
the "KNN-TI" series of Fig. 9 / Table IV.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import obs
from .layout import Layout
from .parallelism import ParallelPlan, decide_parallelism
from .placement import BASE_REGS_PER_THREAD, PlacementDecision, decide_placement

__all__ = ["ExecutionConfig", "decide", "basic_config", "config_for_join",
           "FILTER_STRENGTH_RATIO", "filter_strength_for"]

#: Fig. 8's top decision: partial filtering pays off when k/d > 8.
FILTER_STRENGTH_RATIO = 8.0


def filter_strength_for(k, dim):
    """Fig. 8's top branch: the filter strength for a ``(k, d)`` pair.

    "the scenarios for the partial filtering to outperform the full
    filtering is when k/d > 8" — partial on strictly greater.  The
    simulated ``sweet`` engine follows it; the host flat tier runs the
    full filter at every shape (docs/SCHEDULER.md).
    """
    if int(k) / float(int(dim)) <= FILTER_STRENGTH_RATIO:
        return "full"
    return "partial"


@dataclass(frozen=True)
class ExecutionConfig:
    """A fully resolved execution configuration for the GPU pipelines."""

    filter_strength: str            # "full" | "partial"
    layout: Layout
    placement: PlacementDecision
    remap: bool
    parallel: ParallelPlan
    knearests_coalesced: bool = True  # Fig. 6 layout 2 vs layout 1
    block_size: int = 256

    @property
    def regs_per_thread(self):
        return self.placement.regs_per_thread

    @property
    def shared_bytes_per_thread(self):
        return self.placement.shared_bytes_per_thread

    def describe(self):
        return {
            "filter": self.filter_strength,
            "layout": self.layout.value,
            "kNearests": self.placement.placement.value,
            "remap": self.remap,
            "threads_per_query": self.parallel.threads_per_query,
        }


def decide(n_queries, n_targets, k, dim, avg_cluster_size, device,
           force_filter=None, force_placement=None, force_layout=None,
           threads_per_query=None, remap=True, knearests_coalesced=True,
           block_size=256):
    """Run the Fig. 8 decision tree; ``force_*`` hooks feed the
    sensitivity studies and ablations.

    Returns
    -------
    ExecutionConfig
    """
    k = int(k)
    dim = int(dim)

    if force_filter is not None:
        strength = force_filter
        filter_reason = "forced"
    else:
        strength = filter_strength_for(k, dim)
        filter_reason = "k/d=%.3f %s %g" % (
            k / float(dim), "<=" if strength == "full" else ">",
            FILTER_STRENGTH_RATIO)
    if strength not in ("full", "partial"):
        raise ValueError("filter strength must be 'full' or 'partial'")
    obs.event("adaptive.filter_strength", choice=strength,
              reason=filter_reason)
    obs.count("adaptive.filter.%s" % strength)

    if strength == "full":
        placement = decide_placement(k, device, force=force_placement)
    else:
        # The partial filter keeps no kNearests; only base registers.
        placement = PlacementDecision(
            placement=decide_placement(1, device).placement
            if force_placement is None else
            decide_placement(1, device, force=force_placement).placement,
            knearests_bytes=0,
            regs_per_thread=BASE_REGS_PER_THREAD,
            shared_bytes_per_thread=0)

    obs.event(
        "adaptive.placement", choice=placement.placement.value,
        reason=("forced" if force_placement is not None
                else "k*4=%d bytes vs device thresholds" % (k * 4)
                if strength == "full" else "partial filter keeps no kNearests"))
    obs.count("adaptive.placement.%s" % placement.placement.value)

    layout = Layout(force_layout) if force_layout else Layout.ROW_MAJOR

    parallel = decide_parallelism(
        n_queries, avg_cluster_size, device,
        regs_per_thread=placement.regs_per_thread,
        shared_bytes_per_thread=placement.shared_bytes_per_thread,
        block_size=block_size, threads_per_query=threads_per_query)
    obs.event(
        "adaptive.parallelism",
        threads_per_query=parallel.threads_per_query,
        reason=("forced" if threads_per_query is not None else
                "|Q|=%d vs device max concurrency" % n_queries))
    obs.count("adaptive.threads_per_query.%d" % parallel.threads_per_query)

    return ExecutionConfig(
        filter_strength=strength, layout=layout, placement=placement,
        remap=remap, parallel=parallel,
        knearests_coalesced=knearests_coalesced, block_size=block_size)


def config_for_join(join_plan, k, device, **overrides):
    """Resolve the Fig. 8 decisions for a prepared join plan.

    The scheme reads only aggregate quantities (|Q|, |T|, k, d and the
    average target-cluster size |T|/mt), so the decisions here are
    identical to what :func:`repro.engine.planner.plan` predicts from
    the shape alone — the planner's plans are the pipeline's plans.
    """
    ct = join_plan.target_clusters
    avg_cluster = ct.n_points / max(1, ct.n_clusters)
    return decide(join_plan.query_clusters.n_points, ct.n_points, int(k),
                  ct.dim, avg_cluster, device, **overrides)


def basic_config(n_queries, k, device, block_size=256):
    """The Section-III basic KNN-TI configuration (no Sweet features)."""
    placement = decide_placement(k, device, force="global")
    return ExecutionConfig(
        filter_strength="full",
        layout=Layout.COLUMN_MAJOR,
        placement=placement,
        remap=False,
        parallel=ParallelPlan(1, 1, 1, int(n_queries)),
        knearests_coalesced=True,  # the basic impl already picks layout 2
        block_size=block_size)
