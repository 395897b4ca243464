"""The level-2 filtering scan of one simulated GPU thread.

This is Algorithm 2 (and its partial-filter variant) as executed by
one lane, producing both the numeric result and a
:class:`~repro.gpu.lanelog.LaneLog` — one entry per lock-step warp
step — that the warp folding turns into divergence, coalescing and
cycle accounting.

Step codes (divergence is "active lanes disagree on the code"):

====  =======================================================
code  meaning
====  =======================================================
5     kernel prologue: load the query point
0     enter the next candidate cluster, compute ``d(q, c_t)``
1     bound exceeded, ``break`` out of the cluster
2     ``lb < -theta``: skip this member, keep scanning
3     bound passed: compute the exact distance (no heap update)
4     computed distance entered ``kNearests`` (the update branch)
====  =======================================================

Codes 3 and 4 are distinct because the update path is a real branch:
"the divergences could happen when different queries have different
updates to kNearests" (Section IV-A) — lanes that insert while their
warp-mates only compare serialize the step.

A :class:`~repro.core.parallelism.SubscanSpec` restricts the scan to a
strided share of the clusters and members (multi-thread-per-query
mode); member strides preserve the descending order that makes the
early ``break`` sound.

Implementation note — the scan follows Algorithm 2's sequential
semantics *exactly* (the test suite asserts step-for-step parity with
the reference filter in :mod:`repro.core.filters`), but exploits that
``lb = d(q, c_t) - d(t, c_t)`` is ascending along a cluster's sorted
member list: runs of skips are located with ``searchsorted`` and
logged in bulk, and exact distances are computed in vectorised windows
that are then *walked* sequentially so bound updates keep their exact
effect.
"""

from __future__ import annotations

import math

import numpy as np

from ..gpu.lanelog import LaneLog
from .bounds import pair_distances
from .filters import ScanTrace, bound_comparison_tol
from .layout import point_load_transactions
from .predicates import CollectAccumulator, TopKAccumulator

__all__ = ["scan_query_logged", "CODE_PROLOGUE", "CODE_ENTER", "CODE_BREAK",
           "CODE_SKIP", "CODE_COMPUTE", "CODE_COMPUTE_UPDATE"]

CODE_PROLOGUE = 5
CODE_ENTER = 0
CODE_BREAK = 1
CODE_SKIP = 2
CODE_COMPUTE = 3
CODE_COMPUTE_UPDATE = 4

#: Arithmetic ops of a bound check: subtract, two compares.
_CHECK_FLOPS = 3.0

#: Members whose exact distances are computed per vectorised batch.
_WINDOW = 64


def scan_query_logged(query_point, target_clusters, candidate_ids, ub, k,
                      layout, strength="full", spec=None,
                      update_bound=True, point_hit_rate=0.0, epsilon=0.0):
    """Run one thread's level-2 scan, logging every warp step.

    Parameters
    ----------
    query_point:
        Coordinates of the query this thread serves.
    target_clusters:
        :class:`~repro.core.clustering.ClusteredSet` of the targets.
    candidate_ids:
        Level-1 survivors in ascending centre-distance order.
    ub:
        The query cluster's level-1 upper bound.
    k:
        Neighbours to keep.
    layout:
        :class:`~repro.core.layout.Layout` of the point matrices.
    strength:
        ``"full"`` maintains a per-thread heap with an updating bound;
        ``"partial"`` keeps the bound fixed and stores survivors.
    spec:
        Optional :class:`SubscanSpec` for multi-thread-per-query mode.
    update_bound:
        Full filter only: allow tightening ``theta`` (disabled in some
        ablations).
    point_hit_rate:
        L2 hit fraction for scattered target-point loads (the centre
        and member-distance arrays are small enough to always be L2
        resident; the point matrix competes with everything else).
    epsilon:
        Approximation slack (an *extension* beyond the paper, in the
        spirit of the approximate methods its related work cites).
        Once the heap holds k real neighbours, pruning uses the
        tightened bound ``theta / (1 + epsilon)``: every point pruned
        under slack is farther than ``theta / (1 + epsilon) >=
        kth_returned / (1 + epsilon)``, so the returned k-th distance
        is at most ``(1 + epsilon)`` times the true one — and the heap
        always fills because pruning stays exact until it does.  Only
        the full filter applies slack (the partial filter has no heap
        to certify k results with); ``0.0`` (default) is exact.

    Returns
    -------
    (heap_or_survivors, trace, log)
        For the full filter a :class:`KNearestHeap`; for the partial
        filter a list of ``(distance, target_index)`` survivors.
    """
    dim = target_clusters.dim
    point_txns = point_load_transactions(dim, layout)
    dist_flops = 3.0 * dim + 1.0
    log = LaneLog()
    trace = ScanTrace()
    # Each lane streams its clusters' member-distance arrays
    # sequentially, so a 128-byte transaction covers 32/stride of its
    # 4-byte reads (per-lane amortisation; no cross-lane sharing).
    md_txn = (spec.member_stride if spec is not None else 1) / 32.0
    hit = min(1.0, max(0.0, float(point_hit_rate)))
    point_dram = point_txns * (1.0 - hit)
    point_l2 = point_txns * hit
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    slack = 1.0 + float(epsilon)
    full = strength == "full"
    # The scan's bound machinery is a predicate accumulator (see
    # repro.core.predicates): the full filter is the updating-θ top-k
    # accumulator (with the (1+ε) slack folded into its limit()), the
    # partial filter the fixed-bound collector.
    acc = (TopKAccumulator(k, ub, slack=slack, update_bound=update_bound)
           if full else CollectAccumulator(ub))
    heap_update_ops = 2.0 * math.log2(max(2, k))

    log.step(flops=0.0, txns=point_dram, l2=point_l2, code=CODE_PROLOGUE)
    qp = np.asarray(query_point, dtype=np.float64)
    points = target_clusters.points
    centers = target_clusters.centers

    if spec is None:
        my_clusters = candidate_ids
        member_offset, member_stride = 0, 1
    else:
        my_clusters = candidate_ids[spec.cluster_offset::spec.cluster_stride]
        member_offset, member_stride = spec.member_offset, spec.member_stride

    compute_flops = _CHECK_FLOPS + dist_flops
    compute_l2 = md_txn + point_l2

    # All centre distances of this thread's clusters in one shot
    # (numerically identical to per-cluster evaluation; the kernel
    # computes them one per cluster entry — the logging below keeps
    # that cost structure).
    if len(my_clusters):
        c_diffs = centers[my_clusters] - qp
        q2tc_all = np.sqrt(np.einsum("ij,ij->i", c_diffs, c_diffs))
    log_step = log.step

    for ci in range(len(my_clusters)):
        tc = my_clusters[ci]
        q2tc = q2tc_all[ci]
        trace.center_distance_computations += 1
        # Centre coordinates are a hot, L2-resident structure.
        log_step(flops=dist_flops, l2=point_txns, code=CODE_ENTER)

        member_idx = target_clusters.members[tc][member_offset::member_stride]
        md = target_clusters.member_dists[tc][member_offset::member_stride]
        if md.size == 0:
            continue
        lb = q2tc - md  # ascending: members are sorted descending
        tol = bound_comparison_tol(q2tc, ub)

        if full:
            _scan_cluster_full(
                lb, member_idx, points, qp, acc, log, trace,
                md_txn, compute_flops, compute_l2, point_dram,
                heap_update_ops, tol)
        else:
            # The partial filter keeps exact bounds: with no heap it
            # cannot certify k results under slackened pruning.
            _scan_cluster_partial(
                lb, member_idx, points, qp, acc, log, trace, md_txn,
                compute_flops, compute_l2, point_dram, tol)

    trace.accepted = acc.accepted
    result = acc.heap if full else acc.pairs
    return result, trace, log


def _scan_cluster_full(lb, member_idx, points, qp, acc, log, trace,
                       md_txn, compute_flops, compute_l2, point_dram,
                       heap_update_ops, tol=0.0):
    """Algorithm 2's member loop over one cluster.

    The accumulator owns the bound: ``acc.limit()`` is ``theta``
    (tightened to ``theta / slack`` in approximate mode once the heap
    is full — until then pruning stays exact so the heap is guaranteed
    to fill).  ``tol`` is the float comparison slack
    (:func:`~repro.core.filters.bound_comparison_tol`), matching the
    sequential reference decision for decision.
    """
    size = lb.shape[0]
    pos = 0
    while pos < size:
        limit = acc.limit() + tol
        value = lb[pos]
        if value > limit:
            trace.steps += 1
            trace.breaks += 1
            log.step(flops=_CHECK_FLOPS, l2=md_txn, code=CODE_BREAK)
            return
        if value < -limit:
            # A run of skips: lb is ascending, so every position up to
            # the first lb >= -limit is skipped under the current
            # bound (which cannot change while skipping).
            run_end = max(int(np.searchsorted(lb, -limit, side="left")),
                          pos + 1)
            count = run_end - pos
            trace.steps += count
            log.bulk(count, flops=_CHECK_FLOPS, l2=md_txn, code=CODE_SKIP)
            pos = run_end
            continue
        # Compute phase: batch the exact distances for a window, then
        # walk it sequentially so theta updates keep exact semantics
        # (distances precomputed for steps the walk later skips or
        # breaks on are wall-clock waste only — never logged/counted).
        stop = int(np.searchsorted(lb, limit, side="right"))
        window_end = min(stop, pos + _WINDOW, size)
        w_idx = member_idx[pos:window_end]
        w_dists = pair_distances(qp[None, :], points,
                                 np.zeros(w_idx.size, np.int64), w_idx)
        for j in range(pos, window_end):
            limit = acc.limit() + tol
            value = lb[j]
            if value > limit:
                trace.steps += 1
                trace.breaks += 1
                log.step(flops=_CHECK_FLOPS, l2=md_txn, code=CODE_BREAK)
                return
            if value < -limit:
                trace.steps += 1
                log.step(flops=_CHECK_FLOPS, l2=md_txn, code=CODE_SKIP)
                continue
            trace.steps += 1
            trace.examined += 1
            trace.distance_computations += 1
            dist = w_dists[j - pos]
            heap_ops = 1.0  # compare against the root
            code = CODE_COMPUTE
            if acc.offer(dist, member_idx[j]):
                trace.heap_updates += 1
                heap_ops += heap_update_ops
                code = CODE_COMPUTE_UPDATE
            log.step(flops=compute_flops, txns=point_dram, l2=compute_l2,
                     heap_ops=heap_ops, code=code)
        pos = window_end
    return


def _scan_cluster_partial(lb, member_idx, points, qp, acc, log, trace,
                          md_txn, compute_flops, compute_l2, point_dram,
                          tol=0.0):
    """The weakened filter's member loop: theta fixed, so the skip
    prefix, compute range and break point are pure positional
    thresholds and everything vectorises."""
    size = lb.shape[0]
    theta = acc.limit()
    skip_end = int(np.searchsorted(lb, -(theta + tol), side="left"))
    stop = int(np.searchsorted(lb, theta + tol, side="right"))

    if skip_end:
        trace.steps += skip_end
        log.bulk(skip_end, flops=_CHECK_FLOPS, l2=md_txn, code=CODE_SKIP)

    count = stop - skip_end
    if count > 0:
        w_idx = member_idx[skip_end:stop]
        w_dists = pair_distances(qp[None, :], points,
                                 np.zeros(w_idx.size, np.int64), w_idx)
        acc.bulk(w_dists.tolist(), w_idx.tolist())
        trace.steps += count
        trace.examined += count
        trace.distance_computations += count
        # The surviving distance is stored as a scattered 4-byte
        # write: one 32-byte sector.
        log.bulk(count, flops=compute_flops, txns=point_dram + 0.25,
                 l2=compute_l2, code=CODE_COMPUTE)

    if stop < size:
        trace.steps += 1
        trace.breaks += 1
        log.step(flops=_CHECK_FLOPS, l2=md_txn, code=CODE_BREAK)
