"""The two-level TI filters (Steps 2-3 of Fig. 4; Algorithms 1-2).

This module holds the *algorithmic* filter logic, shared by the
sequential CPU reference (:mod:`repro.core.ti_knn`) and re-implemented
warp-vectorised by the GPU kernels (:mod:`repro.core.basic_gpu`,
:mod:`repro.core.sweet`) — the test suite asserts the implementations
make identical filtering decisions.

Level-1 (cluster level)
    :func:`cluster_upper_bounds` computes, per query cluster, an upper
    bound ``UB`` on every member's k-th nearest-neighbour distance by
    pooling two-landmark upper bounds over all target clusters
    (``calUB``/``getUBs``).  :func:`level1_filter` then drops every
    target cluster whose group-to-group lower bound (``getLB``) is not
    below ``UB``.

Level-2 (point level)
    :func:`point_filter_full` scans the candidate clusters' members in
    descending point-to-centre order, applying the one-landmark bound
    ``l = d(q, c_t) - d(t, c_t)`` with an *updating* bound ``theta``
    (Algorithm 2).  :func:`point_filter_partial` is Sweet KNN's
    weakened filter (Section IV-B1): ``theta`` stays at the level-1
    ``UB``, no ``kNearests`` is maintained during the scan, and the
    surviving distances are k-selected afterwards.

Deviation from the paper, documented: Algorithm 2 seeds ``kNearests``
with the query cluster's k pooled upper bounds.  Seeding the heap with
bounds whose (anonymous) witness targets may later also be inserted as
computed distances can double-count a target and over-tighten
``theta``; we instead use the scalar ``UB`` until k *computed*
distances exist, which is provably exact and only marginally weaker
early in the scan.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter

import numpy as np

from ..kselect import select_k_from_pairs
from .bounds import euclidean
from .memo import IdentityMemo
from .predicates import CollectAccumulator, TopKAccumulator

__all__ = [
    "cluster_upper_bounds", "level1_filter", "point_scan",
    "point_filter_full", "point_filter_partial", "ScanTrace",
    "SCAN_COUNTERS", "trace_counters", "tail_bound_matrix",
    "bound_comparison_tol", "center_distance_rows",
]

#: Relative slack for the level-2 bound comparisons.  ``theta`` descends
#: from the level-1 chain (pairwise centre distances + member-distance
#: tails) while the scan computes ``d(q, c_t)`` directly; the two can
#: disagree in the last ulp on degenerate inputs (e.g. duplicated
#: points), where a strict comparison would prune an exact tie and lose
#: a true neighbour.  Pruning against ``theta + tol`` instead only ever
#: widens the examined set, so exactness is preserved.
BOUND_COMPARISON_RTOL = 1e-12

#: Chunk budget (in float64 elements, ~32 MB) for the batched ``calUB``
#: pooling intermediate in :func:`cluster_upper_bounds`.
_POOL_CHUNK_ELEMS = 4_000_000

_tails_memo = IdentityMemo()     # ClusteredSet -> {k: tail-bound matrix}


def bound_comparison_tol(q2tc, ub):
    """Absolute comparison slack for one cluster's member scan.

    Shared by the sequential reference here and the simulated GPU lanes
    (:mod:`repro.core.scan`), which must make identical decisions.
    """
    return BOUND_COMPARISON_RTOL * (abs(q2tc) + abs(ub) + 1.0)


# ----------------------------------------------------------------------
# Level-1 filtering
# ----------------------------------------------------------------------
def tail_bound_matrix(target_clusters, k):
    """Per target cluster, the k smallest member-to-centre distances.

    Returns a read-only (|CT|, k) matrix padded with ``inf`` for
    clusters smaller than k.  Because target members are stored in
    *descending* order, the k smallest distances are the reversed
    tail — these are the ``u, v, w`` points of the paper's Fig. 5.
    Pure target-side state, so it is computed once per clustered set
    and ``k`` (:class:`~repro.core.memo.IdentityMemo`).
    """
    k = int(k)
    return _tails_memo.get(target_clusters,
                           lambda: _tail_bounds(target_clusters, k), key=k)


def _tail_bounds(ct, k):
    tails = np.full((ct.n_clusters, k), np.inf, dtype=np.float64)
    sizes = ct.cluster_sizes()
    total = int(sizes.sum())
    if total:
        # One gather instead of a per-cluster Python loop: cluster
        # ``cid``'s j-th smallest distance is ``dists[size - 1 - j]``
        # (members are stored descending), i.e. position
        # ``end[cid] - 1 - j`` of the concatenated distance array.
        flat = np.concatenate(ct.member_dists)
        ends = np.cumsum(sizes)
        cols = np.arange(k)
        valid = cols[None, :] < np.minimum(sizes, k)[:, None]
        source = ends[:, None] - 1 - cols[None, :]
        tails[valid] = flat[source[valid]]
    tails.setflags(write=False)
    return tails


def cluster_upper_bounds(query_clusters, target_clusters, center_dists, k,
                         tails=None):
    """``calUB`` for every query cluster at once.

    For query cluster i and target cluster j, ``getUBs`` returns
    ``radius_q[i] + d(cq_i, ct_j) + tail_j`` (two-landmark UB, Eq. 4,
    applied to the query farthest from its centre and the k targets
    closest to theirs).  Pooling over j and taking the k-th smallest
    gives a value no smaller than any member's k-th NN distance.

    Returns
    -------
    ndarray
        (|CQ|,) array of per-query-cluster upper bounds.
    """
    if tails is None:
        tails = tail_bound_matrix(target_clusters, k)
    k = int(k)
    mq = query_clusters.n_clusters
    radius_q = np.asarray(query_clusters.radius, dtype=np.float64)
    center_dists = np.asarray(center_dists, dtype=np.float64)
    pooled_per_qc = tails.size  # |CT| * k candidate bounds per query cluster
    ubs = np.empty(mq, dtype=np.float64)
    # Batched over query clusters, in chunks that keep the pooled
    # (rows, |CT|, k) intermediate under a fixed footprint.
    chunk = max(1, int(_POOL_CHUNK_ELEMS // max(1, pooled_per_qc)))
    for start in range(0, mq, chunk):
        stop = min(start + chunk, mq)
        pooled = (radius_q[start:stop, None, None]
                  + center_dists[start:stop, :, None]
                  + tails[None, :, :]).reshape(stop - start, -1)
        if k < pooled_per_qc:
            ubs[start:stop] = np.partition(pooled, k - 1, axis=1)[:, k - 1]
        else:
            ubs[start:stop] = pooled.max(axis=1)
    return ubs


def level1_filter(query_clusters, target_clusters, center_dists, ubs):
    """``groupFilter`` (Algorithm 1) for every query cluster.

    A target cluster j survives for query cluster i when the
    group-to-group lower bound
    ``d(cq_i, ct_j) - radius_q[i] - radius_t[j]`` does not exceed
    ``UB_i``.  ``ubs`` is the per-query-cluster bound vector (|CQ|,);
    predicates whose bound lives on the *target* side (reverse-KNN's
    per-cluster max k-th distance) pass a broadcastable
    (1, |CT|)-shaped bound matrix instead.
    (The paper's pseudo-code uses a strict ``<``; we keep
    exact ties, which is required for exactness on degenerate inputs
    where the bound and the k-th distance coincide, e.g. duplicated
    points.)  Survivors are sorted by ascending centre distance (the
    ``S.sort()`` of ``pointFilter``), which both tightens ``theta``
    fast and is what the level-2 kernels expect.

    Returns
    -------
    list of ndarray
        Per query cluster, the candidate target-cluster ids.
    """
    radius_q = np.asarray(query_clusters.radius, dtype=np.float64)
    radius_t = np.asarray(target_clusters.radius, dtype=np.float64)
    sizes = target_clusters.cluster_sizes()
    center_dists = np.asarray(center_dists, dtype=np.float64)
    # All |CQ| x |CT| pairs at once: the per-cluster Python loop this
    # replaces computed the same lower bounds row by row.  Dropped pairs
    # are masked to inf so a single stable argsort along axis 1 yields,
    # per row, the survivors in ascending centre distance followed by
    # the masked columns — exactly ``keep[argsort(cd[keep])]`` because
    # a stable sort preserves index order among equal (inf) keys.
    bounds = np.asarray(ubs, dtype=np.float64)
    if bounds.ndim == 1:
        bounds = bounds[:, None]
    lbs = center_dists - radius_q[:, None] - radius_t[None, :]
    keep = (lbs <= bounds) & (sizes > 0)[None, :]
    masked = np.where(keep, center_dists, np.inf)
    order = np.argsort(masked, axis=1, kind="stable")
    counts = keep.sum(axis=1)
    return [order[qc, :counts[qc]].copy()
            for qc in range(query_clusters.n_clusters)]


# ----------------------------------------------------------------------
# Level-2 filtering (sequential reference scans)
# ----------------------------------------------------------------------
@dataclass
class ScanTrace:
    """Work counters for one query's level-2 scan."""

    examined: int = 0
    distance_computations: int = 0
    center_distance_computations: int = 0
    heap_updates: int = 0
    accepted: int = 0
    breaks: int = 0
    steps: int = 0  # lock-step-equivalent inner iterations

    def merge(self, other):
        self.examined += other.examined
        self.distance_computations += other.distance_computations
        self.center_distance_computations += other.center_distance_computations
        self.heap_updates += other.heap_updates
        self.accepted += other.accepted
        self.breaks += other.breaks
        self.steps += other.steps
        return self


#: :class:`ScanTrace`'s fields in the column order of a level-2 counter
#: block: one int64 ``(queries, 7)`` array per scan call
#: (:class:`repro.core.ti_knn.Level2`).
SCAN_COUNTERS = tuple(f.name for f in fields(ScanTrace))

_trace_row = attrgetter(*SCAN_COUNTERS)


def trace_counters(traces):
    """The counter block of per-query :class:`ScanTrace` objects."""
    return np.array([_trace_row(trace) for trace in traces],
                    dtype=np.int64).reshape(-1, len(SCAN_COUNTERS))


def point_scan(query_point, query_index, target_clusters, candidate_ids,
               accumulator, center_dists_row=None):
    """One query's level-2 member scan against a predicate accumulator.

    This is Algorithm 2's loop with the bound machinery factored out:
    the accumulator supplies the pruning limit (``limit()``), the
    comparison-slack reference (``tol_ref``), a pre-distance admission
    gate (``admit``) and the acceptance check (``offer``) — the top-k,
    ε-range and reverse-KNN predicates all run through this one loop
    (see :mod:`repro.core.predicates`).

    Parameters
    ----------
    query_point:
        The query's coordinates.
    query_index:
        Its index (for self-join admission and the trace).
    target_clusters:
        :class:`~repro.core.clustering.ClusteredSet` of the targets.
    candidate_ids:
        Level-1 survivors, ascending by centre distance.
    accumulator:
        The predicate's scan state (see :mod:`repro.core.predicates`).
    center_dists_row:
        Optional precomputed distances from this query to every target
        centre; when absent they are computed (and counted) here, like
        Algorithm 2 line 6.

    Returns
    -------
    ScanTrace
        The scan's work counters; accepted pairs live in the
        accumulator.
    """
    acc = accumulator
    trace = ScanTrace()
    points = target_clusters.points

    for tc in candidate_ids:
        if center_dists_row is not None:
            q2tc = center_dists_row[tc]
        else:
            q2tc = euclidean(query_point, target_clusters.centers[tc])
        trace.center_distance_computations += 1
        member_idx = target_clusters.members[tc]
        member_dists = target_clusters.member_dists[tc]
        acc.enter_cluster(tc)
        tol = bound_comparison_tol(q2tc, acc.tol_ref)
        # ``limit()`` only changes when the accumulator's bound state
        # mutates — an accepted offer (top-k θ tightening) or cluster
        # entry (reverse-KNN) — so the ``limit() + tol`` sum is hoisted
        # out of the member loop and refreshed exactly at those points:
        # identical decisions, recomputed ~updates times instead of
        # once per member.
        limit = acc.limit() + tol

        for pos in range(member_idx.size):
            trace.steps += 1
            lb = q2tc - member_dists[pos]
            if lb > limit:
                trace.breaks += 1
                break
            if lb < -limit:
                continue
            trace.examined += 1
            t = member_idx[pos]
            if not acc.admit(t):
                continue
            dist = euclidean(query_point, points[t])
            trace.distance_computations += 1
            if acc.offer(dist, t):
                limit = acc.limit() + tol

    trace.heap_updates = acc.updates
    trace.accepted = acc.accepted
    return trace


def point_filter_full(query_point, query_index, target_clusters,
                      candidate_ids, ub, k, center_dists_row=None):
    """Algorithm 2 for one query point, with an updating ``theta``.

    A thin wrapper binding :func:`point_scan` to a
    :class:`~repro.core.predicates.TopKAccumulator` — decision-for-
    decision identical to the historical inlined scan (``theta``
    descends from ``ub`` via ``min(ub, heap.max_distance)``; the
    comparison slack is computed from ``ub``).

    Returns
    -------
    (heap, trace)
        The filled :class:`~repro.kselect.KNearestHeap` and a
        :class:`ScanTrace`.
    """
    acc = TopKAccumulator(k, ub)
    trace = point_scan(query_point, query_index, target_clusters,
                       candidate_ids, acc,
                       center_dists_row=center_dists_row)
    return acc.heap, trace


def point_filter_partial(query_point, query_index, target_clusters,
                         candidate_ids, ub, k, center_dists_row=None):
    """Sweet KNN's weakened level-2 filter (Section IV-B1).

    ``theta`` is the level-1 ``UB`` and is never updated; no
    ``kNearests`` is consulted during the scan
    (:class:`~repro.core.predicates.CollectAccumulator`).  Every
    computed distance is stored (modelling the write to global memory)
    and a final k-selection recovers the answer — "a later launched
    GPU kernel finds the k minimal distances".

    Returns
    -------
    (distances, indices, trace)
        The k nearest (ascending) and the scan trace.
    """
    acc = CollectAccumulator(ub)
    trace = point_scan(query_point, query_index, target_clusters,
                       candidate_ids, acc,
                       center_dists_row=center_dists_row)
    dists, idx = select_k_from_pairs(acc.pairs, k)
    return dists, idx, trace


def center_distance_rows(query_points, target_clusters, candidate_ids):
    """Distances from each query to each candidate cluster's centre.

    Batched form of Algorithm 2 line 6 for one query cluster: one
    (n_active, |candidates|) einsum replaces a per-query
    ``euclidean_many`` call, bit-for-bit (same subtraction and
    reduction per element).  Non-candidate columns stay NaN.
    """
    rows = np.full((len(query_points), target_clusters.n_clusters), np.nan)
    if candidate_ids.size:
        diff = (target_clusters.centers[candidate_ids][None, :, :]
                - query_points[:, None, :])
        rows[:, candidate_ids] = np.sqrt(
            np.einsum("ijk,ijk->ij", diff, diff))
    return rows
