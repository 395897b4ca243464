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
from .bounds import banded_distances, euclidean
from .memo import IdentityMemo
from .predicates import CollectAccumulator, TopKAccumulator

__all__ = [
    "cluster_upper_bounds", "level1_filter", "point_scan",
    "point_filter_full", "point_filter_partial", "ScanTrace",
    "SCAN_COUNTERS", "trace_counters", "tail_bound_matrix",
    "bound_comparison_tol", "center_distance_rows", "center_matrix",
    "center_sq_norms", "CENTER_BAND",
]

#: Relative slack for the level-2 bound comparisons.  ``theta`` descends
#: from the level-1 chain (pairwise centre distances + member-distance
#: tails) while the scan computes ``d(q, c_t)`` directly; the two can
#: disagree in the last ulp on degenerate inputs (e.g. duplicated
#: points), where a strict comparison would prune an exact tie and lose
#: a true neighbour.  Pruning against ``theta + tol`` instead only ever
#: widens the examined set, so exactness is preserved.
BOUND_COMPARISON_RTOL = 1e-12

#: How far a GEMM-form centre distance ``D`` may sit from its direct
#: form: ``CENTER_BAND·(D + 1)``, half of the level-2 comparison slack
#: of every test that reads it (:func:`bound_comparison_tol`), whose
#: other half still covers the direct form's own rounding.  Entries the
#: forward-error bound cannot place inside are recomputed in the direct
#: form (:func:`~repro.core.bounds.banded_distances`); level 1, which
#: has no slack, widens each entry by the band itself.
CENTER_BAND = BOUND_COMPARISON_RTOL / 2

#: Chunk budget (in float64 elements, ~32 MB) for the batched ``calUB``
#: pooling intermediate in :func:`cluster_upper_bounds`.
_POOL_CHUNK_ELEMS = 4_000_000

#: Up to this many pooled bounds, ``calUB`` pools every target cluster:
#: narrowing the pool first costs more than it saves.
_SMALL_POOL_ELEMS = 2 ** 16

_tails_memo = IdentityMemo()     # ClusteredSet -> {k: tail-bound matrix}
_centers_memo = IdentityMemo()   # ClusteredSet -> centre norms, C x C


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


def center_sq_norms(target_clusters):
    """Read-only squared norms of the target centres, once per clustered
    set."""
    return _centers_memo.get(target_clusters,
                             lambda: _read_only(np.einsum(
                                 "ij,ij->i", target_clusters.centers,
                                 target_clusters.centers)), key="sq")


def center_matrix(target_clusters):
    """Read-only C x C centre-to-centre distances in the GEMM form, each
    within :data:`CENTER_BAND` of its direct form, once per clustered
    set (so once per index version)."""
    def compute():
        centers = target_clusters.centers
        dists, _ = banded_distances(centers, centers,
                                    center_sq_norms(target_clusters),
                                    CENTER_BAND)
        return _read_only(dists)

    return _centers_memo.get(target_clusters, compute, key="matrix")


def _read_only(array):
    array.setflags(write=False)
    return array


def _widened(center_dists, band, sign):
    """``center_dists`` moved by ``sign`` times their band."""
    if not band:
        return center_dists
    return center_dists + sign * band * (center_dists + 1.0)


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
                         tails=None, band=0.0):
    """``calUB`` for every query cluster at once.

    For query cluster i and target cluster j, ``getUBs`` returns
    ``radius_q[i] + d(cq_i, ct_j) + tail_j`` (two-landmark UB, Eq. 4,
    applied to the query farthest from its centre and the k targets
    closest to theirs).  Pooling over j and taking the k-th smallest
    gives a value no smaller than any member's k-th NN distance.
    Centre distances within ``band·(D + 1)`` of their direct form (see
    :data:`CENTER_BAND`) are read at the top of that band.

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
    center_dists = _widened(np.asarray(center_dists, dtype=np.float64),
                            band, 1.0)
    n_t = tails.shape[0]
    ubs = np.empty(mq, dtype=np.float64)
    if k >= tails.size or mq * tails.size <= _SMALL_POOL_ELEMS:
        pooled = (radius_q[:, None, None] + center_dists[:, :, None]
                  + tails[None, :, :]).reshape(mq, -1)
        if k >= tails.size:
            return pooled.max(axis=1)
        return np.partition(pooled, k - 1, axis=1)[:, k - 1]
    # One target cluster with k members bounds the k-th smallest pooled
    # value from above (``reach``), so only the clusters whose smallest
    # pooled value (``heads``) is within it can hold the k smallest: the
    # pool is built over the ``width`` clusters with the smallest heads,
    # which include them all, in chunks that keep the pooled
    # (rows, width, k) intermediate under a fixed footprint.
    near = radius_q[:, None] + center_dists
    heads = near + tails[:, 0]
    reach = (near + tails[:, k - 1]).min(axis=1)
    widths = np.count_nonzero(heads <= reach[:, None], axis=1)
    chunk = max(1, _POOL_CHUNK_ELEMS // (int(widths.max(initial=1)) * k))
    for start in range(0, mq, chunk):
        stop = min(start + chunk, mq)
        width = max(1, int(widths[start:stop].max()))
        if width < n_t:
            cols = np.argpartition(heads[start:stop], width - 1,
                                   axis=1)[:, :width]
            pooled = (np.take_along_axis(near[start:stop], cols,
                                         axis=1)[:, :, None]
                      + tails[cols])
        else:
            pooled = near[start:stop, :, None] + tails[None, :, :]
        ubs[start:stop] = np.partition(pooled.reshape(stop - start, -1),
                                       k - 1, axis=1)[:, k - 1]
    return ubs


def level1_filter(query_clusters, target_clusters, center_dists, ubs,
                  band=0.0):
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
    points.)  Centre distances within ``band·(D + 1)`` of their direct
    form are read at the bottom of that band.  Survivors are sorted by
    ascending centre distance, ties by index (the ``S.sort()`` of
    ``pointFilter``), which both tightens ``theta`` fast and is what
    the level-2 kernels expect.

    Returns
    -------
    list of ndarray
        Per query cluster, the candidate target-cluster ids.
    """
    radius_q = np.asarray(query_clusters.radius, dtype=np.float64)
    radius_t = np.asarray(target_clusters.radius, dtype=np.float64)
    sizes = target_clusters.cluster_sizes()
    center_dists = np.asarray(center_dists, dtype=np.float64)
    # All |CQ| x |CT| pairs at once, and one sort of the survivors.
    bounds = np.asarray(ubs, dtype=np.float64)
    if bounds.ndim == 1:
        bounds = bounds[:, None]
    lbs = (_widened(center_dists, band, -1.0) - radius_q[:, None]
           - radius_t[None, :])
    keep = (lbs <= bounds) & (sizes > 0)[None, :]
    rows, cols = np.nonzero(keep)
    # ``nonzero`` lists each row's columns in index order and the sort is
    # stable, so equal centre distances keep index order.
    cols = cols[np.lexsort((center_dists[rows, cols], rows))]
    ends = np.cumsum(np.count_nonzero(keep, axis=1)).tolist()
    return [cols[start:end] for start, end in zip([0] + ends, ends)]


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


def center_distance_rows(query_points, target_clusters, candidate_ids,
                         rows=None):
    """Distances from each query to each candidate cluster's centre.

    Batched form of Algorithm 2 line 6 for one query cluster, as an
    (n_active, |CT|) array whose non-candidate columns stay NaN.  The
    entries are ``rows``' own (the queries' full rows, when the plan
    holds them), else one GEMM of the queries against the candidate
    centres; either way each is within :data:`CENTER_BAND` of its direct
    form (:func:`~repro.core.bounds.banded_distances`).
    """
    out = np.full((len(query_points), target_clusters.n_clusters), np.nan)
    if candidate_ids.size:
        if rows is None:
            out[:, candidate_ids], _ = banded_distances(
                query_points, target_clusters.centers[candidate_ids],
                center_sq_norms(target_clusters)[candidate_ids],
                CENTER_BAND)
        else:
            out[:, candidate_ids] = rows[:, candidate_ids]
    return out
