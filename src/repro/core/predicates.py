"""Distance predicates and their scan accumulators.

The paper's two-level triangle-inequality machinery never inspects
*what* is being collected — level-1 prunes cluster pairs against a
per-query-cluster bound, level-2 prunes members against a scan bound —
so the same filter chain can serve any monotone distance predicate.
This module is that seam: a **predicate** describes the join shape
(top-k, ε-range, reverse-KNN) and knows how to derive the level-1
bounds; an **accumulator** is the per-query scan state the level-2
loop (:func:`repro.core.filters.point_scan` and the simulated-GPU
lanes in :mod:`repro.core.scan`) prunes against and feeds accepted
pairs into.

Accumulator protocol (duck-typed; see docs/JOINS.md):

``enter_cluster(tc)``
    Called before scanning candidate cluster ``tc``'s members.
``tol_ref``
    Reference magnitude for the float comparison slack
    (:func:`~repro.core.filters.bound_comparison_tol`); for top-k this
    is the level-1 ``UB`` so decisions stay bit-identical with the
    historical inlined scan.
``limit()``
    The current pruning bound θ: members with
    ``lb > limit() + tol`` break the scan, ``lb < -(limit() + tol)``
    are skipped.  Must never tighten below a value that could prune a
    pair the predicate would accept (soundness).
``admit(t)``
    Pre-distance gate: ``False`` skips the exact distance entirely
    (the self-join engine drops trivial/self-symmetric pairs here).
``offer(dist, t) -> bool``
    Present a computed distance; returns True when the predicate
    accepts the pair.  ``accepted`` counts acceptances, ``updates``
    counts bound-state mutations (heap insertions for top-k).

The top-k accumulator wraps :class:`repro.kselect.KNearestHeap` — the
historical k-selection is just one predicate among several.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kselect import KNearestHeap

__all__ = [
    "Level1State", "TopKAccumulator", "CollectAccumulator",
    "EpsilonRangeAccumulator", "ReverseKNNAccumulator",
    "TopKPredicate", "EpsilonRangePredicate", "ReverseKNNPredicate",
    "target_kth_distances",
]


@dataclass
class Level1State:
    """One predicate's cached level-1 output for a JoinPlan.

    ``bounds`` is the per-query-cluster initial scan bound (the top-k
    ``UB``, or ε for range predicates); ``candidates`` the per-query-
    cluster surviving target-cluster ids, ascending by centre distance.
    Reverse-KNN additionally carries the per-target k-th-NN distances
    (``kdist``), their per-target-cluster maxima (``cluster_bounds``)
    and the preparation scan's work counters (``prep_trace``), which
    the engine accounts once per join (``account_prepare``).
    """

    bounds: np.ndarray
    candidates: list
    kdist: np.ndarray = None
    cluster_bounds: np.ndarray = None
    prep_trace: object = None
    extra: dict = field(default_factory=dict)

    def candidate_pairs(self):
        return int(sum(c.size for c in self.candidates))


# ----------------------------------------------------------------------
# Accumulators (level-2 scan state)
# ----------------------------------------------------------------------
class TopKAccumulator:
    """Algorithm 2's updating-θ k-selection as an accumulator.

    ``slack > 1`` reproduces the (1+ε) approximate-pruning extension of
    the simulated-GPU scan: once the heap is full the limit tightens to
    ``θ / slack``.  ``update_bound=False`` pins θ at the level-1 ``UB``
    (the ablation knob of :mod:`repro.core.scan`).
    """

    def __init__(self, k, ub, slack=1.0, update_bound=True):
        self.heap = KNearestHeap(k)
        self.ub = float(ub)
        self.slack = float(slack)
        self.update_bound = bool(update_bound)
        self.accepted = 0
        self.updates = 0
        self._theta = float(ub)

    @property
    def tol_ref(self):
        return self.ub

    def enter_cluster(self, tc):
        pass

    def limit(self):
        return self._theta / self.slack if self.heap.full else self._theta

    def admit(self, t):
        return True

    def offer(self, dist, t):
        if self.heap.push(dist, t):
            self.accepted += 1
            self.updates += 1
            if self.update_bound and self.heap.full:
                self._theta = min(self.ub, self.heap.max_distance)
            return True
        return False

    def result(self):
        return self.heap.sorted_items()


class CollectAccumulator:
    """Sweet KNN's weakened (partial) filter: fixed bound, store all.

    θ stays at the level-1 ``UB`` and every surviving distance is kept
    (the write to global memory); a later k-selection recovers the
    answer.  ``updates`` stays 0 — there is no heap to update, which is
    exactly how the historical counters read.
    """

    def __init__(self, ub):
        self.ub = float(ub)
        self.pairs = []
        self.accepted = 0
        self.updates = 0

    @property
    def tol_ref(self):
        return self.ub

    def enter_cluster(self, tc):
        pass

    def limit(self):
        return self.ub

    def admit(self, t):
        return True

    def offer(self, dist, t):
        self.pairs.append((dist, t))
        self.accepted += 1
        return True

    def bulk(self, dists, indices):
        """Vectorised store used by the simulated-GPU partial scan."""
        self.pairs.extend(zip(dists, indices))
        self.accepted += len(dists)


class EpsilonRangeAccumulator:
    """ε-range predicate: accept every pair with ``dist <= eps``.

    The pruning bound is the constant ε itself; the comparison-slack
    widening (``eps + tol``) only ever admits extra members to the
    exact check, so acceptance stays exact.
    """

    def __init__(self, eps):
        self.eps = float(eps)
        self.pairs = []
        self.accepted = 0
        self.updates = 0

    @property
    def tol_ref(self):
        return self.eps

    def enter_cluster(self, tc):
        pass

    def limit(self):
        return self.eps

    def admit(self, t):
        return True

    def offer(self, dist, t):
        if dist <= self.eps:
            self.pairs.append((dist, t))
            self.accepted += 1
            self.updates += 1
            return True
        return False


class ReverseKNNAccumulator:
    """Reverse-KNN predicate: accept q for t when ``d(q,t) <= kdist(t)``.

    Each target carries its own threshold (its k-th NN distance within
    the target set), so the scan bound is per *cluster*: the maximum
    ``kdist`` of the cluster's members.  Breaking on
    ``lb > cluster_max + tol`` is sound because no member of the
    cluster could accept a pair the bound excludes.
    """

    def __init__(self, kdist, cluster_bounds):
        self.kdist = kdist
        self.cluster_bounds = cluster_bounds
        self.pairs = []
        self.accepted = 0
        self.updates = 0
        self._bound = 0.0

    @property
    def tol_ref(self):
        return self._bound

    def enter_cluster(self, tc):
        self._bound = float(self.cluster_bounds[tc])

    def limit(self):
        return self._bound

    def admit(self, t):
        return True

    def offer(self, dist, t):
        if dist <= self.kdist[t]:
            self.pairs.append((dist, t))
            self.accepted += 1
            self.updates += 1
            return True
        return False


# ----------------------------------------------------------------------
# Predicates (join shapes; level-1 derivation + accumulator factory)
# ----------------------------------------------------------------------
class TopKPredicate:
    """The historical k-nearest-neighbour join shape."""

    name = "topk"

    def __init__(self, k):
        self.k = int(k)
        if self.k <= 0:
            raise ValueError("k must be positive")

    def cache_key(self):
        return ("topk", self.k)

    def level1(self, plan):
        # Imported here: predicates <-> filters would otherwise cycle.
        from .filters import cluster_upper_bounds, level1_filter

        ubs = cluster_upper_bounds(plan.query_clusters, plan.target_clusters,
                                   plan.center_dists, self.k,
                                   band=plan.center_band)
        candidates = level1_filter(plan.query_clusters, plan.target_clusters,
                                   plan.center_dists, ubs,
                                   band=plan.center_band)
        return Level1State(bounds=ubs, candidates=candidates)

    def accumulator(self, state, qc):
        return TopKAccumulator(self.k, state.bounds[qc])


class EpsilonRangePredicate:
    """ε-range join: all pairs within distance ε."""

    name = "eps-range"

    def __init__(self, eps):
        eps = float(eps)
        if not np.isfinite(eps) or eps < 0:
            raise ValueError("eps must be a non-negative finite float")
        self.eps = eps

    def cache_key(self):
        return ("eps", self.eps)

    def level1(self, plan):
        from .filters import level1_filter

        bounds = np.full(plan.mq, self.eps, dtype=np.float64)
        candidates = level1_filter(plan.query_clusters, plan.target_clusters,
                                   plan.center_dists, bounds,
                                   band=plan.center_band)
        return Level1State(bounds=bounds, candidates=candidates)

    def accumulator(self, state, qc):
        return EpsilonRangeAccumulator(self.eps)


class ReverseKNNPredicate:
    """Reverse-KNN join: the queries that have t among their context —
    formally ``rknn(q) = {t : d(q, t) <= kdist(t)}`` where ``kdist(t)``
    is t's k-th nearest-neighbour distance within the target set
    (excluding t itself).

    The level-1 bound is per target cluster — the max ``kdist`` of its
    members — so the group filter keeps a cluster pair exactly when
    some member could still accept a pair.
    """

    name = "rknn"

    def __init__(self, k):
        self.k = int(k)
        if self.k <= 0:
            raise ValueError("k must be positive")

    def cache_key(self):
        return ("rknn", self.k)

    def level1(self, plan):
        from .filters import level1_filter

        ct = plan.target_clusters
        kdist, prep_trace = target_kth_distances(ct, self.k)
        cluster_bounds = np.array(
            [float(kdist[members].max()) if members.size else 0.0
             for members in ct.members], dtype=np.float64)
        candidates = level1_filter(plan.query_clusters, ct,
                                   plan.center_dists,
                                   cluster_bounds[None, :],
                                   band=plan.center_band)
        top = float(cluster_bounds.max()) if cluster_bounds.size else 0.0
        return Level1State(bounds=np.full(plan.mq, top, dtype=np.float64),
                           candidates=candidates, kdist=kdist,
                           cluster_bounds=cluster_bounds,
                           prep_trace=prep_trace)

    def accumulator(self, state, qc):
        return ReverseKNNAccumulator(state.kdist, state.cluster_bounds)


def target_kth_distances(target_clusters, k):
    """Per-target k-th NN distance within the target set, self excluded.

    Runs the TI filter chain with the target clustering on *both*
    sides — a deterministic function of the prepared plan (no RNG), so
    every shard worker derives bit-identical thresholds.  Returns the
    (|T|,) threshold array plus the preparation scan's merged
    :class:`~repro.core.filters.ScanTrace` for accounting.
    """
    from .clustering import center_distances
    from .filters import (ScanTrace, cluster_upper_bounds, level1_filter,
                          point_scan)

    ct = target_clusters
    n = ct.n_points
    k = int(k)
    if k >= n:
        raise ValueError(
            "reverse-KNN needs k < |T| (k=%d, |T|=%d): every target "
            "must have k neighbours besides itself" % (k, n))

    cdist = center_distances(ct, ct)
    ubs = cluster_upper_bounds(ct, ct, cdist, k + 1)
    candidates = level1_filter(ct, ct, cdist, ubs)

    kdist = np.empty(n, dtype=np.float64)
    prep = ScanTrace()
    for t in range(n):
        qc = int(ct.assignment[t])
        acc = TopKAccumulator(k + 1, ubs[qc])
        trace = point_scan(ct.points[t], t, ct, candidates[qc], acc)
        prep.merge(trace)
        dists, idx = acc.heap.sorted_items()
        # Drop t's own zero-distance entry when the heap kept it; when
        # ties evicted it, the k-th *other* distance is the same value.
        others = dists[idx != t]
        kdist[t] = others[k - 1]
    return kdist, prep
