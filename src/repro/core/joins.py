"""TI-filtered predicate joins: ε-range, self-join and reverse-KNN.

The two-level filter chain of Fig. 4 never inspects what is being
collected (see :mod:`repro.core.predicates`); this module runs the
same chain — Step-1 preparation, level-1 group filter, level-2 member
scan — for the non-top-k join shapes and packs the variable-
cardinality answers into :class:`~repro.core.result.RangeResult`:

``range_join``
    All pairs ``(q, t)`` with ``d(q, t) <= eps``
    (:class:`~repro.core.predicates.EpsilonRangePredicate`).
``self_range_join``
    The ε-range self-join (``queries is targets``).  Exploits the
    symmetry of the distance matrix: trivial self-matches are dropped
    at the admission gate, each unordered pair's distance is computed
    once and the accepted pair is mirrored into the partner's row —
    bit-identical both ways because ``(x - y)^2 == (y - x)^2``
    element-wise in IEEE arithmetic.
``reverse_knn_join``
    ``rknn(q) = {t : d(q, t) <= kdist(t)}`` where ``kdist(t)`` is t's
    k-th NN distance within the target set
    (:class:`~repro.core.predicates.ReverseKNNPredicate`).

All three run through :func:`~repro.core.ti_knn.ti_knn_join`, the one
host TI driver, with a :class:`PredicateScan` level-2 stage, and
register as engines (``method="range-join"``,
``"self-join-eps"``, ``"rknn"``) and inherit the execution layer's
batching/sharding contract: the scan of a query depends only on its
own cluster's candidate list and the predicate's (plan-deterministic)
level-1 state, so per-row results are independent of tiling.  The
self-join's *counters* are the one exception — which side of a
mirrored pair pays the distance depends on which rows share a tile —
but its result rows are a pure function of the accepted pair set and
stay bit-identical across workers.
"""

from __future__ import annotations

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from .filters import point_scan, trace_counters
from .predicates import EpsilonRangePredicate, ReverseKNNPredicate
from .result import RangeResult
from .ti_knn import Level2, ti_knn_join

__all__ = ["range_join", "self_range_join", "reverse_knn_join", "ENGINES"]


class _SelfJoinFilter:
    """Accumulator wrapper implementing the symmetric-tile optimisation.

    Scanning query ``q``: the trivial pair ``t == q`` is dropped, and a
    partner ``t < q`` that is *active in this call* is skipped because
    t's own scan computes ``d(t, q)`` (the same value) and
    :class:`PredicateScan` mirrors the accepted pair into q's row.  Inactive partners (rows of
    another tile/shard) are never skipped, so tiled execution stays
    exact without cross-tile communication.
    """

    def __init__(self, inner, query_index, active_mask):
        self._inner = inner
        self._q = query_index
        self._active = active_mask

    @property
    def tol_ref(self):
        return self._inner.tol_ref

    @property
    def pairs(self):
        return self._inner.pairs

    @property
    def accepted(self):
        return self._inner.accepted

    @property
    def updates(self):
        return self._inner.updates

    def enter_cluster(self, tc):
        self._inner.enter_cluster(tc)

    def limit(self):
        return self._inner.limit()

    def admit(self, t):
        if t == self._q or (t < self._q and self._active[t]):
            return False
        return self._inner.admit(t)

    def offer(self, dist, t):
        return self._inner.offer(dist, t)


class PredicateScan(Level2):
    """Level 2 of the predicate joins: :func:`point_scan` per query
    against the predicate's accumulator, packed into a RangeResult.

    Its one result column holds each row's accepted ``(d, t)`` pairs
    (an object array of lists).  ``JoinStats.k`` is the predicate's
    ``k`` (0 for ε-range).  ``self_join`` wraps each accumulator in
    :class:`_SelfJoinFilter` and, once every query is scanned, mirrors
    each accepted pair into its active partner's row.
    """

    def __init__(self, predicate, method, self_join=False):
        self.predicate = predicate
        self.method = method
        self.k = getattr(predicate, "k", 0)
        self.self_join = self_join

    def columns(self, n):
        return (np.empty(n, dtype=object),)

    def scan(self, join, work):
        ct = join.plan.target_clusters
        for qc, scanned, rows, cand, ub in work:
            (pairs,) = self.columns(scanned.size)
            traces = []
            for i, q in enumerate(scanned):
                acc = self.predicate.accumulator(join.state, qc)
                if self.self_join:
                    acc = _SelfJoinFilter(acc, q, join.active_mask)
                traces.append(point_scan(join.queries[q], q, ct, cand, acc,
                                         center_dists_row=rows[i]))
                pairs[i] = acc.pairs
            yield join.local_row[scanned], (pairs,), trace_counters(traces)

    def pack(self, join, columns):
        (values,) = columns
        stats = join.stats
        stats.extra["predicate"] = self.predicate.name
        prep = join.state.prep_trace
        if join.account_prepare and prep is not None:
            # Reverse-KNN's kdist preparation computes exact distances
            # inside the target set; they are part of this join's work.
            prep_dists = (prep.distance_computations
                          + prep.center_distance_computations)
            stats.init_distance_computations += prep_dists
            stats.extra["rknn_prep_distances"] = prep_dists
        if self.self_join:
            # Mirror each accepted (d, t) into active partner rows:
            # t > q here (active t < q were skipped at admission).
            mirrored = [[] for _ in values]
            for q, pairs in zip(join.active, values):
                for dist, t in pairs:
                    if join.active_mask[t]:
                        mirrored[join.local_row[t]].append((dist, q))
            values = [pairs + more for pairs, more in zip(values, mirrored)]

        packed = []
        for pairs in values:
            if not pairs:
                packed.append((np.empty(0, dtype=np.float64),
                               np.empty(0, dtype=np.int64)))
                continue
            dists = np.array([d for d, _ in pairs], dtype=np.float64)
            idx = np.array([t for _, t in pairs], dtype=np.int64)
            order = np.lexsort((idx, dists))
            packed.append((dists[order], idx[order]))
        return RangeResult.from_rows(packed, stats=stats, method=self.method)


# ----------------------------------------------------------------------
# Public entry points
# ----------------------------------------------------------------------
def range_join(queries, targets, eps, rng, mq=None, mt=None, plan=None,
               query_subset=None, account_prepare=True):
    """All pairs within distance ``eps``, TI-filtered.

    Exact: level-1 prunes cluster pairs whose group lower bound exceeds
    ε, level-2 prunes members on the one-landmark bound, and only pairs
    with a *computed* ``d <= eps`` are accepted.  Rows are sorted by
    (distance, index).
    """
    level2 = PredicateScan(EpsilonRangePredicate(eps), "range-join")
    return ti_knn_join(queries, targets, 0, rng, mq=mq, mt=mt, plan=plan,
                       query_subset=query_subset,
                       account_prepare=account_prepare, level2=level2)


def self_range_join(points, eps, rng, mq=None, mt=None, plan=None,
                    query_subset=None, account_prepare=True):
    """ε-range self-join over one point set.

    Drops the trivial ``(q, q)`` matches and computes each unordered
    pair's distance once (see :class:`_SelfJoinFilter`); the result
    contains both directed pairs, like the plain range join minus the
    diagonal.
    """
    level2 = PredicateScan(EpsilonRangePredicate(eps), "self-join-eps",
                           self_join=True)
    return ti_knn_join(points, points, 0, rng, mq=mq, mt=mt, plan=plan,
                       query_subset=query_subset,
                       account_prepare=account_prepare, level2=level2)


def reverse_knn_join(queries, targets, k, rng, mq=None, mt=None, plan=None,
                     query_subset=None, account_prepare=True):
    """Reverse-KNN join: ``rknn(q) = {t : d(q, t) <= kdist(t)}``.

    ``kdist(t)`` — t's k-th NN distance within the target set, self
    excluded — is derived deterministically from the prepared plan, so
    sharded execution reproduces the serial thresholds bit-for-bit.
    """
    level2 = PredicateScan(ReverseKNNPredicate(k), "rknn")
    return ti_knn_join(queries, targets, k, rng, mq=mq, mt=mt, plan=plan,
                       query_subset=query_subset,
                       account_prepare=account_prepare, level2=level2)


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
_RANGE_CAPS = EngineCaps(uses_seed=True, supports_prepared_index=True,
                         result_kind="range")


def _run_range(queries, targets, k, ctx, eps=None, **options):
    return range_join(queries, targets, eps, ctx.rng, plan=ctx.plan,
                      query_subset=ctx.query_subset,
                      account_prepare=ctx.account_prepare, **options)


def _run_self_join(queries, targets, k, ctx, eps=None, **options):
    if queries is not targets and not np.array_equal(queries, targets):
        raise ValueError(
            "self-join-eps joins a set with itself: pass the same points "
            "as queries and targets (use method='range-join' otherwise)")
    return self_range_join(queries, eps, ctx.rng, plan=ctx.plan,
                           query_subset=ctx.query_subset,
                           account_prepare=ctx.account_prepare, **options)


def _run_rknn(queries, targets, k, ctx, **options):
    return reverse_knn_join(queries, targets, k, ctx.rng, plan=ctx.plan,
                            query_subset=ctx.query_subset,
                            account_prepare=ctx.account_prepare, **options)


ENGINES = (
    EngineSpec(
        name="range-join",
        run=_run_range,
        caps=_RANGE_CAPS,
        description="TI-filtered ε-range join (all pairs within eps)",
        required_options=("eps",),
    ),
    EngineSpec(
        name="self-join-eps",
        run=_run_self_join,
        caps=_RANGE_CAPS,
        description="ε-range self-join exploiting symmetric tiles",
        required_options=("eps",),
    ),
    EngineSpec(
        name="rknn",
        run=_run_rknn,
        caps=_RANGE_CAPS,
        description="TI-filtered reverse-KNN join (q in knn-of-t sense)",
    ),
)
