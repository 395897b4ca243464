"""Sequential TI-based KNN join — the Fig. 4 reference algorithm.

This is the CPU algorithm of Ding et al. [4] as the paper reviews it in
Section II-C: landmark clustering, cluster-level filtering (``calUB`` +
``groupFilter``) and point-level filtering (``pointFilter``).  It is
the semantic ground truth the GPU pipelines are tested against, and
the source of the filtering-decision counters.

Use :func:`ti_knn_join` for the end-to-end join, or
:func:`prepare_clusters` to reuse the Step-1 state across runs (the
sensitivity benches sweep k over fixed clusters).
:func:`landmark_plan` is Step 1 of a prepared index: the queries join
the target side's own landmarks.  ``ti_knn_join`` is
also the one driver of every host TI engine: the flat tier
(:mod:`repro.native.engine`) and the predicate joins
(:mod:`repro.core.joins`) pass it their own :class:`Level2` stage.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from .bounds import _BLOCK_ELEMS, banded_distances, pair_distances
from .clustering import ClusteredSet, center_distances, cluster_points
from .filters import (CENTER_BAND, SCAN_COUNTERS, center_distance_rows,
                      center_matrix, center_sq_norms, point_filter_full,
                      trace_counters)
from .landmarks import determine_landmark_count, select_landmarks_random_spread
from .predicates import TopKPredicate
from .result import JoinStats, KNNResult

__all__ = ["JoinPlan", "prepare_clusters", "landmark_plan", "ti_knn_join",
           "TIJoin", "Level2", "TopKScan", "ENGINE"]

#: Largest |Q| x |CT| row matrix a landmark plan keeps (32 MB); the
#: rows of a larger call are computed per query cluster instead.
_PLAN_ROW_ELEMS = 2 ** 22


@dataclass
class JoinPlan:
    """Step-1 + Step-2 state shared by every level-2 variant.

    Holds the clustered query/target sets and the centre-distance
    matrix; the level-1 bounds and candidate lists of each predicate
    are computed once and cached (:meth:`level1_for`).  ``center_band``
    is the band (:data:`~repro.core.filters.CENTER_BAND`) of GEMM-form
    centre distances, 0 for direct-form ones; ``query_rows``, when
    present, are every query's distances to every target centre, the
    level-2 centre rows; ``recomputed`` counts the entries of both that
    building the plan recomputed in the direct form.
    """

    query_clusters: object
    target_clusters: object
    center_dists: np.ndarray
    center_band: float = 0.0
    query_rows: np.ndarray = None
    recomputed: int = 0
    _level1_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._level1_lock = threading.Lock()

    def __getstate__(self):
        # A JoinPlan is shipped to pool workers by pickle; the lock is
        # process-local state and is recreated on unpickling.
        state = self.__dict__.copy()
        state.pop("_level1_lock", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._level1_lock = threading.Lock()

    @property
    def mq(self):
        return self.query_clusters.n_clusters

    @property
    def mt(self):
        return self.target_clusters.n_clusters

    def level1_for(self, predicate):
        """The cached :class:`~repro.core.predicates.Level1State` of a
        predicate.

        Thread-safe and non-mutating: shard workers sharing one plan
        (possibly with different predicates) each read a consistent
        state.  An index queried many times (or a batched join
        re-entering the pipeline per tile) pays the level-1 cost once
        per distinct ``predicate.cache_key()``.
        """
        key = predicate.cache_key()
        cached = self._level1_cache.get(key)
        if cached is None:
            with self._level1_lock:
                cached = self._level1_cache.get(key)
                if cached is None:
                    cached = predicate.level1(self)
                    self._level1_cache[key] = cached
        return cached

    def level1(self, k):
        """The ``(ubs, candidates)`` pair for top-k, cached per ``k``:
        a view over :meth:`level1_for` with a
        :class:`~repro.core.predicates.TopKPredicate`."""
        state = self.level1_for(TopKPredicate(k))
        return state.bounds, state.candidates


def prepare_clusters(queries, targets, rng, mq=None, mt=None,
                     memory_budget_bytes=None):
    """Step 1 of Fig. 4: landmarks, clustering, centre distances.

    ``mq``/``mt`` default to ``detLmNum``'s ``3 * sqrt(n)`` (capped by
    the optional memory budget).  The same array object may be passed
    as both ``queries`` and ``targets`` (the paper's self-join setting);
    clustering is still performed independently per role because the
    query side needs only radii while the target side needs sorted
    member lists.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if mq is None:
        mq = determine_landmark_count(len(queries), memory_budget_bytes)
    if mt is None:
        mt = determine_landmark_count(len(targets), memory_budget_bytes)

    q_landmarks = select_landmarks_random_spread(queries, mq, rng)
    t_landmarks = select_landmarks_random_spread(targets, mt, rng)
    query_clusters = cluster_points(queries, q_landmarks,
                                    sort_descending=False)
    target_clusters = cluster_points(targets, t_landmarks,
                                     sort_descending=True)
    cdist = center_distances(query_clusters, target_clusters)
    return JoinPlan(query_clusters=query_clusters,
                    target_clusters=target_clusters,
                    center_dists=cdist)


def landmark_plan(queries, target_clusters):
    """Step 1 of a prepared index: the queries join its landmarks.

    One blocked GEMM of the queries against the target centres
    (:func:`~repro.core.bounds.banded_distances`) gives every query's
    row of centre distances, and a query joins the target cluster of
    its row's smallest entry.  The query clusters are the occupied
    target clusters, in id order.  Each one's radius is the largest
    direct-form distance of a member to its centre, and its centre
    distances are its row of the index's C x C centre matrix
    (:func:`~repro.core.filters.center_matrix`).  A cluster of one
    query keeps the query as its own landmark: radius 0, its own row
    as centre distances, and its index as ``center_indices`` (-1 for a
    target landmark).  The rows are also the plan's level-2 centre rows
    unless the call holds more than :data:`_PLAN_ROW_ELEMS` of them.
    """
    ct = target_clusters
    n = queries.shape[0]
    m = ct.n_clusters
    centers = ct.centers
    sq = center_sq_norms(ct)
    rows = np.empty((n, m)) if n * m <= _PLAN_ROW_ELEMS else None
    nearest = np.empty(n, dtype=np.int64)
    recomputed = 0
    block = max(1, _BLOCK_ELEMS // m)
    for start in range(0, n, block):
        stop = min(start + block, n)
        dists, count = banded_distances(queries[start:stop], centers, sq,
                                        CENTER_BAND)
        recomputed += count
        nearest[start:stop] = dists.argmin(axis=1)
        if rows is not None:
            rows[start:stop] = dists

    if n == 1:
        # A serving call's common case, built without the grouping
        # below: the lone query is its own landmark, radius 0, its row
        # as its centre distances.
        zero = np.zeros(1, dtype=np.int64)
        query_clusters = ClusteredSet(
            points=queries, center_indices=zero, centers=queries.copy(),
            assignment=zero, dist_to_center=np.zeros(1), members=[zero],
            member_dists=[np.zeros(1)], radius=np.zeros(1),
            init_distance_computations=m)
        return JoinPlan(query_clusters=query_clusters, target_clusters=ct,
                        center_dists=rows.copy(), center_band=CENTER_BAND,
                        query_rows=rows, recomputed=recomputed)
    order = np.argsort(nearest, kind="stable")
    first = np.ones(n, dtype=bool)
    first[1:] = nearest[order[1:]] != nearest[order[:-1]]
    starts = np.flatnonzero(first)
    assignment = np.empty(n, dtype=np.int64)
    assignment[order] = np.cumsum(first) - 1
    occupied = nearest[order[starts]]
    bounds_at = np.append(starts, n)
    single = np.diff(bounds_at) == 1
    alone = order[starts[single]]
    # Only members of a cluster of two or more queries are off their
    # landmark; a lone query is its own, at distance 0.
    dist_to_center = np.zeros(n)
    grouped = np.flatnonzero(~single[assignment])
    if grouped.size:
        dist_to_center[grouped] = pair_distances(queries, centers, grouped,
                                                 nearest[grouped])
    sorted_dists = dist_to_center[order]
    radius = np.maximum.reduceat(sorted_dists, starts)
    spans = list(zip(bounds_at[:-1].tolist(), bounds_at[1:].tolist()))

    q_centers = centers[occupied]
    q_centers[single] = queries[alone]
    center_indices = np.full(occupied.size, -1, dtype=np.int64)
    center_indices[single] = alone
    if single.all():
        cdist = np.empty((occupied.size, m))
    else:
        cdist = center_matrix(ct)[occupied]
    if rows is not None:
        cdist[single] = rows[alone]
    elif alone.size:
        cdist[single], count = banded_distances(queries[alone], centers, sq,
                                                CENTER_BAND)
        recomputed += count
    query_clusters = ClusteredSet(
        points=queries, center_indices=center_indices, centers=q_centers,
        assignment=assignment, dist_to_center=dist_to_center,
        members=[order[a:b] for a, b in spans],
        member_dists=[sorted_dists[a:b] for a, b in spans],
        radius=radius, init_distance_computations=n * m)
    return JoinPlan(query_clusters=query_clusters, target_clusters=ct,
                    center_dists=cdist, center_band=CENTER_BAND,
                    query_rows=rows, recomputed=recomputed)


@dataclass
class TIJoin:
    """One :func:`ti_knn_join` call as its level-2 stage sees it."""

    queries: np.ndarray
    plan: JoinPlan
    state: object          # the stage predicate's Level1State
    active: np.ndarray     # scanned query ids, in result-row order
    active_mask: np.ndarray
    local_row: np.ndarray  # query id -> result row (-1 when inactive)
    stats: JoinStats
    account_prepare: bool


class Level2:
    """The level-2 stage an engine hands to :func:`ti_knn_join`.

    The driver owns everything around level 2: validation, the Step-1
    plan, the level-1 state of :attr:`predicate`, the active subset,
    the per-query-cluster loop with its batched centre-distance rows,
    and the counter accounting.  A stage scans in blocks
    (:meth:`scan`), names its empty result (:meth:`columns`) and packs
    the filled one (:meth:`pack`).  A stage object serves one call.
    """

    #: ``JoinStats.k`` (and the driver's ``k <= |T|`` check).
    k = 0
    predicate = None

    def columns(self, n):
        """The result columns of ``n`` rows before any block is
        written."""
        raise NotImplementedError

    def scan(self, join, work):
        """Yield one ``(local, values, counters)`` block per scan call.

        ``work`` yields the driver's per-query-cluster items
        ``(qc, scanned, rows, cand, ub)``: the active members, their
        centre-distance rows, the level-1 survivors and the bound.  In
        a block, ``local`` are the result rows of its queries
        (``join.local_row``), ``values`` holds one array per result
        column (:meth:`columns`) with a row per query, and ``counters``
        is an int64 ``(queries, 7)`` array whose columns are
        :data:`~repro.core.filters.SCAN_COUNTERS`.  A later block may
        overwrite an earlier one's rows if the earlier one counted
        nothing for them.
        """
        raise NotImplementedError

    def pack(self, join, columns):
        """The join result from the filled result columns."""
        raise NotImplementedError


class TopKScan(Level2):
    """Top-k level 2, interpreted (``ti-cpu``; the counter reference):
    Algorithm 2's updating θ
    (:func:`~repro.core.filters.point_filter_full`).  Its result
    columns are ``dists`` and ``idx``, ``(n, k)`` arrays padded with
    ``inf`` / -1.
    """

    method = "ti-knn-cpu/full"

    def __init__(self, k):
        self.predicate = TopKPredicate(k)
        self.k = self.predicate.k

    def columns(self, n):
        return (np.full((n, self.k), np.inf),
                np.full((n, self.k), -1, dtype=np.int64))

    def scan(self, join, work):
        queries = join.queries
        ct = join.plan.target_clusters
        k = self.k
        for qc, scanned, rows, cand, ub in work:
            dists, idx = self.columns(scanned.size)
            traces = []
            for i, q in enumerate(scanned):
                heap, trace = point_filter_full(
                    queries[q], q, ct, cand, ub, k,
                    center_dists_row=rows[i])
                d, t = heap.sorted_items()
                dists[i, :d.size] = d
                idx[i, :t.size] = t
                traces.append(trace)
            yield join.local_row[scanned], (dists, idx), \
                trace_counters(traces)

    def pack(self, join, columns):
        distances, indices = columns
        return KNNResult(distances=distances, indices=indices,
                         stats=join.stats, method=self.method)


def ti_knn_join(queries, targets, k, rng, mq=None, mt=None, plan=None,
                query_subset=None, account_prepare=True, level2=None):
    """Sequential TI-based KNN join (the full Fig. 4 pipeline).

    The one driver of every host TI join: the reference and flat top-k
    engines and the predicate joins differ only in the
    ``level2`` stage they pass.

    Parameters
    ----------
    queries, targets:
        (n, d) arrays (may be the same object for a self-join).
    k:
        Number of nearest neighbours per query.
    rng:
        ``numpy.random.Generator`` for landmark selection.
    mq, mt:
        Optional landmark-count overrides.
    plan:
        Optional pre-built :class:`JoinPlan` (skips Step 1).
    query_subset:
        Optional array of query indices to scan (batched execution
        against a shared ``plan``); result rows follow subset order.
    account_prepare:
        Count the Step-1/level-1 preparation in the returned stats.
        Batched execution sets this on the first tile only so merged
        counters equal the unbatched totals.
    level2:
        Optional :class:`Level2` stage; defaults to ``TopKScan(k)``.
        A given stage carries its own ``k``.

    Returns
    -------
    KNNResult
        Or whatever the stage packs (a ``RangeResult`` for the
        predicate joins).
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if level2 is None:
        level2 = TopKScan(k)
    if level2.k > len(targets):
        raise ValueError("k cannot exceed the number of target points")

    if plan is None:
        plan = prepare_clusters(queries, targets, rng, mq=mq, mt=mt)
    state = plan.level1_for(level2.predicate)

    n_q = len(queries)
    if query_subset is None:
        active = np.arange(n_q)
    else:
        active = np.asarray(query_subset, dtype=np.int64)
    active_mask = np.zeros(n_q, dtype=bool)
    active_mask[active] = True
    local_row = np.full(n_q, -1, dtype=np.int64)
    local_row[active] = np.arange(len(active))

    cq, ct = plan.query_clusters, plan.target_clusters
    query_rows = plan.query_rows
    stats = JoinStats(
        n_queries=len(active), n_targets=len(targets), k=level2.k,
        dim=queries.shape[1], mq=plan.mq, mt=plan.mt,
        init_distance_computations=(
            (cq.init_distance_computations + ct.init_distance_computations)
            if account_prepare else 0),
        candidate_cluster_pairs=(
            state.candidate_pairs() if account_prepare else 0),
    )
    target_sizes = ct.cluster_sizes()

    def work():
        for qc in range(cq.n_clusters):
            members = cq.members[qc]
            scanned = (members[active_mask[members]] if members.size
                       else members)
            if scanned.size == 0:
                continue
            cand = state.candidates[qc]
            # Points inside this cluster's level-1 survivors: the
            # funnel's "level-1 survivor pairs", once per member query.
            cluster_pairs = int(target_sizes[cand].sum()) if cand.size else 0
            stats.level1_survivor_pairs += cluster_pairs * int(scanned.size)
            # Algorithm 2 line 6 computes the query-to-centre distances
            # inside the scan; the rows come batched instead: from the
            # plan's GEMM, or one GEMM over this cluster's active members.
            rows = center_distance_rows(
                queries[scanned], ct, cand,
                None if query_rows is None else query_rows[scanned])
            yield qc, scanned, rows, cand, state.bounds[qc]

    join = TIJoin(queries=queries, plan=plan, state=state, active=active,
                  active_mask=active_mask, local_row=local_row, stats=stats,
                  account_prepare=account_prepare)
    columns = level2.columns(len(active))
    totals = np.zeros(len(SCAN_COUNTERS), dtype=np.int64)
    for local, values, counters in level2.scan(join, work()):
        for column, value in zip(columns, values):
            column[local] = value
        totals += counters.sum(axis=0)
    counts = dict(zip(SCAN_COUNTERS, totals.tolist()))
    stats.level2_distance_computations += counts["distance_computations"]
    stats.center_distance_computations += (
        counts["center_distance_computations"])
    stats.examined_points += counts["examined"]
    stats.heap_updates += counts["heap_updates"]
    stats.predicate_accepted_pairs += counts["accepted"]
    return level2.pack(join, columns)


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return ti_knn_join(queries, targets, k, ctx.rng, plan=ctx.plan,
                       query_subset=ctx.query_subset,
                       account_prepare=ctx.account_prepare,
                       level2=TopKScan(k), **options)


ENGINE = EngineSpec(
    name="ti-cpu",
    run=_run_engine,
    caps=EngineCaps(uses_seed=True, supports_prepared_index=True),
    description="sequential TI-based KNN (the Fig. 4 reference)",
)
