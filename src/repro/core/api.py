"""Public API of the Sweet KNN reproduction.

Most users need exactly one call::

    import numpy as np
    from repro import knn_join

    result = knn_join(queries, targets, k=20, seed=0)
    result.indices        # (|Q|, k) neighbour ids
    result.distances      # (|Q|, k) ascending distances
    result.sim_time_s     # simulated GPU time (method="sweet" etc.)

``method`` selects the engine.  The built-ins (see
:data:`repro.METHODS`, a live view of the engine registry):

=============  ========================================================
``"sweet"``    Sweet KNN on the simulated GPU (the paper's system)
``"ti-gpu"``   basic TI-based KNN on the simulated GPU (Section III)
``"ti-cpu"``   sequential TI-based KNN (the Fig. 4 reference)
``"cublas"``   CUBLAS-style brute-force GPU baseline
``"brute"``    exact host-side brute force (the correctness oracle)
``"kdtree"``   KD-tree baseline
=============  ========================================================

Third-party engines registered through :func:`repro.engine.register`
are dispatched the same way, by name.

:class:`SweetKNN` offers the index-like object API: cluster the target
set once (:class:`repro.index.Index`), answer many query batches
against it.  :meth:`SweetKNN.from_index` wraps a pre-built or
disk-loaded index without re-clustering.
"""

from __future__ import annotations

import numpy as np

from ..engine.executor import execute
from ..engine.planner import _DECIDE_KEYS, plan_shape
from ..engine.registry import METHODS, get_engine
from ..errors import ValidationError
from ..gpu.device import tesla_k20c
from ..index import Index
from .validate import check_points

__all__ = ["knn_join", "SweetKNN", "METHODS"]

#: Cached JoinPlans per SweetKNN index (identity-keyed on the query
#: array); small, because each entry pins its query array alive.
_JOIN_PLAN_CACHE_SIZE = 8


def _validate(queries, targets, k):
    queries = check_points(queries, name="queries", require_finite=True)
    targets = check_points(targets, name="targets", require_finite=True)
    if queries.shape[1] != targets.shape[1]:
        raise ValidationError(
            "dimension mismatch: queries d=%d, targets d=%d"
            % (queries.shape[1], targets.shape[1]))
    k = int(k)
    if k <= 0:
        raise ValidationError("k must be positive")
    if k > targets.shape[0]:
        raise ValidationError(
            "k=%d exceeds the %d target points" % (k, targets.shape[0]))
    return queries, targets, k


def knn_join(queries, targets, k, method="sweet", seed=0, device=None,
             query_batch_size=None, workers=None, pool=None, explain=False,
             **options):
    """Find the k nearest targets of every query point.

    Parameters
    ----------
    queries, targets:
        (n, d) arrays; pass the same array twice for a self-join (the
        paper's setting).
    k:
        Neighbours per query.
    method:
        A registered engine name (default the paper's Sweet KNN); see
        :data:`repro.METHODS`.  ``"auto"`` picks the host flat tier,
        ``"ti-flat"``, at every shape (:func:`repro.sched.decide`).
    seed:
        Seed for landmark selection (ignored by engines that do not
        declare ``uses_seed``).
    device:
        Optional :class:`~repro.gpu.device.DeviceSpec` for the GPU
        methods (defaults to the simulated Tesla K20c).
    query_batch_size:
        Force the dispatcher's query-tile size.  By default the planner
        batches only when a prepared-index GPU engine's working set
        exceeds device memory; batched and unbatched runs return
        identical neighbours and identical summed work counters.
    workers, pool:
        Shard the query tiles across a :mod:`repro.parallel` worker
        pool (``workers=0`` means one per core; ``pool`` is
        ``"process"``, ``"thread"`` or ``"serial"``).  Defaults follow
        ``REPRO_WORKERS``/``REPRO_POOL``; sharded runs are bit-for-bit
        identical to serial ones.
    explain:
        Attach a :class:`~repro.obs.audit.QueryAudit` to the result
        (``result.audit``): plan knobs, shard fan-out, per-stage
        funnel counts and per-span timings for this exact call.
    options:
        Forwarded to the engine (e.g. ``force_filter=...``,
        ``threads_per_query=...`` for ``"sweet"``).

    Returns
    -------
    KNNResult
    """
    queries, targets, k = _validate(queries, targets, k)
    decision = None
    if method in (None, "auto"):
        from .. import sched

        decision = sched.decide(
            queries.shape[0], targets.shape[0], k, queries.shape[1],
            method="auto", workers=workers, pool=pool)
        method = decision.engine
    spec = get_engine(method)
    rng = np.random.default_rng(seed) if spec.caps.uses_seed else None
    if spec.caps.needs_device:
        device = device or tesla_k20c()
    return execute(spec, queries, targets, k, rng=rng, device=device,
                   query_batch_size=query_batch_size, workers=workers,
                   pool=pool, explain=explain, decision=decision, **options)


class SweetKNN:
    """Index-style interface: cluster targets once, query many times.

    The target-side preparation (landmark selection, clustering, the
    descending member sort) is done exactly once, at construction, in a
    :class:`repro.index.Index`; every ``query`` call clusters only its
    query points and reuses the prepared target side.
    Execution plans are cached per ``(|Q|, k)`` shape, and the level-1
    bounds of a reused query batch are cached per ``k`` inside the
    shared :class:`~repro.core.ti_knn.JoinPlan`.

    ``method`` may name any prepared-index engine (``"sweet"``,
    ``"ti-gpu"``, ``"ti-cpu"``, ``"ti-flat"``).

    Example
    -------
    >>> index = SweetKNN(targets, seed=0)
    >>> result = index.query(queries, k=10)
    """

    def __init__(self, targets, seed=0, device=None, mt=None,
                 method="sweet", workers=None, pool=None):
        targets = check_points(targets, name="targets", require_finite=True)
        spec = get_engine(method)
        if not spec.caps.supports_prepared_index:
            raise ValidationError(
                "engine %r does not support a prepared index" % method)
        self._spec = spec
        self.workers = workers
        self.pool = pool
        self.device = (device or tesla_k20c()) if spec.caps.needs_device \
            else device
        self._rng = np.random.default_rng(seed)
        budget = (self.device.global_mem_bytes
                  if self.device is not None else None)
        self.index = Index(targets, seed=seed, rng=self._rng, mt=mt,
                           memory_budget_bytes=budget)
        self._plans = {}       # (|Q|, k, mq, knobs, version) -> plan
        self._join_plans = []  # [(query array, mq, version, JoinPlan)]

    @classmethod
    def from_index(cls, index, device=None, method="sweet", workers=None,
                   pool=None):
        """Wrap an existing :class:`repro.index.Index` (e.g. one loaded
        from disk with ``Index.load``) without rebuilding anything.

        The index's own landmark RNG keeps driving query-side landmark
        selection, so a saved-and-loaded index answers queries
        bit-identically to the instance that built it.

        Example
        -------
        >>> knn = SweetKNN.from_index(Index.load("idx/"), method="ti-cpu")
        """
        if not isinstance(index, Index):
            raise ValidationError(
                "from_index expects a repro.index.Index, got %r"
                % type(index).__name__)
        spec = get_engine(method)
        if not spec.caps.supports_prepared_index:
            raise ValidationError(
                "engine %r does not support a prepared index" % method)
        self = cls.__new__(cls)
        self._spec = spec
        self.workers = workers
        self.pool = pool
        self.device = (device or tesla_k20c()) if spec.caps.needs_device \
            else device
        self._rng = index._rng
        self.index = index
        self._plans = {}
        self._join_plans = []
        return self

    @property
    def targets(self):
        """The (possibly updated) target matrix of the wrapped index."""
        return self.index.targets

    def plan(self, queries, k, mq=None, **options):
        """The :class:`~repro.engine.planner.ExecutionPlan` for a query.

        Cached per ``(|Q|, k)`` shape (and adaptive knobs), so repeated
        queries of the same shape reuse the resolved plan.
        """
        queries, _, k = _validate(queries, self.targets, k)
        return self._plan_for(queries.shape[0], k, mq, options,
                              workers=self.workers, pool=self.pool)

    def query(self, queries, k, mq=None, query_batch_size=None,
              workers=None, pool=None, **options):
        """k nearest prepared targets of each query point.

        ``workers``/``pool`` override the index-level defaults set at
        construction; the prebuilt join plan ships to the pool workers,
        where it is cached by content fingerprint across requests.
        """
        if "mt" in options:
            raise ValidationError(
                "mt is fixed when the index is built; pass it to SweetKNN()")
        queries, targets, k = _validate(queries, self.targets, k)
        workers = workers if workers is not None else self.workers
        pool = pool if pool is not None else self.pool
        join_plan = self._join_plan_for(queries, mq)
        exec_plan = self._plan_for(queries.shape[0], k, mq, options,
                                   workers=workers, pool=pool)
        sharding = exec_plan.sharding
        if query_batch_size is not None:
            rows = query_batch_size
        elif sharding is not None and sharding.sharded:
            # The planner's joint shard/tile decision: tiles shrink to
            # an even split across the workers.
            rows = sharding.rows_per_shard
        else:
            rows = exec_plan.batching.rows_per_batch
        return execute(self._spec, queries, self.targets, k, rng=self._rng,
                       device=self.device, plan=join_plan, index=self.index,
                       query_batch_size=rows, workers=workers, pool=pool,
                       **options)

    def query_one(self, point, k, **options):
        """k nearest prepared targets of a single point.

        The per-request path of the serving layer: takes one point of
        shape (d,), returns a :class:`~repro.core.result.Neighbors`
        with shape-(k,) ``distances``/``indices`` — no manual
        reshaping to (1, d) and back.

        Example
        -------
        >>> neighbours = index.query_one(point, k=10)
        >>> neighbours.indices          # (k,)
        >>> dists, ids = neighbours     # tuple-style unpacking
        """
        point = np.asarray(point, dtype=np.float64)
        if point.ndim != 1:
            raise ValidationError(
                "query_one expects a single point of shape (d,); "
                "use query() for batches")
        return self.query(point[np.newaxis, :], k, **options).row(0)

    def self_join(self, k, **options):
        """k nearest neighbours of every target within the target set."""
        return self.query(self.targets, k, **options)

    def _plan_for(self, n_queries, k, mq, options, workers=None, pool=None):
        knobs = tuple(sorted((name, options[name]) for name in options
                             if name in _DECIDE_KEYS))
        # The index version is part of the key: add/remove changes the
        # target count and (after a rebuild) mt, both plan inputs.
        key = (n_queries, k, mq, knobs, workers, pool, self.index.version)
        plan = self._plans.get(key)
        if plan is None:
            plan = plan_shape(n_queries, len(self.targets), k,
                              self.index.dim, method=self._spec.name,
                              device=self.device, mq=mq, mt=self.index.mt,
                              workers=workers, pool=pool, **dict(knobs))
            self._plans[key] = plan
        return plan

    def _join_plan_for(self, queries, mq):
        """Cluster the query side against the prepared targets.

        Identity-cached: querying with the same array object again (a
        fixed probe set, or ``self_join``) reuses the query clustering
        and, through the JoinPlan's own per-k cache, the level-1 bounds.
        """
        version = self.index.version
        # A plan of an earlier version can never be hit again, and it
        # holds that version's clustered target set: drop it.
        self._join_plans = [entry for entry in self._join_plans
                            if entry[2] == version]
        for cached_queries, cached_mq, _, cached_plan in self._join_plans:
            if cached_queries is queries and cached_mq == mq:
                return cached_plan
        join_plan = self.index.join_plan(queries, mq=mq)
        self._join_plans.append((queries, mq, version, join_plan))
        del self._join_plans[:-_JOIN_PLAN_CACHE_SIZE]
        return join_plan
