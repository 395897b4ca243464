"""In-process concurrent KNN query service.

:class:`KNNServer` glues the serving pieces together on top of the
PR-1 execution-engine layer:

* the :class:`~repro.serve.store.IndexStore` resolves each request's
  target set to a cached :class:`repro.index.Index` (cluster once,
  serve forever — optionally preloaded from a saved index directory,
  memory-mapped);
* the :class:`~repro.serve.batcher.MicroBatcher` coalesces concurrent
  small requests into planner-sized tiles, bounds the queue
  (:class:`~repro.errors.Overloaded`) and drops expired work
  (:class:`~repro.errors.DeadlineExceeded`).  With the default
  ``max_wait_s=0`` an idle server executes a request at once; the
  requests that queue up while a tile executes form the next tile;
* one ``engine.execute()`` call answers each tile, its rows split back
  per request — so every served answer is exactly what a direct
  :func:`repro.knn_join` call returns;
* under sustained overload (queue pressure at or above
  ``degrade_at``), batches fall back to the cheaper
  ``degraded_method`` engine, surfaced per response via
  ``response.degraded`` — answers stay exact (every registered engine
  is), only the performance accounting changes.

Example
-------
::

    from repro.serve import KNNServer

    with KNNServer(method="ti-flat") as server:
        response = server.query(point, targets, k=10)
        response.indices        # (k,) neighbour ids

Thread safety: ``submit``/``query`` may be called from any number of
threads; engine execution happens on the single scheduler thread, so
engines and prepared indexes never race.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .. import obs
from ..core.api import _validate
from ..engine.executor import execute
from ..engine.planner import _DECIDE_KEYS, plan_shape
from ..engine.registry import get_engine
from ..errors import Overloaded, ValidationError
from ..gpu.device import tesla_k20c
from .batcher import MicroBatcher, PendingRequest
from .stats import StatsCollector
from .store import IndexStore

__all__ = ["KNNServer", "ServeConfig", "ServeResponse"]

logger = logging.getLogger("repro.serve")


@dataclass(frozen=True)
class ServeConfig:
    """Tuning knobs of a :class:`KNNServer`.

    Attributes
    ----------
    method:
        Primary engine; must support a prepared index.  Defaults to
        the host tier's ``"ti-flat"``; ``"sweet"``, ``"ti-gpu"``,
        ``"ti-cpu"`` or a plugin engine declaring the capability work
        too.
    degraded_method:
        Engine used when queue pressure reaches ``degrade_at``
        (``None`` disables degradation).  Any registered engine works;
        engine options of the primary method are not forwarded to it.
    degrade_at:
        Queue fill fraction (0..1] at which batches degrade.
    max_batch_size:
        Coalescing cap in query rows; the effective tile is
        ``min(max_batch_size, planner rows_per_batch)`` so a batch
        never exceeds what the device budget admits in one call.
    max_wait_s:
        Longest a request may wait for co-batching before a partial
        tile flushes.  The default 0 never holds a request back: an
        idle server runs it at once, and requests that arrive while a
        tile executes coalesce into the next tile.
    max_queue_depth:
        Admission-control bound on queued requests.
    default_deadline_s:
        Deadline applied to requests that do not carry their own.
    seed, mt:
        Landmark seed / target landmark-count override used when
        preparing indexes (part of the cache key).
    index_dir:
        Optional saved-index directory (``python -m repro index build``
        / :meth:`repro.index.Index.save`) preloaded into the store at
        construction, memory-mapped.  Requests whose target set matches
        its fingerprint — and whose ``seed``/``mt`` match the knobs it
        was built with — are warm from the first query, with the target
        arrays shared zero-copy through the page cache.
    graph_method:
        Engine serving requests that carry a ``recall_target``
        (``"graph-bfs"``; ``None`` disables the approximate route).
        Used only when the request's index has a fresh
        :class:`~repro.graph.KNNGraph` attached — otherwise the
        request silently falls back to the exact route and the
        response reports ``route="exact"``.
    workers, pool:
        Shard each coalesced batch across a :mod:`repro.parallel`
        worker pool (``workers=0`` means one per core; ``pool`` is
        ``"process"``/``"thread"``/``"serial"``).  Defaults follow
        ``REPRO_WORKERS``/``REPRO_POOL``; answers are bit-identical to
        serial execution either way.
    device:
        Device for simulated-GPU engines (defaults to the Tesla K20c).
    store_budget_bytes, store_max_entries:
        Index-cache eviction policy (see :class:`IndexStore`).
    tracer:
        Optional :class:`~repro.obs.Tracer`.  The context-var tracer of
        the submitting thread does **not** reach the scheduler thread,
        so servers take the tracer explicitly; when set, every request
        gets a ``serve.request`` span (one trace id per request) whose
        children cover the queue wait, the coalesced batch, the engine
        execution and the per-request result split, and the server's
        ``serve.*`` metrics land in the tracer's registry.
    slos:
        Declarative SLO set (:class:`~repro.obs.watch.SloSpec` objects
        or ``"name=bound"`` strings) evaluated by an
        :class:`~repro.obs.watch.SloMonitor` after every batch over the
        server's rolling metric windows.  Statuses surface in
        :meth:`KNNServer.stats` / ``ServerStats.table()``; breaches
        increment ``slo.breaches`` and emit a ``serve.slo_breach``
        event on breach transitions.
    window_s:
        Width of the rolling metric windows (seconds) the SLO monitor
        and the windowed ``ServerStats`` rows read from.
    """

    method: str = "ti-flat"
    degraded_method: str = "brute"
    degrade_at: float = 0.75
    max_batch_size: int = 64
    max_wait_s: float = 0.0
    max_queue_depth: int = 256
    default_deadline_s: float = None
    seed: int = 0
    mt: int = None
    index_dir: str = None
    graph_method: str = "graph-bfs"
    workers: int = None
    pool: str = None
    device: object = None
    store_budget_bytes: int = None
    store_max_entries: int = None
    tracer: object = None
    slos: tuple = ()
    window_s: float = 60.0


@dataclass(frozen=True)
class ServeResponse:
    """One request's answer plus its serving metadata.

    ``distances``/``indices`` are shape (k,) for a single-point request
    and (n, k) for a batch request — exactly the rows a direct
    :func:`repro.knn_join` call would return for the same queries.
    ``labels`` (classification requests) and ``scores`` (novelty
    requests) carry the workload post-processing of
    :mod:`repro.workloads`; plain queries leave them ``None``.

    ``route`` reports which path served the answer: ``"exact"`` (the
    configured exact engine — always the case when the request carried
    no ``recall_target``, and the fallback when the index has no fresh
    graph) or ``"approx"`` (the graph-walk engine at the ``ef``
    resolved from the request's ``recall_target`` through the graph's
    calibration curve — echoed in ``ef``/``recall_target``).
    """

    distances: np.ndarray
    indices: np.ndarray
    method: str
    engine: str
    degraded: bool
    cache_hit: bool
    latency_s: float
    batch_rows: int
    batch_requests: int
    request_id: str = None
    labels: object = None
    scores: object = None
    route: str = "exact"
    recall_target: float = None
    ef: int = None
    recall_estimate: float = None
    audit: object = None


@dataclass
class _Payload:
    """Server-side request state carried through the batcher."""

    queries: np.ndarray
    index: object
    k: int
    options: dict
    single: bool
    cache_hit: bool
    row_slice: slice = field(default=None)
    request_id: str = None
    request_span: object = None
    queue_span: object = None
    route: str = "exact"
    recall_target: float = None
    ef: int = None
    recall_estimate: float = None
    explain: bool = False


class KNNServer:
    """Concurrent KNN query service over the execution-engine layer.

    Parameters may be given as a :class:`ServeConfig`, as keyword
    overrides, or both (keywords win)::

        server = KNNServer(method="ti-cpu", max_wait_s=0.001)
        server.start()
        ...
        server.stop()
    """

    def __init__(self, config=None, **overrides):
        config = config or ServeConfig()
        if overrides:
            config = replace(config, **overrides)
        self.config = config

        self._spec = get_engine(config.method)
        if not self._spec.caps.supports_prepared_index:
            raise ValidationError(
                "serving engine %r does not support a prepared index"
                % config.method)
        if self._spec.caps.result_kind != "knn":
            raise ValidationError(
                "serving engine %r returns variable-cardinality results; "
                "the server's responses are fixed-k" % config.method)
        self._degraded_spec = (get_engine(config.degraded_method)
                               if config.degraded_method else None)
        if (self._degraded_spec is not None
                and self._degraded_spec.caps.result_kind != "knn"):
            raise ValidationError(
                "degraded engine %r returns variable-cardinality results; "
                "the server's responses are fixed-k" % config.degraded_method)
        self._graph_spec = (get_engine(config.graph_method)
                            if config.graph_method else None)
        if (self._graph_spec is not None
                and self._graph_spec.caps.result_kind != "knn"):
            raise ValidationError(
                "graph engine %r returns variable-cardinality results; "
                "the server's responses are fixed-k" % config.graph_method)
        if not 0.0 < config.degrade_at <= 1.0:
            raise ValidationError("degrade_at must be in (0, 1]")
        if config.max_batch_size <= 0:
            raise ValidationError("max_batch_size must be positive")

        needs_device = self._spec.caps.needs_device or (
            self._degraded_spec is not None
            and self._degraded_spec.caps.needs_device)
        self._device = ((config.device or tesla_k20c())
                        if needs_device else config.device)
        self._rng = np.random.default_rng(config.seed)

        self.store = IndexStore(budget_bytes=config.store_budget_bytes,
                                max_entries=config.store_max_entries)
        if config.index_dir is not None:
            self.store.preload(config.index_dir)
        self._tracer = config.tracer
        self._request_ids = itertools.count(1)
        self.stats_collector = StatsCollector(
            registry=(self._tracer.registry
                      if self._tracer is not None else None))
        self._batcher = MicroBatcher(
            self._execute_batch, max_wait_s=config.max_wait_s,
            max_queue_depth=config.max_queue_depth,
            on_expired=self._on_expired)
        self._tile_cache = {}

        # Rolling windows over the serve.* metrics plus the SLO
        # monitor — evaluated on the scheduler thread after every
        # batch, so statuses are race-free by construction.
        from ..obs.watch import MetricWindows, SloMonitor, SloSpec
        specs = tuple(spec if isinstance(spec, SloSpec)
                      else SloSpec.parse(spec) for spec in config.slos)
        self.windows = MetricWindows(self.stats_collector.registry,
                                     window_s=config.window_s)
        self.slo_monitor = SloMonitor(specs,
                                      self.stats_collector.registry,
                                      windows=self.windows)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Start the scheduler thread; idempotent."""
        self._batcher.start()
        return self

    def stop(self):
        """Stop the scheduler after draining every in-flight request."""
        self._batcher.stop()

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb):
        self.stop()
        return False

    @property
    def running(self):
        return self._batcher.running

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    def submit(self, queries, targets, k, deadline_s=None,
               recall_target=None, explain=False, **options):
        """Enqueue a request; returns a future of :class:`ServeResponse`.

        ``queries`` may be a single point of shape (d,) or a small
        batch of shape (n, d).  ``targets`` is fingerprinted and
        resolved through the index store, so passing the same target
        set (by value) never re-clusters it.

        ``recall_target`` opts the request into the approximate tier:
        when the resolved index carries a fresh
        :class:`~repro.graph.KNNGraph`, the request is served by the
        graph engine at the ``ef`` the graph's calibration curve maps
        the target to, and the response reports ``route="approx"``.
        Without a fresh graph the request falls back to the exact
        engine (``route="exact"``); with ``recall_target=None``
        (default) the request path is byte-for-byte the pre-graph
        behaviour.

        ``explain=True`` attaches a
        :class:`~repro.obs.audit.QueryAudit` to the response —
        engine/plan knobs, shard fan-out, per-stage funnel counts,
        route/``ef``/recall estimate and per-span timings.  Explain
        joins the coalescing key, so an explain request is never mixed
        into another request's tile: its funnel counts are exactly the
        direct :func:`repro.knn_join` counters for the same queries.

        Raises
        ------
        Overloaded
            When admission control rejects the request.
        ServeError
            When the server is not running.
        ValidationError
            For malformed inputs or options.
        """
        if "mt" in options:
            raise ValidationError(
                "mt is fixed per prepared index; set it in ServeConfig")
        if recall_target is not None \
                and not 0.0 < float(recall_target) <= 1.0:
            raise ValidationError("recall_target must be in (0, 1]")
        queries = np.asarray(queries, dtype=np.float64)
        single = queries.ndim == 1
        if single:
            queries = queries[np.newaxis, :]
        queries, targets, k = _validate(queries, targets, k)

        self.stats_collector.record_submitted()
        index, cache_hit = self.store.get(
            targets, seed=self.config.seed, mt=self.config.mt,
            memory_budget_bytes=(self._device.global_mem_bytes
                                 if self._device is not None else None))

        route, ef, recall_estimate = "exact", None, None
        graph = getattr(index, "graph", None)
        if graph is not None:
            # Staleness signal for the max_version_lag SLO.
            self.stats_collector.registry.gauge(
                "serve.graph_version_lag").set(
                    int(index.version) - graph.built_version)
        if recall_target is not None and self._graph_spec is not None:
            if graph is not None and graph.is_fresh_for(index):
                route = "approx"
                ef = int(graph.ef_for(recall_target, k))
                if graph.calibration is not None:
                    recall_estimate = float(
                        graph.calibration.recall_at(ef))
                    self.stats_collector.record_recall_estimate(
                        recall_estimate)

        opts_key = tuple(sorted(options.items()))
        store_key = self.store.key_for(index.targets, self.config.seed,
                                       self.config.mt)
        # Route and ef join the coalescing key so exact and approximate
        # requests never share a tile; all-exact traffic produces the
        # same key — hence the same batches — as before the graph tier.
        # Explain joins it too: an audited request gets its own tile,
        # so its funnel counts equal a direct join of the same queries.
        batch_key = (store_key, k, opts_key, route, ef, bool(explain))
        request_id = "req-%d" % next(self._request_ids)
        payload = _Payload(queries=queries, index=index, k=k,
                           options=dict(options), single=single,
                           cache_hit=cache_hit, request_id=request_id,
                           route=route, recall_target=recall_target,
                           ef=ef, recall_estimate=recall_estimate,
                           explain=bool(explain))
        if self._tracer is not None:
            payload.request_span = self._tracer.start_span(
                "serve.request", trace_id=request_id,
                request_id=request_id, k=k, rows=len(queries),
                cache_hit=cache_hit, route=route)
            payload.queue_span = self._tracer.start_span(
                "serve.queue", parent=payload.request_span,
                trace_id=request_id)
        request = PendingRequest(
            key=batch_key, payload=payload, n_rows=len(queries),
            max_batch=self._tile_rows(index, k, options),
            deadline_s=(deadline_s if deadline_s is not None
                        else self.config.default_deadline_s))
        try:
            return self._batcher.submit(request)
        except Overloaded as exc:
            self.stats_collector.record_rejected()
            logger.debug("admission control rejected %s: %s",
                         request_id, exc)
            self._close_request_spans(payload, outcome="rejected",
                                      error=repr(exc))
            raise

    def query(self, queries, targets, k, deadline_s=None, timeout=None,
              **options):
        """Blocking convenience: ``submit(...).result(timeout)``."""
        return self.submit(queries, targets, k, deadline_s=deadline_s,
                           **options).result(timeout)

    def classify(self, queries, targets, labels, k, deadline_s=None,
                 timeout=None, **options):
        """Majority-vote classification served through the batcher.

        The KNN answer takes the normal request path (coalescing,
        degradation, deadlines); the vote itself
        (:func:`repro.workloads.majority_vote`) is pure post-processing
        on the caller's thread.  Returns a :class:`ServeResponse` whose
        ``labels`` field holds the prediction — a scalar for a single
        point, an (n,) vector for a batch.
        """
        from ..workloads import majority_vote

        labels = np.asarray(labels)
        targets = np.asarray(targets, dtype=np.float64)
        if labels.ndim != 1 or labels.shape[0] != targets.shape[0]:
            raise ValidationError(
                "labels must be a (|T|,) vector aligned with targets")
        response = self.query(queries, targets, k, deadline_s=deadline_s,
                              timeout=timeout, **options)
        single = response.indices.ndim == 1
        votes = majority_vote(
            labels[np.atleast_2d(response.indices)])
        return replace(response, labels=votes[0] if single else votes)

    def novelty(self, queries, targets, k, deadline_s=None, timeout=None,
                **options):
        """Average-distance novelty scoring served through the batcher.

        Returns a :class:`ServeResponse` whose ``scores`` field is the
        mean distance to the k nearest targets — a float for a single
        point, an (n,) vector for a batch (see
        :func:`repro.workloads.novelty_scores`).
        """
        response = self.query(queries, targets, k, deadline_s=deadline_s,
                              timeout=timeout, **options)
        single = response.distances.ndim == 1
        scores = np.atleast_2d(response.distances).mean(axis=1)
        return replace(response,
                       scores=float(scores[0]) if single else scores)

    def stats(self):
        """A :class:`~repro.serve.stats.ServerStats` snapshot.

        Includes the rolling-window summaries (``stats.window``) and,
        when SLOs are configured, a fresh evaluation of every objective
        (``stats.slo``).
        """
        slo = (self.slo_monitor.evaluate()
               if self.slo_monitor.specs else ())
        return self.stats_collector.snapshot(
            queue_depth=self._batcher.queue_depth(),
            max_queue_depth=self.config.max_queue_depth,
            store_stats=self.store.stats(),
            slo=slo, window=self.windows.snapshot())

    # ------------------------------------------------------------------
    # Scheduler side
    # ------------------------------------------------------------------
    def _tile_rows(self, index, k, options):
        """Planner-sized coalescing tile for this index/k/knobs."""
        knobs = tuple(sorted((name, options[name]) for name in options
                             if name in _DECIDE_KEYS))
        key = (index.mt, len(index.targets), index.dim, k, knobs)
        rows = self._tile_cache.get(key)
        if rows is None:
            exec_plan = plan_shape(
                self.config.max_batch_size, len(index.targets), k,
                index.dim, method=self._spec.name, device=self._device,
                mt=index.mt, **dict(knobs))
            rows = max(1, min(self.config.max_batch_size,
                              exec_plan.batching.rows_per_batch))
            self._tile_cache[key] = rows
        return rows

    def _close_request_spans(self, payload, **attributes):
        """Finish a request's queue + request spans (any outcome path)."""
        if self._tracer is None:
            return
        if payload.queue_span is not None:
            self._tracer.finish_span(payload.queue_span)
        if payload.request_span is not None:
            payload.request_span.annotate(**attributes)
            self._tracer.finish_span(payload.request_span)

    def _on_expired(self, request):
        """Batcher callback: a request's deadline lapsed in the queue."""
        self.stats_collector.record_expired()
        payload = request.payload
        logger.debug("deadline exceeded for %s after %.4fs in queue",
                     payload.request_id, request.waited(time.monotonic()))
        self._close_request_spans(payload, outcome="expired")

    def _execute_batch(self, requests, pressure):
        """Run one coalesced tile and split the answers per request.

        Called on the scheduler thread only, so prepared indexes and
        the landmark RNG are never shared across concurrent executes.
        The scheduler thread has no context-var tracer of its own;
        when the server was given one, it is re-activated here so the
        engine/kernel spans of the batch nest under ``serve.batch``.
        """
        tracer = self._tracer
        if tracer is None:
            return self._run_batch(requests, pressure)
        for request in requests:
            tracer.finish_span(request.payload.queue_span)
        request_ids = [r.payload.request_id for r in requests]
        with obs.use_tracer(tracer):
            with tracer.span("serve.batch", trace_id=request_ids[0],
                             requests=len(requests),
                             request_ids=request_ids,
                             pressure=round(pressure, 4)):
                return self._run_batch(requests, pressure)

    def _run_batch(self, requests, pressure):
        first = requests[0].payload
        batch = (first.queries if len(requests) == 1
                 else np.vstack([r.payload.queries for r in requests]))
        start = 0
        for request in requests:
            stop = start + request.n_rows
            request.payload.row_slice = slice(start, stop)
            start = stop

        # The approximate route never degrades — the graph walk *is*
        # the cheap path, so swapping it for the degraded exact engine
        # under pressure would raise, not lower, the batch cost.
        approx = first.route == "approx"
        degraded = (not approx and self._degraded_spec is not None
                    and pressure >= self.config.degrade_at)
        if degraded:
            logger.debug(
                "queue pressure %.2f >= %.2f: degrading batch of %d "
                "requests to %s", pressure, self.config.degrade_at,
                len(requests), self._degraded_spec.name)
            obs.event("serve.degraded", pressure=round(pressure, 4),
                      engine=self._degraded_spec.name)
        try:
            if approx:
                spec = self._graph_spec
                index = first.index
                dead = (index.tombstones if index.n_tombstones else None)
                result = execute(
                    spec, batch, index.targets, first.k,
                    rng=self._rng, device=self._device,
                    workers=self.config.workers, pool=self.config.pool,
                    explain=first.explain,
                    graph=index.graph, ef=first.ef, dead_mask=dead,
                    **first.options)
            elif degraded:
                # The degraded engine knows no tombstones: run it on the
                # live rows and map its ids back to row ids.
                spec = self._degraded_spec
                live = first.index.active_ids()
                targets = first.index.targets
                if live.size < len(targets):
                    targets = targets[live]
                result = execute(
                    spec, batch, targets, first.k,
                    rng=self._rng, device=self._device,
                    workers=self.config.workers, pool=self.config.pool,
                    explain=first.explain)
                result.indices = live[result.indices]
            else:
                spec = self._spec
                join_plan = first.index.join_plan(batch)
                result = execute(
                    spec, batch, first.index.targets, first.k,
                    rng=self._rng, device=self._device, plan=join_plan,
                    index=first.index, workers=self.config.workers,
                    pool=self.config.pool, explain=first.explain,
                    **first.options)
        except Exception as exc:
            for request in requests:
                request.future.set_exception(exc)
                self.stats_collector.record_error()
                self._close_request_spans(request.payload,
                                          outcome="error", error=repr(exc))
            self._check_slos()
            return

        self.stats_collector.record_batch(len(requests), len(batch))
        with obs.span("serve.merge", requests=len(requests),
                      rows=len(batch)):
            now = time.monotonic()
            for request in requests:
                payload = request.payload
                rows = payload.row_slice
                distances = result.distances[rows]
                indices = result.indices[rows]
                if payload.single:
                    distances, indices = distances[0], indices[0]
                latency = request.waited(now)
                audit = None
                if payload.explain and result.audit is not None:
                    audit = result.audit.replace(
                        request_id=payload.request_id,
                        route=payload.route,
                        recall_target=payload.recall_target,
                        ef=payload.ef,
                        recall_estimate=payload.recall_estimate,
                        degraded=degraded,
                        cache_hit=payload.cache_hit,
                        latency_s=round(latency, 6),
                        batch_rows=len(batch),
                        batch_requests=len(requests))
                request.future.set_result(ServeResponse(
                    distances=distances, indices=indices,
                    method=result.method, engine=spec.name,
                    degraded=degraded, cache_hit=payload.cache_hit,
                    latency_s=latency, batch_rows=len(batch),
                    batch_requests=len(requests),
                    request_id=payload.request_id,
                    route=payload.route,
                    recall_target=payload.recall_target,
                    ef=payload.ef,
                    recall_estimate=payload.recall_estimate,
                    audit=audit))
                self.stats_collector.record_served(latency,
                                                   degraded=degraded,
                                                   route=payload.route)
                self._close_request_spans(
                    payload, outcome="served", engine=spec.name,
                    degraded=degraded, route=payload.route,
                    latency_s=round(latency, 6),
                    batch_rows=len(batch),
                    batch_requests=len(requests))
        self._check_slos()

    def _check_slos(self):
        """Evaluate the configured SLOs (scheduler thread, post-batch)."""
        if not self.slo_monitor.specs:
            return
        previous = {status.spec: status.ok
                    for status in self.slo_monitor.last()}
        for status in self.slo_monitor.evaluate():
            if status.ok or previous.get(status.spec, True) is False:
                continue
            logger.warning("SLO breached: %s (measured %.6g)",
                           status.spec.describe(), status.value)
            obs.event("serve.slo_breach", slo=status.spec.name,
                      bound=status.spec.bound,
                      value=round(status.value, 6))
