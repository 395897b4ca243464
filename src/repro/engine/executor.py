"""Dispatch and batched execution of registered engines.

:func:`execute` is the single funnel every entry point
(:func:`repro.knn_join`, :class:`repro.SweetKNN`, the CLI) goes
through.  It resolves the query-batching decision from the planner and
either

* runs the engine once (the common case — the whole query set fits the
  device budget), or
* tiles the query set into device-memory-sized batches and merges the
  per-batch :class:`~repro.core.result.KNNResult`s.

Both tiled paths share one tile loop,
:func:`~repro.parallel.worker.run_shard_task`: the serial batched path
runs it inline, and with ``workers > 1`` the same tiles fan out across
a :mod:`repro.parallel` worker pool.  For prepared-index engines the
caller builds the Step-1 state
(:func:`~repro.core.ti_knn.prepare_clusters`) **once** — or takes the
prebuilt plan — and every tile restricts its engine call to a
``query_subset`` of that plan.  Because the level-2 scan of a query
depends only on its own cluster's candidate list and bound, every
per-query result and work counter is bit-for-bit identical to the
unbatched run, and the merged counters are exactly the unbatched
totals (the shared preparation is accounted on tile 0 only, via
``account_prepare``; per-tile results merge in tile order).  Engines
without prepared-index support are tiled by plain row slicing, which
is counter-additive by construction.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

from .. import obs
from ..errors import ValidationError
from ..parallel import get_pool, plan_shards, resolve_pool_kind, \
    resolve_workers
from ..index.cache import PlanHandle
from ..parallel.worker import ShardJob, ShardTask, run_shard_task
from .base import ExecutionContext
from .planner import partition_ranges, plan_shape

__all__ = ["execute"]


def execute(spec, queries, targets, k, rng=None, device=None,
            query_batch_size=None, workers=None, pool=None, index=None,
            explain=False, decision=None, **options):
    """Run ``spec`` on the join, batching oversized query sets.

    Parameters
    ----------
    spec:
        A registered :class:`~repro.engine.base.EngineSpec`.
    rng, device:
        Landmark RNG and (resolved) device; forwarded via the context.
    explain:
        Assemble a :class:`~repro.obs.audit.QueryAudit` — plan knobs,
        shard fan-out, funnel counts, per-span timings — and attach it
        as ``result.audit``.  Runs under a private tracer when no
        ambient one is active, so explain works without any tracing
        setup; the published counters are guarded by the idempotent
        ``JoinStats.publish``, so auditing never double-counts.
    query_batch_size:
        Force a tile size (tests, experiments).  ``None`` asks the
        planner, which only batches prepared-index device engines whose
        working set exceeds device memory.
    workers, pool:
        Fan the query tiles across a :mod:`repro.parallel` worker pool
        (``pool`` is ``"process"``/``"thread"``/``"serial"``).  Both
        default to the ``REPRO_WORKERS``/``REPRO_POOL`` environment
        and ultimately to serial execution; sharded and serial runs
        return bit-identical results and summed counters.
    index:
        The :class:`repro.index.Index` the prebuilt ``plan`` came
        from, when the caller has one.  A disk-backed index lets
        process-pool sharding ship a zero-copy
        :class:`~repro.index.cache.PlanHandle` (index path +
        ``(fingerprint, version)``) instead of pickling the target
        arrays into every worker.
    decision:
        The :class:`repro.sched.Decision` that chose this engine, when
        the caller already resolved one (``method="auto"``).  ``None``
        resolves the pinned-engine decision here, so every run carries
        an auditable record, plus its measured ``actual_s``, in
        ``result.stats.extra["decision"]``.
    options:
        Engine options, forwarded verbatim.  ``plan`` (a prebuilt
        :class:`~repro.core.ti_knn.JoinPlan`) and ``mq``/``mt`` are
        intercepted where the batched path owns the preparation.
    """
    n_q = len(queries)
    with contextlib.ExitStack() as stack:
        tracer = obs.current_tracer()
        if explain and tracer is None:
            # Explain needs span timings; give the call a private
            # tracer when the caller didn't set one up.
            from ..obs.tracer import Tracer
            tracer = Tracer()
            stack.enter_context(obs.use_tracer(tracer))
        spans_before = len(tracer.finished_spans()) if explain else 0
        if decision is None:
            decision = _resolve_decision(spec, queries, targets, k,
                                         workers, pool)
        with obs.span("engine.execute", engine=spec.name,
                      n_queries=int(n_q), n_targets=int(len(targets)),
                      k=int(k)) as sp:
            obs.event("sched.decision", engine=decision.engine,
                      workers=decision.workers, reason=decision.reason)
            started = time.perf_counter()
            result = _execute(spec, queries, targets, k, rng=rng,
                              device=device,
                              query_batch_size=query_batch_size,
                              workers=workers, pool=pool, index=index,
                              explain=explain, **options)
            actual_s = time.perf_counter() - started
            record = decision.to_dict()
            record["actual_s"] = round(actual_s, 6)
            result.stats.extra["decision"] = record
            obs.event("sched.outcome", engine=decision.engine,
                      actual_s=record["actual_s"])
            sp.annotate(method=result.method,
                        saved_fraction=round(result.stats.saved_fraction, 4))
            if result.profile is not None:
                sp.annotate(sim_time_s=result.profile.sim_time_s)
            if tracer is not None:
                result.stats.publish(tracer.registry)
                if result.profile is not None:
                    result.profile.publish(tracer.registry)
                    tracer.add_artifact("pipeline_profile", result.profile)
        if explain:
            result.audit = _assemble_audit(
                spec, result, device, options,
                tracer.finished_spans()[spans_before:])
        return result


def _resolve_decision(spec, queries, targets, k, workers, pool):
    """The pinned-engine scheduling decision for a direct ``execute``."""
    from ..sched import decide

    return decide(len(queries), len(targets), int(k),
                  int(np.asarray(queries).shape[1]), method=spec.name,
                  workers=workers, pool=pool)


def _assemble_audit(spec, result, device, options, spans):
    """Build the :class:`~repro.obs.audit.QueryAudit` for one run."""
    from ..obs.audit import QueryAudit, span_timings
    from ..obs.funnel import funnel_from_stats

    stats = result.stats
    extra = stats.extra
    shards = tuple(extra.pop("shard_detail", ()))
    plan_info = {
        "mq": stats.mq, "mt": stats.mt,
        "query_batches": extra.get("query_batches", 1),
        "workers": extra.get("workers", 1),
        "shards": extra.get("shards", 1),
        "pool": extra.get("pool", "serial"),
    }
    if "zero_copy" in extra:
        plan_info["zero_copy"] = extra["zero_copy"]
    if device is not None:
        plan_info["device"] = getattr(device, "name", str(device))
    audit_options = {
        key: value for key, value in options.items()
        if key != "plan"
        and isinstance(value, (bool, int, float, str, type(None)))}
    ef = audit_options.get("ef")
    return QueryAudit(
        method=result.method or spec.name,
        k=int(stats.k), n_queries=int(stats.n_queries),
        n_targets=int(stats.n_targets), dim=int(stats.dim),
        ef=int(ef) if ef is not None else None,
        plan=plan_info, options=audit_options,
        counters=stats.summary(), funnel=funnel_from_stats(stats),
        shards=shards, timings=span_timings(spans),
        decision=extra.get("decision"))


def _execute(spec, queries, targets, k, rng=None, device=None,
             query_batch_size=None, workers=None, pool=None, index=None,
             explain=False, **options):
    n_q = len(queries)
    missing = [name for name in spec.required_options
               if options.get(name) is None]
    if missing:
        raise ValidationError(
            "method '%s' requires the '%s' knob; pass %s=... "
            "(CLI: --%s)" % (spec.name, missing[0], missing[0],
                             missing[0].replace("_", "-")))
    prepared_plan = (options.pop("plan", None)
                     if spec.caps.supports_prepared_index else None)
    rows = _resolve_rows(spec, queries, targets, k, device,
                         query_batch_size, options)

    shard_plan = None
    n_workers = resolve_workers(workers)
    if n_workers > 1:
        shard_plan = plan_shards(n_q, rows, n_workers,
                                 kind=resolve_pool_kind(pool),
                                 fixed_rows=query_batch_size is not None)
        if not shard_plan.sharded:
            shard_plan = None

    if shard_plan is None and rows >= n_q:
        ctx = ExecutionContext(rng=rng, device=device, plan=prepared_plan)
        return spec.run(queries, targets, k, ctx, **options)

    handle = None
    if spec.caps.supports_prepared_index:
        mode = "shared"
        plan = _step1_plan(queries, targets, rng, device, prepared_plan,
                           options)
        if (shard_plan is not None and shard_plan.kind == "process"
                and index is not None and index.source_path is not None
                and plan.target_clusters is index.target_clusters):
            handle = PlanHandle(index_path=index.source_path,
                                index_key=index.key,
                                query_clusters=plan.query_clusters,
                                center_dists=plan.center_dists,
                                center_band=plan.center_band,
                                query_rows=plan.query_rows)
            plan = None
    else:
        mode, plan = "slice", None
    job = ShardJob(engine=spec.name, mode=mode, queries=queries,
                   targets=None if handle is not None else targets,
                   k=int(k), rng=rng, device=device, options=dict(options),
                   plan=plan, handle=handle, account_index=0)

    if shard_plan is None:
        tiles = tuple((tile, int(start), int(stop)) for tile, (start, stop)
                      in enumerate(partition_ranges(n_q, rows)))
        outcomes = run_shard_task(ShardTask(job=job, shards=tiles))
        return _merge(outcomes, n_q, k)
    return _execute_sharded(job, n_q, shard_plan, explain=explain)


def _merge(outcomes, n_q, k):
    """One result from tile outcomes given in tile order."""
    from ..core.result import merge_results

    return merge_results(
        [(np.arange(outcome.start, outcome.stop), outcome.result)
         for outcome in outcomes], n_q, k)


def _step1_plan(queries, targets, rng, device, prepared_plan, options):
    """The join's Step-1 plan: the caller's prebuilt one, or built once.

    Pops ``mq``/``mt`` from ``options``: every tile runs against this
    plan instead of preparing its own.
    """
    mq = options.pop("mq", None)
    mt = options.pop("mt", None)
    if prepared_plan is not None:
        return prepared_plan
    # Imported here: executor <-> core would otherwise cycle.
    from ..core.ti_knn import prepare_clusters

    budget = device.global_mem_bytes if device is not None else None
    return prepare_clusters(queries, targets, rng, mq=mq, mt=mt,
                            memory_budget_bytes=budget)


def _execute_sharded(job, n_q, shard_plan, explain=False):
    """Fan the job's query tiles across the worker pool; merge in order.

    Tiles are dealt round-robin into one task per worker, so the input
    arrays and the Step-1 plan are pickled once per worker rather than
    once per tile; a process pool over a disk-backed index gets the
    job's :class:`~repro.index.cache.PlanHandle` instead of both.  Tile
    0 is the job's accounting shard (``account_prepare``), mirroring the
    serial batched path, so summed counters equal the unbatched totals.
    """
    ranges = shard_plan.ranges(n_q)
    chunks = [[] for _ in range(shard_plan.workers)]
    for tile, (start, stop) in enumerate(ranges):
        chunks[tile % shard_plan.workers].append(
            (tile, int(start), int(stop)))
    tasks = [ShardTask(job=job, shards=tuple(chunk))
             for chunk in chunks if chunk]
    zero_copy = job.handle is not None

    worker_pool = get_pool(shard_plan.workers, shard_plan.kind)
    with obs.span("engine.shard_fanout", workers=shard_plan.workers,
                  shards=len(ranges), pool=worker_pool.kind,
                  rows_per_shard=shard_plan.rows_per_shard,
                  zero_copy=zero_copy):
        outcomes = worker_pool.run(tasks)
    outcomes.sort(key=lambda outcome: outcome.index)

    # Pooled workers run without a tracer (fresh threads/processes), so
    # the parent re-emits one span per shard and publishes the pool
    # gauges; the merged stats are published once by execute()'s outer
    # span.
    tracer = obs.current_tracer()
    if tracer is not None:
        tracer.registry.gauge("parallel.workers").set(shard_plan.workers)
        tracer.registry.counter("parallel.shards").inc(len(outcomes))
    for outcome in outcomes:
        with obs.span("engine.shard", index=outcome.index,
                      start=outcome.start, stop=outcome.stop,
                      worker=outcome.worker,
                      wall_s=round(outcome.wall_s, 6)):
            pass

    with obs.span("engine.shard_merge", shards=len(outcomes)):
        merged = _merge(outcomes, n_q, job.k)
    merged.stats.extra["workers"] = shard_plan.workers
    merged.stats.extra["shards"] = len(outcomes)
    merged.stats.extra["pool"] = worker_pool.kind
    merged.stats.extra["zero_copy"] = zero_copy
    merged.stats.extra["shard_wall_s"] = [round(outcome.wall_s, 6)
                                          for outcome in outcomes]
    if explain:
        from ..obs.funnel import funnel_from_stats
        merged.stats.extra["shard_detail"] = [
            {"shard": outcome.index, "start": outcome.start,
             "stop": outcome.stop, "worker": outcome.worker,
             "wall_s": round(outcome.wall_s, 6),
             "funnel": funnel_from_stats(outcome.result.stats)}
            for outcome in outcomes]
    return merged


def _resolve_rows(spec, queries, targets, k, device, query_batch_size,
                  options):
    """Tile size in queries; >= |Q| means a single unbatched call."""
    if query_batch_size is not None:
        rows = int(query_batch_size)
        if rows <= 0:
            raise ValidationError("query_batch_size must be positive")
        return rows
    caps = spec.caps
    if (not caps.needs_device or caps.tiles_internally
            or not caps.supports_prepared_index):
        return len(queries)
    batch_plan = plan_shape(
        len(queries), len(targets), k, np.asarray(queries).shape[1],
        method=spec.name, device=device,
        mq=options.get("mq"), mt=options.get("mt"),
        **{key: value for key, value in options.items()
           if key not in ("mq", "mt")})
    return batch_plan.batching.rows_per_batch
