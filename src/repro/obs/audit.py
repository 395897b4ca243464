"""``repro.obs.audit`` — the per-query explain/audit record.

A surprising answer (wrong route, weak pruning, a slow shard) must be
explainable *after the fact*.  ``explain=True`` on
:func:`repro.knn_join` / :meth:`repro.serve.KNNServer.submit` makes the
execution layer assemble a :class:`QueryAudit` — engine and plan knobs,
shard fan-out, per-stage funnel counts, route/``ef``/recall estimate,
per-span timings — and attach it to the result/response.  The record is
plain data: :meth:`QueryAudit.to_dict` rows feed directly into
:func:`repro.obs.write_jsonl`, and ``python -m repro explain`` renders
:meth:`QueryAudit.table` for a single ad-hoc query.

The funnel counts in an audit are the *same counters* the join
published (idempotently) into the metrics registry — bit-identical to a
direct ``knn_join`` of the same query, which is the property the
acceptance tests pin down.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

__all__ = ["QueryAudit", "span_timings"]


def span_timings(spans):
    """Aggregate finished spans into ``{name: {count, total_s}}``."""
    timings = {}
    for span in spans:
        entry = timings.setdefault(span.name, {"count": 0, "total_s": 0.0})
        entry["count"] += 1
        entry["total_s"] += span.duration_s or 0.0
    for entry in timings.values():
        entry["total_s"] = round(entry["total_s"], 6)
    return timings


@dataclass(frozen=True)
class QueryAudit:
    """Structured explanation of how one query (batch) was answered.

    Attributes
    ----------
    method:
        Engine that executed the join (``ti-cpu``, ``graph-bfs``, ...).
    k, n_queries, n_targets, dim:
        Workload shape.
    route:
        Serving path: ``"exact"`` or ``"approx"`` (always ``"exact"``
        for direct library calls).
    recall_target, ef, recall_estimate:
        Approximate-route knobs: the requested recall floor, the
        calibrated beam width chosen for it, and the measured-recall
        estimate of that beam width from the graph's calibration curve.
    degraded, cache_hit:
        Serving flags — answered by the degraded engine under queue
        pressure / plan served from the prepared-index cache.
    request_id, batch_requests, batch_rows, latency_s, queue_wait_s:
        Per-request serving context (``None`` for direct calls).
    plan:
        The planner's knob dict (batching, landmark counts, device).
    options:
        Caller options forwarded to the engine.
    counters:
        ``JoinStats.summary()`` work counters.
    funnel:
        Per-stage funnel counts (see :mod:`repro.obs.funnel`) —
        bit-identical to the registry counters the join published.
    shards:
        Per-shard fan-out detail (shard id, query range, worker, wall
        time, per-shard funnel) when the join ran sharded.
    timings:
        Per-span wall-clock aggregate ``{span: {count, total_s}}``.
    decision:
        The scheduler's :meth:`repro.sched.Decision.to_dict` record for
        this run — chosen engine, filter strength, worker fan-out, the
        reason for the pick — plus the measured ``actual_s``.
    """

    method: str = ""
    k: int = 0
    n_queries: int = 0
    n_targets: int = 0
    dim: int = 0
    route: str = "exact"
    recall_target: float = None
    ef: int = None
    recall_estimate: float = None
    degraded: bool = False
    cache_hit: bool = None
    request_id: str = None
    batch_requests: int = None
    batch_rows: int = None
    latency_s: float = None
    queue_wait_s: float = None
    plan: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    counters: dict = field(default_factory=dict)
    funnel: dict = field(default_factory=dict)
    shards: tuple = ()
    timings: dict = field(default_factory=dict)
    decision: dict = None

    def replace(self, **changes):
        """A copy with fields updated (serving layer re-contextualises
        the batch-level audit per request)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self):
        """JSON-ready dict (feed rows to :func:`repro.obs.write_jsonl`)."""
        record = dataclasses.asdict(self)
        record["shards"] = [dict(shard) for shard in self.shards]
        record["type"] = "query_audit"
        return record

    def table(self, title="query audit"):
        """Render the audit as a bench-style plain-text table."""
        from ..bench.reporting import format_table

        rows = [
            ["method", self.method],
            ["shape |Q|x|T| (d)", "%dx%d (%d)"
             % (self.n_queries, self.n_targets, self.dim)],
            ["k", self.k],
            ["route", self.route],
        ]
        if self.recall_target is not None:
            rows.append(["recall target", self.recall_target])
        if self.ef is not None:
            rows.append(["ef (beam width)", self.ef])
        if self.recall_estimate is not None:
            rows.append(["recall estimate", round(self.recall_estimate, 4)])
        if self.request_id is not None:
            rows.append(["request id", self.request_id])
        if self.latency_s is not None:
            rows.append(["latency ms", round(self.latency_s * 1e3, 3)])
        if self.batch_requests is not None:
            rows.append(["batch (requests/rows)", "%s/%s"
                         % (self.batch_requests, self.batch_rows)])
        if self.cache_hit is not None:
            rows.append(["plan cache hit", self.cache_hit])
        rows.append(["degraded", self.degraded])
        if self.decision:
            for key in ("engine", "engine_pinned", "filter_strength",
                        "actual_s", "reason"):
                if self.decision.get(key) is not None:
                    rows.append(["decision." + key, self.decision[key]])
        for key, value in self.plan.items():
            rows.append(["plan." + str(key), value])
        for stage, value in self.funnel.items():
            rows.append(["funnel." + stage, value])
        for key, value in self.counters.items():
            if key in ("|Q|", "|T|", "k", "d"):
                continue
            rows.append(["counter." + str(key), value])
        for name, entry in sorted(self.timings.items()):
            rows.append(["span." + name, "%dx %.3f ms"
                         % (entry["count"], entry["total_s"] * 1e3)])
        for shard in self.shards:
            rows.append(["shard %s [%s:%s)" % (
                shard.get("shard"), shard.get("start"), shard.get("stop")),
                "worker=%s wall=%.3fms level2=%s" % (
                    shard.get("worker"),
                    (shard.get("wall_s") or 0.0) * 1e3,
                    shard.get("funnel", {}).get("level2_survivors"))])
        return format_table(title, ["field", "value"], rows)
