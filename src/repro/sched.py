"""``repro.sched`` — the one adaptive engine choice, as an audit record.

:func:`decide` resolves every join's engine, filter strength and
worker fan-out into a :class:`Decision`:

* **a named engine** stays pinned — the scheduler never overrides the
  caller;
* **``method="auto"``** (or ``None``) picks ``ti-flat``, the host
  flat tier, at every shape.  Its full filter beat the partial filter
  on the held-out grid and on the ``k/d > 8`` shapes where the paper's
  Fig. 8 rule picks the partial one (docs/SCHEDULER.md), so the rule
  stays with the simulated ``sweet`` engine;
* **workers and shards** resolve through
  :func:`repro.parallel.shard.resolve_workers` and
  :func:`~repro.parallel.shard.plan_shards`, exactly as a direct call
  would.

The scheduler only *chooses*: given the same decision the execution
layer computes bit-identical results and funnel counters.  Decisions
are deterministic — the same inputs yield byte-identical
:meth:`Decision.to_dict` payloads regardless of pool kind, process
boundaries or whether the index was mmap-loaded.  The executor adds
the measured ``actual_s`` to the record in ``stats.extra["decision"]``.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Decision", "decide"]


@dataclass(frozen=True)
class Decision:
    """One resolved scheduling decision, with its audit trail."""

    engine: str
    filter_strength: str = None       # None: engine has no filter knob
    workers: int = 1
    n_shards: int = 1
    engine_pinned: bool = True        # caller named the engine
    reason: str = ""

    def to_dict(self):
        """Canonical JSON-ready payload (byte-stable under sort_keys)."""
        return {
            "engine": self.engine,
            "filter_strength": self.filter_strength,
            "workers": int(self.workers),
            "n_shards": int(self.n_shards),
            "engine_pinned": bool(self.engine_pinned),
            "reason": self.reason,
        }

    def describe(self):
        """Flat dict for ``ExecutionPlan.describe`` / CLI tables."""
        info = {
            "decision": "pinned" if self.engine_pinned else "auto",
            "engine": self.engine,
        }
        if self.filter_strength is not None:
            info["filter_strength"] = self.filter_strength
        return info


def _engine_filter_strength(name, k, dim, filter_strength):
    """The filter strength an engine runs at this shape.

    The simulated Sweet engine runs the Fig. 8 rule; the sequential
    reference runs the caller's ``filter_strength`` option (default
    full); the flat tier and the basic KNN-TI port run the full
    filter; dense engines have no filter knob.
    """
    from .core.adaptive import filter_strength_for

    if name == "sweet":
        return filter_strength_for(k, dim)
    if name == "ti-cpu":
        return filter_strength or "full"
    if name in ("ti-flat", "ti-gpu"):
        return "full"
    return None


def decide(n_queries, n_targets, k, dim, method=None, workers=None,
           pool=None, budget_rows=None, filter_strength=None):
    """Resolve one scheduling decision.

    Parameters
    ----------
    method:
        A registered engine name to pin, or ``None``/``"auto"`` for
        ``ti-flat``.
    workers, pool:
        The caller's (unresolved) knobs; explicit values and the
        ``REPRO_WORKERS``/``REPRO_POOL`` environment resolve exactly as
        in a direct call.
    budget_rows:
        The device-memory row budget, when known, so the recorded
        shard split matches the shard planner's.
    filter_strength:
        The call's ``filter_strength`` option, which ``ti-cpu`` runs.
    """
    from .parallel.shard import plan_shards, resolve_pool_kind, \
        resolve_workers

    auto = method in (None, "auto")
    if auto:
        engine = "ti-flat"
        reason = "auto: the host flat tier"
    else:
        engine = method
        reason = "engine pinned to %s" % engine
    rows = int(budget_rows) if budget_rows else int(n_queries)
    shard_plan = plan_shards(n_queries, rows, resolve_workers(workers),
                             kind=resolve_pool_kind(pool))
    filter_strength = _engine_filter_strength(engine, k, dim,
                                              filter_strength)
    if filter_strength is not None:
        reason += "; filter=%s" % filter_strength
    return Decision(
        engine=engine,
        filter_strength=filter_strength,
        workers=shard_plan.workers,
        n_shards=shard_plan.n_shards,
        engine_pinned=not auto,
        reason=reason)
