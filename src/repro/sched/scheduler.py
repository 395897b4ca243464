"""The decision layer: one interface over every execution choice.

Every ad-hoc decision point — the Fig. 8 thresholds in
:mod:`repro.core.adaptive`, the planner's engine pass-through, the
shard planner's worker count, the serving layer's degradation and
recall routing — now consults :func:`decide` (or one of the serving
helpers below), which produces a :class:`Decision` record:

* **no calibration artifact** (the default): the *pinned fallback
  policy*.  The engine stays whatever the caller asked for, filter
  strength follows the paper's ``k/d`` rule
  (:func:`repro.core.adaptive.filter_strength_for`), workers/pool
  resolve exactly as before — byte-for-byte today's behaviour, now
  with the predicted costs of every alternative attached for audit.
* **a calibrated** :class:`~repro.sched.model.CostModel` **active**
  (:func:`set_model` / :func:`use_model` / the ``REPRO_SCHED_MODEL``
  environment variable): ``method="auto"`` picks the cheapest
  predicted engine among the exact fixed-k candidates, and the worker
  count may fan out when the predicted serial cost amortises the pool
  overhead (:func:`repro.parallel.shard.recommend_workers`).

The hard contract: the scheduler only *chooses*; given the same
resolved decision the execution layer computes bit-identical results
and funnel counters.  Decisions themselves are deterministic — the
same inputs and the same artifact yield byte-identical
:meth:`Decision.to_dict` payloads regardless of pool kind, process
boundaries or whether the index was mmap-loaded.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass

from .features import features_from_shape
from .model import CostModel, fallback_weights

__all__ = ["Decision", "decide", "predict_costs", "default_candidates",
           "choose_engine", "degradation_pays", "approx_route_pays",
           "current_model", "set_model", "use_model", "SCHED_MODEL_ENV"]

#: Environment variable naming a calibrated cost-model artifact to
#: activate process-wide (`python -m repro sched calibrate` writes one).
SCHED_MODEL_ENV = "REPRO_SCHED_MODEL"

_MODEL_STACK = []
_ENV_CACHE = {"path": None, "model": None}


def set_model(model):
    """Activate a :class:`CostModel` process-wide (``None`` clears)."""
    del _MODEL_STACK[:]
    if model is not None:
        _MODEL_STACK.append(model)


@contextmanager
def use_model(model):
    """Scoped model activation (tests, benches)."""
    _MODEL_STACK.append(model)
    try:
        yield model
    finally:
        _MODEL_STACK.pop()


def current_model():
    """The active model: explicit stack first, then the environment."""
    if _MODEL_STACK:
        return _MODEL_STACK[-1]
    path = os.environ.get(SCHED_MODEL_ENV, "").strip()
    if not path:
        return None
    if _ENV_CACHE["path"] != path:
        _ENV_CACHE["path"] = path
        _ENV_CACHE["model"] = CostModel.load(path)
    return _ENV_CACHE["model"]


@dataclass(frozen=True)
class Decision:
    """One resolved scheduling decision, with its audit trail.

    ``alternatives`` carries the predicted cost of every *rejected*
    candidate, sorted cheapest first, so an audit can answer "why not
    engine X" without re-running the scheduler.
    """

    engine: str
    filter_strength: str = None       # None: engine has no filter knob
    workers: int = 1
    n_shards: int = 1
    source: str = "fallback"          # "model" | "fallback"
    engine_pinned: bool = True        # caller named the engine
    predicted_s: float = None
    alternatives: tuple = ()          # ((engine, predicted_s), ...)
    features: tuple = ()              # sorted (name, value) pairs
    model_version: str = None
    reason: str = ""

    def to_dict(self):
        """Canonical JSON-ready payload (byte-stable under sort_keys)."""
        return {
            "engine": self.engine,
            "filter_strength": self.filter_strength,
            "workers": int(self.workers),
            "n_shards": int(self.n_shards),
            "source": self.source,
            "engine_pinned": bool(self.engine_pinned),
            "predicted_s": (None if self.predicted_s is None
                            else round(float(self.predicted_s), 9)),
            "alternatives": [[name, round(float(cost), 9)]
                             for name, cost in self.alternatives],
            "features": {name: value for name, value in self.features},
            "model_version": self.model_version,
            "reason": self.reason,
        }

    def describe(self):
        """Flat dict for ``ExecutionPlan.describe`` / CLI tables."""
        info = {
            "decision": self.source,
            "engine": self.engine,
        }
        if self.filter_strength is not None:
            info["filter_strength"] = self.filter_strength
        if self.predicted_s is not None:
            info["predicted_s"] = round(float(self.predicted_s), 6)
        if self.alternatives:
            best = self.alternatives[0]
            info["next_best"] = "%s (%.6gs)" % (best[0], best[1])
        if self.model_version is not None:
            info["cost_model"] = self.model_version
        return info


def default_candidates():
    """Exact fixed-k engines the scheduler may choose among for
    ``method="auto"``: no mandatory knobs, not approximate."""
    from ..engine.registry import engine_names, get_engine

    names = []
    for name in engine_names():
        spec = get_engine(name)
        if spec.caps.result_kind != "knn" or spec.caps.approximate:
            continue
        if spec.required_options:
            continue
        names.append(name)
    return tuple(names)


def _prior_predict(spec, features):
    from .model import EngineModel

    model = EngineModel(engine=spec.name,
                        weights=tuple(fallback_weights(
                            spec.caps.cost_hints)))
    return model.predict_seconds(features)


def predict_costs(candidates, features, model=None):
    """Predicted seconds per candidate engine name (sorted cheapest
    first, ties broken by name for determinism)."""
    from ..engine.registry import get_engine

    costs = []
    for name in candidates:
        spec = get_engine(name)
        if model is not None:
            cost = model.predict(name, features,
                                 cost_hints=spec.caps.cost_hints)
        else:
            cost = _prior_predict(spec, features)
        costs.append((name, float(cost)))
    costs.sort(key=lambda pair: (pair[1], pair[0]))
    return tuple(costs)


def _engine_filter_strength(name, k, dim):
    """The filter strength an engine resolves for this shape.

    The host flat tier encodes it in the engine name; the
    simulated TI engines run the Fig. 8 rule; the basic KNN-TI port
    and the sequential reference default to the full filter; dense
    engines have no filter knob.
    """
    from ..core.adaptive import filter_strength_for

    if name == "ti-flat":
        return "full"
    if name == "sweet-flat":
        return "partial"
    if name == "sweet":
        return filter_strength_for(k, dim)
    if name in ("ti-gpu", "ti-cpu"):
        return "full"
    return None


def decide(n_queries, n_targets, k, dim, method=None, clusterability=None,
           model=None, workers=None, pool=None, candidates=None,
           budget_rows=None):
    """Resolve one scheduling decision.

    Parameters
    ----------
    method:
        A registered engine name to pin, or ``None``/``"auto"`` to let
        the scheduler choose among ``candidates``.
    clusterability:
        The radii-derived proxy when a Step-1 plan or index exists
        (:func:`repro.sched.features.clusterability_from_plan`);
        ``None`` uses the shape-only default.
    model:
        An explicit :class:`CostModel`; ``None`` consults
        :func:`current_model`.  Pass ``False`` to force the pinned
        fallback policy.
    workers, pool:
        The caller's (unresolved) knobs; explicit values and the
        ``REPRO_WORKERS`` environment are always honoured, exactly as
        before.  Only a calibrated model may fan out on its own, and
        only when the caller left both unset.
    budget_rows:
        The device-memory row budget, when known, so the recorded
        shard split matches the shard planner's.
    """
    from ..parallel.shard import (WORKERS_ENV, plan_shards,
                                  recommend_workers, resolve_pool_kind,
                                  resolve_workers)

    if model is None:
        model = current_model()
    elif model is False:
        model = None
    features = features_from_shape(n_queries, n_targets, k, dim,
                                   clusterability=clusterability)
    auto = method in (None, "auto")
    if candidates is None:
        candidates = default_candidates() if auto else (method,)
    costs = predict_costs(candidates, features, model=model)
    if auto:
        engine, predicted = costs[0]
    else:
        engine = method
        predicted = dict(costs).get(method)
    alternatives = tuple((name, cost) for name, cost in costs
                         if name != engine)

    workers_explicit = (workers is not None
                        or bool(os.environ.get(WORKERS_ENV, "").strip()))
    resolved_workers = resolve_workers(workers)
    reason_bits = []
    if model is not None:
        reason_bits.append("model %s" % model.version)
        if auto:
            reason_bits.append(
                "%s predicted %.4gs over %d alternative(s)"
                % (engine, predicted, len(alternatives)))
        else:
            reason_bits.append("engine pinned to %s" % engine)
        if not workers_explicit and predicted is not None:
            from ..engine.registry import get_engine
            if get_engine(engine).caps.supports_prepared_index:
                resolved_workers = recommend_workers(
                    predicted, n_queries=n_queries)
                if resolved_workers > 1:
                    reason_bits.append("fan out x%d" % resolved_workers)
    else:
        reason_bits.append("pinned fallback (no calibration artifact)")
        if auto:
            reason_bits.append("%s cheapest by prior table" % engine)

    rows = int(budget_rows) if budget_rows else int(n_queries)
    shard_plan = plan_shards(n_queries, rows, resolved_workers,
                             kind=resolve_pool_kind(pool))
    filter_strength = _engine_filter_strength(engine, k, dim)
    if filter_strength is not None:
        reason_bits.append("filter=%s" % filter_strength)

    return Decision(
        engine=engine,
        filter_strength=filter_strength,
        workers=shard_plan.workers,
        n_shards=shard_plan.n_shards,
        source="model" if model is not None else "fallback",
        engine_pinned=not auto,
        predicted_s=predicted,
        alternatives=alternatives,
        features=tuple(sorted(features.describe().items())),
        model_version=model.version if model is not None else None,
        reason="; ".join(reason_bits))


def choose_engine(n_queries, n_targets, k, dim, clusterability=None,
                  model=None, candidates=None):
    """The engine ``method="auto"`` resolves to (cheapest predicted)."""
    return decide(n_queries, n_targets, k, dim, method="auto",
                  clusterability=clusterability, model=model,
                  candidates=candidates).engine


def degradation_pays(primary, degraded, n_queries, n_targets, k, dim,
                     clusterability=None, model=None):
    """Should an overloaded batch fall back to the degraded engine?

    The fixed heuristic (no model) always degrades under pressure —
    exactly the previous behaviour.  With a calibrated model the swap
    happens only when the degraded engine is actually predicted
    cheaper for this shape; degrading a tiny join onto a slower dense
    engine raises, not lowers, the batch cost.
    """
    if model is None:
        model = current_model()
    elif model is False:
        model = None
    if model is None:
        return True
    features = features_from_shape(n_queries, n_targets, k, dim,
                                   clusterability=clusterability)
    costs = dict(predict_costs((primary, degraded), features,
                               model=model))
    return costs[degraded] < costs[primary]


def approx_route_pays(exact_engine, graph_engine, n_queries, n_targets,
                      k, dim, clusterability=None, model=None):
    """Should a ``recall_target`` request take the graph route?

    The fixed heuristic (no model) routes whenever a fresh graph
    exists — the previous behaviour.  With a calibrated model the
    request stays on the exact route when exact is predicted no more
    expensive: recall 1.0 at equal-or-lower predicted cost is strictly
    better than the approximate answer the caller opted into.
    """
    if model is None:
        model = current_model()
    elif model is False:
        model = None
    if model is None:
        return True
    features = features_from_shape(n_queries, n_targets, k, dim,
                                   clusterability=clusterability)
    costs = dict(predict_costs((exact_engine, graph_engine), features,
                               model=model))
    return costs[graph_engine] < costs[exact_engine]
