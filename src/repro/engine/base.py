"""Execution-engine protocol: capability declarations and run context.

Every KNN method (the paper's Sweet KNN, the Section-III basic TI port,
the sequential reference and the three baselines) is exposed to the
dispatch layer as an :class:`EngineSpec` — a named ``run`` callable plus
an :class:`EngineCaps` record declaring what the engine needs and
supports.  The dispatcher (:mod:`repro.engine.executor`) and the query
planner (:mod:`repro.engine.planner`) read only the capabilities, never
the engine identity, so third-party engines registered through
:func:`repro.engine.register` get the same treatment as the built-ins:
automatic device defaulting, transparent query batching, prepared-index
reuse.

The ``run`` callable receives ``(queries, targets, k, ctx, **options)``
where ``ctx`` is an :class:`ExecutionContext`; engines ignore the
context fields their capabilities do not claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EngineCaps", "EngineSpec", "ExecutionContext"]


@dataclass(frozen=True)
class EngineCaps:
    """What an engine needs from, and offers to, the execution layer.

    Attributes
    ----------
    needs_device:
        Runs on the simulated GPU; the dispatcher defaults the device to
        the Tesla K20c and consults device memory for query batching.
    uses_seed:
        Consumes the landmark-selection RNG (the TI family).
    supports_prepared_index:
        Accepts a prebuilt :class:`~repro.core.ti_knn.JoinPlan` /
        :class:`~repro.engine.prepared.PreparedIndex` state and a
        ``query_subset`` restriction — the contract batched execution
        relies on for exact counter equivalence.
    supports_epsilon:
        Accepts the (1+epsilon) approximate-pruning extension.
    tiles_internally:
        Partitions oversized query sets itself (the CUBLAS baseline);
        the dispatcher then never auto-batches on top of it.
    result_kind:
        ``"knn"`` for fixed-k :class:`~repro.core.result.KNNResult`
        engines, ``"range"`` for variable-cardinality
        :class:`~repro.core.result.RangeResult` engines (ε-range,
        reverse-KNN).  The execution layer dispatches the batch/shard
        merge on the result type; the serving layer refuses ``"range"``
        engines (its responses are fixed-k).
    approximate:
        The engine's results may miss true neighbours (the graph-walk
        tier).  Exactness-checking callers (``compare``'s WARNING,
        ``serve-bench --check``) consult this to report *measured
        recall* instead of declaring a mismatch; everything else — the
        batch/shard merge, serving, stats — treats approximate results
        exactly like exact ones.
    """

    needs_device: bool = False
    uses_seed: bool = False
    supports_prepared_index: bool = False
    supports_epsilon: bool = False
    tiles_internally: bool = False
    result_kind: str = "knn"
    approximate: bool = False


@dataclass
class ExecutionContext:
    """Per-call state the dispatcher hands to an engine's ``run``.

    ``plan``, ``query_subset`` and ``account_prepare`` are only
    populated for engines whose capabilities declare
    ``supports_prepared_index``; ``account_prepare`` is False for every
    batch but the first so the shared Step-1/level-1 preparation is
    counted exactly once in merged statistics.
    """

    rng: object = None
    device: object = None
    plan: object = None
    query_subset: object = None
    account_prepare: bool = True


@dataclass(frozen=True)
class EngineSpec:
    """A registered KNN engine: name, entry point, capabilities.

    ``required_options`` names the predicate-specific knobs (e.g.
    ``eps`` for the range-join engines) the dispatcher must see among
    the call's options; a missing knob fails fast with a
    :class:`~repro.errors.ValidationError` naming the engine and the
    CLI flag, instead of a ``TypeError`` deep inside the engine.
    """

    name: str
    run: object
    caps: EngineCaps = field(default_factory=EngineCaps)
    description: str = ""
    required_options: tuple = ()

    def __post_init__(self):
        if not self.name or not isinstance(self.name, str):
            raise ValueError("engine name must be a non-empty string")
        if not callable(self.run):
            raise ValueError("engine run must be callable")
        if not all(isinstance(name, str) for name in self.required_options):
            raise ValueError("required_options must be option-name strings")
