"""Sweet KNN — the paper's contribution (Section IV).

Builds on the basic TI pipeline and adds every reconciliation
technique, resolved per problem instance by the Fig. 8 adaptive
scheme:

* elastic filter strength (full vs partial level-2 filtering),
* elastic parallelism (multiple threads per query with local heaps
  and a merge kernel),
* thread-data remapping (warps process queries of the same cluster),
* row-major point layout with float4 loads,
* adaptive ``kNearests`` placement (shared memory / registers /
  global).

All knobs can be forced for the sensitivity studies (Figs. 10-12,
Table V) and the ablation benches.
"""

from __future__ import annotations

from ..engine.base import EngineCaps, EngineSpec
from .adaptive import config_for_join
from .gpu_pipeline import run_ti_gpu

__all__ = ["sweet_knn", "ENGINE"]


def sweet_knn(queries, targets, k, rng, device=None, cost_model=None,
              mq=None, mt=None, plan=None, force_filter=None,
              force_placement=None, force_layout=None,
              threads_per_query=None, remap=True, knearests_coalesced=True,
              epsilon=0.0, query_subset=None, account_prepare=True):
    """Run Sweet KNN on the simulated GPU.

    Parameters beyond the data are experiment overrides:

    force_filter:
        ``"full"``/``"partial"`` instead of the k/d rule (Table V).
    force_placement:
        ``"global"``/``"shared"``/``"registers"`` (placement ablation).
    force_layout:
        ``"row"``/``"col"`` (layout ablation).
    threads_per_query:
        Fixed threads per query (Fig. 12 sweep).
    remap:
        Disable thread-data remapping for its ablation.
    epsilon:
        Approximation slack (extension): pruning uses
        ``theta / (1 + epsilon)``, guaranteeing the returned k-th
        distance is within ``(1 + epsilon)`` of the true one while
        saving further distance computations.  ``0.0`` = exact.
    query_subset, account_prepare:
        Batched-execution hooks (see :mod:`repro.engine.executor`):
        scan only these query indices of a shared ``plan``, and count
        the shared preparation cost only when asked.

    Returns
    -------
    KNNResult
    """
    k = int(k)

    def config_for(join_plan, dev):
        return config_for_join(
            join_plan, k, dev,
            force_filter=force_filter, force_placement=force_placement,
            force_layout=force_layout, threads_per_query=threads_per_query,
            remap=remap, knearests_coalesced=knearests_coalesced)

    return run_ti_gpu(queries, targets, k, rng, config_for, device=device,
                      cost_model=cost_model, mq=mq, mt=mt, plan=plan,
                      method="sweet-knn", epsilon=epsilon,
                      query_subset=query_subset,
                      account_prepare=account_prepare)


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return sweet_knn(queries, targets, k, ctx.rng, device=ctx.device,
                     plan=ctx.plan, query_subset=ctx.query_subset,
                     account_prepare=ctx.account_prepare, **options)


ENGINE = EngineSpec(
    name="sweet",
    run=_run_engine,
    caps=EngineCaps(needs_device=True, uses_seed=True,
                    supports_prepared_index=True, supports_epsilon=True),
    description="Sweet KNN on the simulated GPU (the paper's system)",
)