"""Basic TI-based KNN on GPU — the Section III implementation.

This is the "KNN-TI" series of Fig. 9 and Table IV: the Fig. 4
algorithm ported to the GPU with the straightforward choices —

* one thread per query point, thread ``i`` → query ``i`` (no
  remapping, Table I's divergent assignment);
* the inherited column-major point layout;
* ``kNearests`` in global memory using Fig. 6's layout 2 (the basic
  implementation already picks the coalescing-friendlier of the two);
* always the full level-2 filter.

It avoids the same >99 % of distance computations as the CPU reference
but suffers the warp-efficiency collapse the paper reports (7-21 % on
most datasets), which is exactly what Sweet KNN's optimisations then
repair.
"""

from __future__ import annotations

from ..engine.base import EngineCaps, EngineSpec
from .adaptive import basic_config
from .gpu_pipeline import run_ti_gpu

__all__ = ["basic_ti_knn", "ENGINE"]


def basic_ti_knn(queries, targets, k, rng, device=None, cost_model=None,
                 mq=None, mt=None, plan=None, knearests_coalesced=True,
                 query_subset=None, account_prepare=True):
    """Run the basic (non-adaptive) TI KNN join on the simulated GPU.

    ``knearests_coalesced=False`` selects Fig. 6's layout 1 for the
    layout ablation bench.  ``query_subset``/``account_prepare`` are the
    batched-execution hooks (see :mod:`repro.engine.executor`).

    Returns
    -------
    KNNResult
    """
    def config_for(join_plan, dev):
        config = basic_config(join_plan.query_clusters.n_points, k, dev)
        if not knearests_coalesced:
            import dataclasses
            config = dataclasses.replace(config, knearests_coalesced=False)
        return config

    return run_ti_gpu(queries, targets, k, rng, config_for, device=device,
                      cost_model=cost_model, mq=mq, mt=mt, plan=plan,
                      method="knn-ti-gpu", query_subset=query_subset,
                      account_prepare=account_prepare)


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return basic_ti_knn(queries, targets, k, ctx.rng, device=ctx.device,
                        plan=ctx.plan, query_subset=ctx.query_subset,
                        account_prepare=ctx.account_prepare, **options)


ENGINE = EngineSpec(
    name="ti-gpu",
    run=_run_engine,
    caps=EngineCaps(needs_device=True, uses_seed=True,
                    supports_prepared_index=True),
    description="basic TI KNN on the simulated GPU (Section III)",
)
