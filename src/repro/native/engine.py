"""The flat level-2 stage and its engine registrations.

The two engines below run :func:`repro.core.ti_knn.ti_knn_join` — the
same Step-1 plan, level-1 filter, per-cluster ``center_distance_rows``
batching and counter accounting as ``ti-cpu`` — with a level-2 stage
(:class:`FlatScan`) that scans the
:class:`~repro.native.layout.FlatTargets` CSR pack with the vectorized
numpy kernels, one query at a time, instead of the clustered set's
ragged member lists.

==============  =======
name            filter
==============  =======
``ti-flat``     full
``sweet-flat``  partial
==============  =======

Both declare ``supports_prepared_index``, so they compose with query
batching and the process/thread shard pools exactly like ``ti-cpu``
(shard workers resolve engines by name); results and funnel counters
are bit-identical to the reference engines, which the parity suite
(tests/native/) asserts.
"""

from __future__ import annotations

from ..engine.base import EngineCaps, EngineSpec
from ..core.ti_knn import TopKScan, ti_knn_join
from .layout import flat_targets
from .scan_numpy import scan_query_full, scan_query_partial

__all__ = ["FlatScan", "ENGINES"]


class FlatScan(TopKScan):
    """Top-k level 2 over the flat layout, vectorized numpy per query."""

    def __init__(self, k, filter_strength="full"):
        super().__init__(k, filter_strength)
        self.method = "%s/%s" % ("ti-flat" if self.full else "sweet-flat",
                                 filter_strength)

    def scan(self, join, work):
        join.stats.extra["kernel_tier"] = "numpy-flat"
        self.flat = flat_targets(join.plan.target_clusters)
        self.kernel = scan_query_full if self.full else scan_query_partial
        return super().scan(join, work)

    def scan_query(self, join, q, qc, row, cand, ub):
        dists, idx, trace = self.kernel(self.flat, join.queries[q], row,
                                        cand, ub, self.k)
        return (dists, idx), trace


# ----------------------------------------------------------------------
# Engine registration (see repro.engine.builtin)
# ----------------------------------------------------------------------
def _make_run(strength):
    def _run(queries, targets, k, ctx, filter_strength=strength, **options):
        return ti_knn_join(queries, targets, k, ctx.rng, plan=ctx.plan,
                           query_subset=ctx.query_subset,
                           account_prepare=ctx.account_prepare,
                           level2=FlatScan(k, filter_strength), **options)
    return _run


_FLAT_CAPS = EngineCaps(uses_seed=True, supports_prepared_index=True)

ENGINES = (
    EngineSpec(
        name="ti-flat",
        run=_make_run("full"),
        caps=_FLAT_CAPS,
        description="flat-layout vectorized TI KNN (full filter)"),
    EngineSpec(
        name="sweet-flat",
        run=_make_run("partial"),
        caps=_FLAT_CAPS,
        description="flat-layout vectorized Sweet KNN partial filter"),
)
