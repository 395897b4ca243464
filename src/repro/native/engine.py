"""The flat level-2 stage and its engine registrations.

The two engines below run :func:`repro.core.ti_knn.ti_knn_join` — the
same Step-1 plan, level-1 filter, per-cluster ``center_distance_rows``
batching and counter accounting as ``ti-cpu`` — with a level-2 stage
(:class:`FlatScan`) that scans the
:class:`~repro.native.layout.FlatTargets` CSR pack instead of the
clustered set's ragged member lists: one call of the C kernel
(:mod:`repro.native.cscan`) per query cluster, or of the vectorized
numpy kernels per query when the C kernel cannot be built.

==============  =======  =================================
name            filter   ``stats.extra["kernel_tier"]``
==============  =======  =================================
``ti-flat``     full     ``"c-flat"`` or ``"numpy-flat"``
``sweet-flat``  partial  ``"c-flat"`` or ``"numpy-flat"``
==============  =======  =================================

Both declare ``supports_prepared_index``, so they compose with query
batching and the process/thread shard pools exactly like ``ti-cpu``
(shard workers resolve engines by name); results and funnel counters
are bit-identical to the reference engines, which the parity suite
(tests/native/) asserts.
"""

from __future__ import annotations

from ..engine.base import EngineCaps, EngineSpec
from ..core.ti_knn import TopKScan, ti_knn_join
from . import cscan, scan_numpy
from .layout import flat_targets

__all__ = ["FlatScan", "ENGINES", "NumpyScan", "flat_backend",
           "scan_query_full", "scan_query_partial"]


class NumpyScan:
    """The numpy kernels behind the per-query-cluster entry points."""

    def __init__(self, flat):
        self.flat = flat

    def scan(self, full, points, rows, cand, ub, k):
        kernel = (scan_numpy.scan_query_full if full
                  else scan_numpy.scan_query_partial)
        values = []
        traces = []
        for point, row in zip(points, rows):
            dists, idx, trace = kernel(self.flat, point, row, cand, ub, k)
            values.append((dists, idx))
            traces.append(trace)
        return values, traces


def scan_query_full(backend, points, rows, cand, ub, k):
    """Full scans of one query cluster's active queries.

    ``backend`` is a :class:`~repro.native.cscan.BoundScan` or a
    :class:`NumpyScan`; returns per-query ``(values, traces)`` lists.
    """
    return backend.scan(True, points, rows, cand, ub, k)


def scan_query_partial(backend, points, rows, cand, ub, k):
    """Partial scans of one query cluster's active queries (see
    :func:`scan_query_full`)."""
    return backend.scan(False, points, rows, cand, ub, k)


def flat_backend(flat):
    """``(kernel_tier, backend)`` for scanning one flat layout: the C
    kernel when :func:`cscan.load` has one, else the numpy kernels."""
    kernel = cscan.load()
    if kernel is None:
        return "numpy-flat", NumpyScan(flat)
    return "c-flat", cscan.BoundScan(kernel, flat)


class FlatScan(TopKScan):
    """Top-k level 2 over the flat layout, one entry-point call per
    query cluster (see :func:`flat_backend`)."""

    def __init__(self, k, filter_strength="full"):
        super().__init__(k, filter_strength)
        self.method = "%s/%s" % ("ti-flat" if self.full else "sweet-flat",
                                 filter_strength)

    def scan(self, join, work):
        tier, backend = flat_backend(flat_targets(join.plan.target_clusters))
        join.stats.extra["kernel_tier"] = tier
        queries = join.queries
        for qc, scanned, rows, cand, ub in work:
            # Looked up per call, so a timer patched over the module
            # global sees every call.
            entry = scan_query_full if self.full else scan_query_partial
            values, traces = entry(backend, queries[scanned], rows, cand, ub,
                                   self.k)
            yield from zip(scanned, values, traces)


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
