"""The flat level-2 stage and its engine registrations.

The two engines below run :func:`repro.core.ti_knn.ti_knn_join` — the
same Step-1 plan, level-1 filter, per-cluster ``center_distance_rows``
batching and counter accounting as ``ti-cpu`` — with a level-2 stage
(:class:`FlatScan`) that scans the
:class:`~repro.native.layout.FlatTargets` CSR pack instead of the
clustered set's ragged member lists: one call of the C kernel
(:mod:`repro.native.cscan`) per query cluster, or of the vectorized
numpy kernels per query when the C kernel cannot be built.  Queries
the triangle inequality cannot prune take the dense route instead
(:class:`DenseScan`): the kernels' pick leaves them out, and one exact
GEMM shortlist per call answers them with the same distances.

==============  =======  =================================
name            filter   ``stats.extra["kernel_tier"]``
==============  =======  =================================
``ti-flat``     full     ``"c-flat"`` or ``"numpy-flat"``
``sweet-flat``  partial  ``"c-flat"`` or ``"numpy-flat"``
==============  =======  =================================

Both declare ``supports_prepared_index``, so they compose with query
batching and the process/thread shard pools exactly like ``ti-cpu``
(shard workers resolve engines by name); on the TI route results and
funnel counters are bit-identical to the reference engines, which the
parity suite (tests/native/) asserts.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from ..core.bounds import masked_nearest_columns
from ..core.filters import ScanTrace
from ..core.ti_knn import TopKScan, ti_knn_join
from . import cscan, scan_numpy
from .layout import flat_targets

__all__ = ["FlatScan", "ENGINES", "NumpyScan", "DenseScan",
           "DENSE_CROSSOVER", "dense_threshold", "flat_backend",
           "scan_query_full", "scan_query_partial"]


#: The dense route's crossover: a query goes dense when the clusters
#: its scan could enter hold at least this share of the live rows
#: (:func:`~repro.native.scan_numpy.dense_pick`).  Measured in
#: docs/NATIVE.md; ``inf`` turns the route off.
DENSE_CROSSOVER = 0.85


#: Elements of one block of the dense route's (queries, |T|) masks.
_MASK_ELEMS = 2 ** 21


def dense_threshold(flat):
    """The pick threshold, in rows, of :data:`DENSE_CROSSOVER`."""
    if not DENSE_CROSSOVER <= 1.0:
        return cscan.NEVER_DENSE
    return math.ceil(DENSE_CROSSOVER * flat.member_idx.size)


class NumpyScan:
    """The numpy kernels behind the per-query-cluster entry points."""

    def __init__(self, flat, dense_min=cscan.NEVER_DENSE):
        self.flat = flat
        self.dense_min = dense_min

    def scan(self, full, points, rows, cand, ub, k):
        kernel = (scan_numpy.scan_query_full if full
                  else scan_numpy.scan_query_partial)
        picked = scan_numpy.dense_pick(self.flat, rows, cand, k,
                                       self.dense_min)
        values = []
        traces = []
        for point, row, dense in zip(points, rows, picked.tolist()):
            if dense:
                values.append(None)
                traces.append(None)
                continue
            dists, idx, trace = kernel(self.flat, point, row, cand, ub, k)
            values.append((dists, idx))
            traces.append(trace)
        return values, traces, np.flatnonzero(picked).tolist()


class DenseScan:
    """The dense level-2 route: one exact GEMM shortlist
    (:func:`~repro.core.bounds.masked_nearest_columns`) over every live
    member of each query's candidate clusters, re-ranked in the flat
    tier's distance form (:func:`~repro.native.scan_numpy.pair_distances`)
    and ordered by (distance, index).

    A query's candidates are the columns its centre-distance row holds
    (the others are NaN), so one call answers queries of any number of
    query clusters; ``cand`` and ``ub`` are ignored.  Each query needs
    at least ``k`` candidate members, which the pick guarantees.
    """

    def __init__(self, flat):
        self.flat = flat
        self.reranked = 0

    def scan(self, full, points, rows, cand, ub, k):
        flat = self.flat
        sizes = flat.sizes()
        values = []
        traces = []
        step = max(1, _MASK_ELEMS // flat.points.shape[0])
        for start in range(0, rows.shape[0], step):
            is_cand = ~np.isnan(rows[start:start + step])
            # Column m stands for the removed rows: never allowed.
            allowed = np.pad(is_cand, ((0, 0), (0, 1)))[:, flat.row_cluster]
            dists, idx, reranked = masked_nearest_columns(
                points[start:start + step], flat.points, k, flat.sq_norms,
                allowed, scan_numpy.pair_distances)
            self.reranked += reranked
            values.extend(zip(dists, idx))
            traces.extend(
                ScanTrace(examined=ranked, distance_computations=ranked,
                          center_distance_computations=n_cand, accepted=k,
                          steps=ranked)
                for ranked, n_cand in zip(
                    np.where(is_cand, sizes, 0).sum(axis=1).tolist(),
                    np.count_nonzero(is_cand, axis=1).tolist()))
        return values, traces, []


def scan_query_full(backend, points, rows, cand, ub, k):
    """Full scans of one query cluster's active queries.

    ``backend`` is a :class:`~repro.native.cscan.BoundScan`, a
    :class:`NumpyScan` or a :class:`DenseScan`; returns per-query
    ``(values, traces)`` lists and the positions left to the dense
    route (whose entries are ``None``).
    """
    return backend.scan(True, points, rows, cand, ub, k)


def scan_query_partial(backend, points, rows, cand, ub, k):
    """Partial scans of one query cluster's active queries (see
    :func:`scan_query_full`)."""
    return backend.scan(False, points, rows, cand, ub, k)


def flat_backend(flat, dense_min=cscan.NEVER_DENSE):
    """``(kernel_tier, backend)`` for scanning one flat layout: the C
    kernel when :func:`cscan.load` has one, else the numpy kernels.
    Queries the pick sends dense (at ``dense_min`` rows) are left to
    :class:`DenseScan`."""
    kernel = cscan.load()
    if kernel is None:
        return "numpy-flat", NumpyScan(flat, dense_min)
    return "c-flat", cscan.BoundScan(kernel, flat, dense_min)


class FlatScan(TopKScan):
    """Top-k level 2 over the flat layout, one entry-point call per
    query cluster (see :func:`flat_backend`), plus one call of the
    dense route for the queries its pick collected."""

    def __init__(self, k, filter_strength="full"):
        super().__init__(k, filter_strength)
        self.method = "%s/%s" % ("ti-flat" if self.full else "sweet-flat",
                                 filter_strength)

    def scan(self, join, work):
        flat = flat_targets(join.plan.target_clusters)
        tier, backend = flat_backend(flat, dense_threshold(flat))
        extra = join.stats.extra
        extra["kernel_tier"] = tier
        queries = join.queries
        dense_ids = []
        dense_rows = []
        for qc, scanned, rows, cand, ub in work:
            # Looked up per call, so a timer patched over the module
            # global sees every call.
            entry = scan_query_full if self.full else scan_query_partial
            values, traces, dense = entry(backend, queries[scanned], rows,
                                          cand, ub, self.k)
            if dense:
                dense_ids.append(scanned[dense])
                dense_rows.append(rows[dense])
                yield from (item for item in zip(scanned, values, traces)
                            if item[1] is not None)
            else:
                yield from zip(scanned, values, traces)
        extra["dense_rows"] = extra["dense_reranked"] = 0
        if dense_ids:
            dense_ids = np.concatenate(dense_ids)
            entry = scan_query_full if self.full else scan_query_partial
            dense_scan = DenseScan(flat)
            values, traces, _ = entry(dense_scan, queries[dense_ids],
                                      np.concatenate(dense_rows), None,
                                      np.inf, self.k)
            extra["dense_rows"] = int(dense_ids.size)
            extra["dense_reranked"] = dense_scan.reranked
            yield from zip(dense_ids, values, traces)


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
