"""The flat level-2 stage and its engine registration.

``ti-flat`` runs :func:`repro.core.ti_knn.ti_knn_join` — the same
Step-1 plan, level-1 filter, per-cluster ``center_distance_rows``
batching and counter accounting as ``ti-cpu`` — with a level-2 stage
(:class:`FlatScan`) that scans the
:class:`~repro.native.layout.FlatTargets` CSR pack instead of the
clustered set's ragged member lists, with Algorithm 2's full filter:
one call of the C kernel (:mod:`repro.native.cscan`), or of the numpy
kernels when the C kernel cannot be built, per query cluster.  Each
call returns one block (padded neighbour rows and a counter block,
see :class:`repro.core.ti_knn.Level2`).  Queries the triangle
inequality cannot prune take the dense route instead
(:class:`DenseScan`): the kernels' pick leaves them out, and one exact
GEMM shortlist per call answers them with the same distances.
``stats.extra["kernel_tier"]`` says which kernels ran: ``"c-flat"`` or
``"numpy-flat"``.

The engine declares ``supports_prepared_index``, so it composes with
query batching and the process/thread shard pools exactly like
``ti-cpu`` (shard workers resolve engines by name); on the TI route
results and funnel counters are bit-identical to ``ti-cpu``'s, which
the parity suite (tests/native/) asserts.
"""

from __future__ import annotations

import math

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from ..core.bounds import masked_nearest_columns
from ..core.filters import SCAN_COUNTERS
from ..core.ti_knn import TopKScan, ti_knn_join
from . import cscan, scan_numpy
from .layout import flat_targets

__all__ = ["FlatScan", "ENGINES", "NumpyScan", "DenseScan",
           "DENSE_CROSSOVER", "dense_threshold", "flat_backend",
           "scan_query_full"]


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
    """The numpy kernels behind :func:`scan_query_full`."""

    def __init__(self, flat, dense_min=cscan.NEVER_DENSE):
        self.flat = flat
        self.dense_min = dense_min

    def scan(self, points, rows, cand, ub, k):
        return scan_numpy.scan(self.flat, points, rows, cand, ub, k,
                               self.dense_min)


#: Counter-block columns (:data:`SCAN_COUNTERS`) of the dense route.
_RANKED = [SCAN_COUNTERS.index(name)
           for name in ("examined", "distance_computations", "steps")]
_CENTERS = SCAN_COUNTERS.index("center_distance_computations")
_ACCEPTED = SCAN_COUNTERS.index("accepted")


class DenseScan:
    """The dense level-2 route: one exact GEMM shortlist
    (:func:`~repro.core.bounds.masked_nearest_columns`) over every live
    member of each query's candidate clusters, re-ranked in the flat
    tier's distance form (:func:`~repro.native.scan_numpy.pair_distances`)
    and ordered by (distance, index).

    A query's candidates are the columns its centre-distance row holds
    (the others are NaN), so one call answers queries of any number of
    query clusters; ``cand`` and ``ub`` are ignored.  Each query needs
    at least ``k`` candidate members, which the pick guarantees.  A
    dense query ranks every candidate member: its counters count them
    all as examined, computed and stepped over, and ``k`` as accepted.
    """

    def __init__(self, flat):
        self.flat = flat
        self.reranked = 0

    def scan(self, points, rows, cand, ub, k):
        flat = self.flat
        n = rows.shape[0]
        dists = np.empty((n, k))
        idx = np.empty((n, k), dtype=np.int64)
        counters = np.zeros((n, len(SCAN_COUNTERS)), dtype=np.int64)
        step = max(1, _MASK_ELEMS // flat.points.shape[0])
        for start in range(0, n, step):
            stop = min(start + step, n)
            is_cand = ~np.isnan(rows[start:stop])
            # Column m stands for the removed rows: never allowed.
            allowed = np.pad(is_cand, ((0, 0), (0, 1)))[:, flat.row_cluster]
            dists[start:stop], idx[start:stop], reranked = \
                masked_nearest_columns(
                    points[start:stop], flat.points, k, flat.sq_norms,
                    allowed, scan_numpy.pair_distances)
            self.reranked += reranked
            counters[start:stop, _RANKED] = \
                np.where(is_cand, flat.sizes(), 0).sum(axis=1)[:, None]
            counters[start:stop, _CENTERS] = np.count_nonzero(is_cand,
                                                              axis=1)
        counters[:, _ACCEPTED] = k
        return dists, idx, counters, None


def scan_query_full(backend, points, rows, cand, ub, k):
    """Full-filter scans of one query cluster's active queries.

    ``backend`` is a :class:`~repro.native.cscan.BoundScan`, a
    :class:`NumpyScan` or a :class:`DenseScan`; returns its
    ``(dists, idx, counters, dense)`` block (see
    :meth:`~repro.native.cscan.BoundScan.scan`).
    """
    return backend.scan(points, rows, cand, ub, k)


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
    dense route for the queries its pick collected, whose rows it
    writes over the padding the TI blocks left."""

    def __init__(self, k):
        super().__init__(k)
        self.method = "ti-flat/full"

    def scan(self, join, work):
        flat = flat_targets(join.plan.target_clusters)
        tier, backend = flat_backend(flat, dense_threshold(flat))
        extra = join.stats.extra
        extra["kernel_tier"] = tier
        queries = join.queries
        local_row = join.local_row
        dense_ids = []
        dense_rows = []
        for qc, scanned, rows, cand, ub in work:
            # Looked up per call, so a timer patched over the module
            # global sees every call.
            dists, idx, counters, dense = scan_query_full(
                backend, queries[scanned], rows, cand, ub, self.k)
            if dense is not None:
                dense_ids.append(scanned[dense])
                dense_rows.append(rows[dense])
            yield local_row[scanned], (dists, idx), counters
        extra["dense_rows"] = extra["dense_reranked"] = 0
        if dense_ids:
            dense_ids = np.concatenate(dense_ids)
            dense_scan = DenseScan(flat)
            dists, idx, counters, _ = scan_query_full(
                dense_scan, queries[dense_ids], np.concatenate(dense_rows),
                None, np.inf, self.k)
            extra["dense_rows"] = int(dense_ids.size)
            extra["dense_reranked"] = dense_scan.reranked
            yield local_row[dense_ids], (dists, idx), counters


# ----------------------------------------------------------------------
# Engine registration (see repro.engine.builtin)
# ----------------------------------------------------------------------
def _run(queries, targets, k, ctx, **options):
    if "filter_strength" in options:
        raise ValueError(
            "ti-flat runs the full filter only and takes no "
            "filter_strength option; ti-cpu runs both strengths")
    return ti_knn_join(queries, targets, k, ctx.rng, plan=ctx.plan,
                       query_subset=ctx.query_subset,
                       account_prepare=ctx.account_prepare,
                       level2=FlatScan(k), **options)


ENGINES = (
    EngineSpec(
        name="ti-flat",
        run=_run,
        caps=EngineCaps(uses_seed=True, supports_prepared_index=True),
        description="flat-layout vectorized TI KNN (full filter)"),
)
