"""Exact brute-force references for the predicate joins.

The correctness oracles for :mod:`repro.core.joins`: all pairwise
distances are computed by :func:`~repro.core.bounds.pair_distances`
(the form every engine answers in, so the TI engines match them
bit-for-bit in float64) and the predicate is applied to the full
distance matrix.  Registered as the ``range-join-brute`` and
``rknn-brute`` engines so the CLI's ``--check`` and ``compare`` paths
treat them like any other method.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import pair_distances
from ..core.result import JoinStats, RangeResult
from ..engine.base import EngineCaps, EngineSpec

__all__ = ["brute_range_join", "brute_reverse_knn", "ENGINES"]

_CHUNK_ROWS = 512


def _distance_block(queries, targets, start, stop):
    n_t = len(targets)
    rows = np.repeat(np.arange(start, stop), n_t)
    cols = np.tile(np.arange(n_t), stop - start)
    return pair_distances(queries, targets, rows, cols).reshape(-1, n_t)


def _pack_rows(block, thresholds, row_offset, rows_out, skip_self=False):
    """Append each block row's accepted (distance, index) pairs, sorted."""
    for local in range(block.shape[0]):
        dists = block[local]
        keep = dists <= thresholds
        if skip_self:
            q = row_offset + local
            if q < keep.shape[0]:
                keep = keep.copy()
                keep[q] = False
        idx = np.flatnonzero(keep)
        d = dists[idx]
        order = np.lexsort((idx, d))
        rows_out.append((d[order], idx[order]))


def brute_range_join(queries, targets, eps, skip_self=False):
    """Exact ε-range join by exhaustive distance computation.

    ``skip_self=True`` drops the diagonal ``(i, i)`` pairs — the
    reference for the ``self-join-eps`` engine (pass the same array as
    queries and targets).
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    eps = float(eps)
    if not np.isfinite(eps) or eps < 0:
        raise ValueError("eps must be a non-negative finite float")

    n_q = len(queries)
    n_t, dim = targets.shape
    chunk = max(1, min(_CHUNK_ROWS, 2 ** 26 // max(1, n_t * dim)))
    rows_out = []
    for start in range(0, n_q, chunk):
        stop = min(start + chunk, n_q)
        block = _distance_block(queries, targets, start, stop)
        _pack_rows(block, eps, start, rows_out, skip_self=skip_self)
    accepted = sum(len(d) for d, _ in rows_out)

    stats = JoinStats(
        n_queries=n_q, n_targets=n_t, dim=dim,
        level2_distance_computations=n_q * n_t,
        predicate_accepted_pairs=accepted,
        extra={"predicate": "eps-range", "eps": eps},
    )
    method = "self-join-brute" if skip_self else "range-join-brute"
    return RangeResult.from_rows(rows_out, stats=stats, method=method)


def brute_reverse_knn(queries, targets, k):
    """Exact reverse-KNN join by exhaustive distance computation.

    ``kdist(t)`` is t's k-th smallest distance to the *other* targets
    (diagonal masked to ``inf``); a pair ``(q, t)`` is accepted when
    ``d(q, t) <= kdist(t)``.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    k = int(k)
    n_t, dim = targets.shape
    if not 0 < k < n_t:
        raise ValueError(
            "reverse-KNN needs 0 < k < |T| (k=%d, |T|=%d)" % (k, n_t))

    kdist = np.empty(n_t, dtype=np.float64)
    chunk = max(1, min(_CHUNK_ROWS, 2 ** 26 // max(1, n_t * dim)))
    for start in range(0, n_t, chunk):
        stop = min(start + chunk, n_t)
        block = _distance_block(targets, targets, start, stop)
        block[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kdist[start:stop] = np.partition(block, k - 1, axis=1)[:, k - 1]

    n_q = len(queries)
    rows_out = []
    for start in range(0, n_q, chunk):
        stop = min(start + chunk, n_q)
        block = _distance_block(queries, targets, start, stop)
        _pack_rows(block, kdist, start, rows_out)
    accepted = sum(len(d) for d, _ in rows_out)

    stats = JoinStats(
        n_queries=n_q, n_targets=n_t, k=k, dim=dim,
        level2_distance_computations=n_q * n_t + n_t * n_t,
        predicate_accepted_pairs=accepted,
        extra={"predicate": "rknn"},
    )
    return RangeResult.from_rows(rows_out, stats=stats, method="rknn-brute")


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
_RANGE_CAPS = EngineCaps(result_kind="range")


def _run_range(queries, targets, k, ctx, eps=None, **options):
    return brute_range_join(queries, targets, eps, **options)


def _run_rknn(queries, targets, k, ctx, **options):
    return brute_reverse_knn(queries, targets, k, **options)


ENGINES = (
    EngineSpec(
        name="range-join-brute",
        run=_run_range,
        caps=_RANGE_CAPS,
        description="exact brute-force ε-range join (oracle; "
                    "skip_self=True for the self-join)",
        required_options=("eps",),
    ),
    EngineSpec(
        name="rknn-brute",
        run=_run_rknn,
        caps=_RANGE_CAPS,
        description="exact brute-force reverse-KNN join (oracle)",
    ),
)
