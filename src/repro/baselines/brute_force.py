"""Exact brute-force KNN join on the host (numpy).

This is the correctness oracle for every other implementation: it
computes all |Q| x |T| distances directly (no TI, no GPU model) and
k-selects per query.  Distances use the direct sqrt-of-squared-diffs
form to match the TI implementations bit-for-bit as closely as float64
allows.
"""

from __future__ import annotations

import numpy as np

from ..core.result import JoinStats, KNNResult
from ..engine.base import EngineSpec

__all__ = ["brute_force_knn", "ENGINE"]

_CHUNK_ROWS = 512


def brute_force_knn(queries, targets, k):
    """Exact KNN join by exhaustive distance computation.

    Returns a :class:`~repro.core.result.KNNResult`; ties are broken by
    target index, matching :func:`repro.kselect.select_k_smallest`.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(targets):
        raise ValueError("k cannot exceed the number of target points")

    n_q = len(queries)
    distances = np.empty((n_q, k), dtype=np.float64)
    indices = np.empty((n_q, k), dtype=np.int64)

    # Bound the (rows, |T|, d) broadcast intermediate to ~64M elements.
    n_t, dim = targets.shape
    chunk = max(1, min(_CHUNK_ROWS, 2 ** 26 // max(1, n_t * dim)))
    for start in range(0, n_q, chunk):
        stop = min(start + chunk, n_q)
        diff = queries[start:stop, None, :] - targets[None, :, :]
        block = np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))
        part = np.argpartition(block, k - 1, axis=1)[:, :k]
        rows = np.arange(stop - start)[:, None]
        part_d = block[rows, part]
        # Deterministic ordering: by distance, then target index.
        order = np.lexsort((part, part_d), axis=1)
        indices[start:stop] = part[rows, order]
        distances[start:stop] = part_d[rows, order]

    stats = JoinStats(
        n_queries=n_q, n_targets=len(targets), k=k,
        dim=queries.shape[1],
        level2_distance_computations=n_q * len(targets),
        predicate_accepted_pairs=n_q * k,
    )
    return KNNResult(distances=distances, indices=indices, stats=stats,
                     method="brute-force-cpu")


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return brute_force_knn(queries, targets, k, **options)


ENGINE = EngineSpec(
    name="brute",
    run=_run_engine,
    description="exact brute-force KNN on the host (correctness oracle)",
)
