"""Exact brute-force KNN join on the host (numpy).

This is the correctness oracle for every other implementation: no TI,
no GPU model.  :func:`~repro.core.bounds.nearest_columns` shortlists
each query's targets with one exactly bounded GEMM and re-ranks the
shortlist in the direct sqrt-of-squared-diffs form, so answers and
distance bits are those of computing all |Q| x |T| distances directly.
"""

from __future__ import annotations

import numpy as np

from ..core.bounds import nearest_columns
from ..core.result import JoinStats, KNNResult
from ..engine.base import EngineSpec

__all__ = ["brute_force_knn", "ENGINE"]


def brute_force_knn(queries, targets, k):
    """Exact KNN join by exhaustive distance computation.

    Returns a :class:`~repro.core.result.KNNResult`; ties are broken by
    target index, also for a tie that straddles the k-th place.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(targets):
        raise ValueError("k cannot exceed the number of target points")

    n_q = len(queries)
    distances, indices = nearest_columns(queries, targets, k)

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
