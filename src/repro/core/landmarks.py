"""Landmark (cluster-centre) selection — Section III-A of the paper.

The paper sets the number of landmarks to ``3 * sqrt(n)`` for an
``n``-point set (after Wang [3]), capped by the device memory budget,
and selects the landmark *positions* by repeating a random draw of the
required count 10 times and keeping the draw whose pairwise-distance
sum is largest (a cheap spread-maximisation heuristic from Ding et
al. [4]).

:func:`select_landmarks_maxmin` (farthest-point traversal) is provided
as an alternative pivot-selection technique for the ablation benches;
the paper cites this family ([3], [17]) without using it.
"""

from __future__ import annotations

import numpy as np

from . import bounds

__all__ = [
    "determine_landmark_count", "select_landmarks_random_spread",
    "select_landmarks_maxmin", "LANDMARK_TRIALS",
]

#: Number of random draws tried; "empirically we find that 10 strikes a
#: good tradeoff between the overhead and the clustering quality".
LANDMARK_TRIALS = 10


def determine_landmark_count(n, memory_budget_bytes=None, float_bytes=4):
    """``detLmNum``: landmarks to create for an ``n``-point set.

    The method is ``3 * sqrt(n)``; "if the space is not enough, use the
    largest possible numbers" — the dominant landmark-related structure
    is the |CQ| x |CT| cluster-pair bound table, so the cap solves
    ``m^2 * float_bytes <= memory_budget``.
    """
    n = int(n)
    if n <= 0:
        raise ValueError("n must be positive")
    m = int(round(3 * np.sqrt(n)))
    m = max(1, min(m, n))
    if memory_budget_bytes is not None:
        cap = int(np.sqrt(max(1, memory_budget_bytes // float_bytes)))
        m = max(1, min(m, cap))
    return m


def select_landmarks_random_spread(points, m, rng, trials=LANDMARK_TRIALS):
    """Pick ``m`` landmarks by the paper's random-spread heuristic.

    Draw ``m`` random points ``trials`` times; keep the first draw
    whose sum of pairwise distances ``S`` (direct form) is largest.
    Each draw's ``S`` is first bracketed from one GEMM
    (:func:`_spread_interval`); a draw whose interval clears every
    rival's is the winner unsummed, and only draws whose intervals
    overlap the best are summed in the direct form.

    Parameters
    ----------
    points:
        (n, d) array.
    m:
        Number of landmarks (clamped to n).
    rng:
        ``numpy.random.Generator`` — all randomness in the library is
        injected for reproducibility.

    Returns
    -------
    ndarray
        Indices into ``points`` of the selected landmarks.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    m = min(int(m), n)
    if m <= 0:
        raise ValueError("m must be positive")
    if m == n:
        return np.arange(n, dtype=np.int64)

    draws = [rng.choice(n, size=m, replace=False)
             for _ in range(max(1, int(trials)))]
    # Small subsets are summed directly: the GEMM would not pay.
    if m * m * points.shape[1] > bounds._DIRECT_MAX_ELEMS:
        intervals = [_spread_interval(points[draw]) for draw in draws]
        if None not in intervals:
            best_low = max(low for low, _ in intervals)
            draws = [draw for draw, (_, high) in zip(draws, intervals)
                     if high >= best_low]
    best_indices = draws[0]
    if len(draws) > 1:
        best_sum = -np.inf
        for draw in draws:
            spread = _pairwise_sum(points[draw])
            if spread > best_sum:
                best_sum = spread
                best_indices = draw
    return np.asarray(best_indices, dtype=np.int64)


def _spread_interval(subset):
    """``(low, high)`` around :func:`_pairwise_sum` from one GEMM.

    Each expanded root is within ``sqrt(err)`` of its direct twin
    (``|√x − √y| <= √|x − y|``); both sums of ``M = m²`` non-negative
    terms are within ``γ_M`` of exact.  The half-width doubles those
    terms to absorb the second-order ones and its own rounding.
    ``None`` when the expanded form's bound cannot be trusted.
    """
    g, err = bounds.expanded_sq_distances(subset, subset)
    if g is None:
        return None
    total = float(np.sqrt(np.maximum(g, 0.0)).sum())
    slack = float(subset.shape[0] * np.sqrt(err).sum())
    half_width = 2.0 * (slack + 2.0 * bounds._gamma(g.size + 1) * total)
    return (total - half_width) / 2.0, (total + half_width) / 2.0


def _pairwise_sum(subset):
    """Sum of all pairwise distances within a point subset."""
    if subset.shape[0] < 2:
        return 0.0
    dists = bounds.pairwise_distances(subset, subset)
    # Each unordered pair appears twice in the full matrix.
    return float(dists.sum() / 2.0)


def select_landmarks_maxmin(points, m, rng):
    """Farthest-point (maxmin) pivot selection — ablation alternative.

    Start from a random point; repeatedly add the point whose minimum
    distance to the chosen set is largest.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    m = min(int(m), n)
    if m <= 0:
        raise ValueError("m must be positive")
    chosen = [int(rng.integers(n))]
    min_dist = np.linalg.norm(points - points[chosen[0]], axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(min_dist))
        chosen.append(nxt)
        dist = np.linalg.norm(points - points[nxt], axis=1)
        np.minimum(min_dist, dist, out=min_dist)
    return np.asarray(chosen, dtype=np.int64)
