"""Regression tests for the elastic-filter trade-off (Table V's core).

These pin the model behaviours today's paper-shape reproduction rests
on: at large k the full filter's global-memory ``kNearests``
maintenance (scattered sift walks) makes the weakened partial filter
the faster choice, exactly as Section IV-B1 argues.
"""

import numpy as np
import pytest

from repro import knn_join


@pytest.fixture(scope="module")
def large_k_problem():
    rng = np.random.default_rng(8)
    centers = rng.normal(scale=10.0, size=(24, 4))
    points = centers[rng.integers(24, size=2000)] + rng.normal(
        size=(2000, 4))
    rng.shuffle(points)
    return points


#: k*4 > th2 -> kNearests in global memory; k/d = 64 > 8
LARGE_K = 256


@pytest.fixture(scope="module")
def large_k_runs(large_k_problem):
    """The two large-k ``sweet`` runs the tests below share: the
    adaptive default and the forced full filter."""
    return {force: knn_join(large_k_problem, large_k_problem, LARGE_K,
                            method="sweet", seed=0,
                            **({} if force is None
                               else {"force_filter": force}))
            for force in (None, "full")}


class TestFilterStrengthTradeoff:
    def test_adaptive_picks_partial(self, large_k_runs):
        assert large_k_runs[None].stats.extra["filter"] == "partial"
        # The forced-full run keeps a kNearests too big for registers.
        assert large_k_runs["full"].stats.extra["placement"] == "global"

    def test_partial_beats_full_at_large_k(self, large_k_runs):
        partial, full = large_k_runs[None], large_k_runs["full"]
        assert partial.sim_time_s < full.sim_time_s
        # ... while computing more distances (weaker filtering).
        assert (partial.stats.level2_distance_computations
                >= full.stats.level2_distance_computations)

    def test_full_beats_partial_at_small_k(self, large_k_problem):
        """The other side of the elastic design: at modest k the full
        filter's savings dominate."""
        k = 8
        full = knn_join(large_k_problem, large_k_problem, k,
                        method="sweet", seed=0)
        partial = knn_join(large_k_problem, large_k_problem, k,
                           method="sweet", seed=0,
                           force_filter="partial")
        assert full.stats.extra["filter"] == "full"
        assert full.sim_time_s < partial.sim_time_s

    def test_both_exact(self, large_k_problem, large_k_runs):
        oracle = knn_join(large_k_problem, large_k_problem, LARGE_K,
                          method="brute")
        for res in large_k_runs.values():
            np.testing.assert_array_equal(res.indices, oracle.indices)
            np.testing.assert_array_equal(res.distances, oracle.distances)
