"""Tests for the CUBLAS-style baseline and its memory partitioning."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.baselines.cublas_knn import cublas_knn, plan_partitions
from repro.gpu.device import tesla_k20c


class TestPlanPartitions:
    def test_fits_in_one(self):
        dev = tesla_k20c()
        parts = plan_partitions(1000, 1000, 10, dev)
        assert parts == [(0, 1000)]

    def test_splits_when_matrix_too_big(self):
        dev = tesla_k20c(global_mem_bytes=1 << 20)  # 1 MB
        parts = plan_partitions(4000, 4000, 8, dev)
        assert len(parts) > 1
        # Partitions tile the query range exactly.
        assert parts[0][0] == 0
        assert parts[-1][1] == 4000
        for (a, b), (c, d) in zip(parts, parts[1:]):
            assert b == c

    def test_paper_3dnet_regime(self):
        """434874 points, d=4, 5 GB: the paper reports ~175 groups."""
        dev = tesla_k20c()
        parts = plan_partitions(434874, 434874, 4, dev)
        assert 100 <= len(parts) <= 250

    def test_degenerate_tiny_memory(self):
        dev = tesla_k20c(global_mem_bytes=64)
        parts = plan_partitions(10, 10, 2, dev)
        assert len(parts) == 10


class TestCublasKnn:
    def test_matches_brute_force(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 10)
        res = cublas_knn(clustered_points, clustered_points, 10)
        assert res.matches(ref)

    def test_partitioned_run_matches_unpartitioned(self, clustered_points):
        small = tesla_k20c(global_mem_bytes=256 * 1024)
        partitioned = cublas_knn(clustered_points, clustered_points, 6,
                                 device=small)
        whole = cublas_knn(clustered_points, clustered_points, 6)
        assert partitioned.stats.extra["partitions"] > 1
        assert whole.stats.extra["partitions"] == 1
        assert np.array_equal(partitioned.distances, whole.distances)
        assert np.array_equal(partitioned.indices, whole.indices)

    def test_partitioning_costs_time(self, clustered_points):
        """Per-group serialization + launch overhead: the partitioned
        run must be slower — the paper's explanation for the baseline's
        collapse on 3DNet/skin."""
        small = tesla_k20c(global_mem_bytes=256 * 1024)
        partitioned = cublas_knn(clustered_points, clustered_points, 6,
                                 device=small)
        whole = cublas_knn(clustered_points, clustered_points, 6)
        assert partitioned.sim_time_s > whole.sim_time_s

    def test_gemm_is_fully_regular(self, clustered_points):
        res = cublas_knn(clustered_points, clustered_points, 5)
        gemm = next(k for k in res.profile.kernels
                    if k.name == "gemm_distances")
        assert gemm.warp_efficiency == pytest.approx(1.0, abs=0.05)
        assert gemm.divergent_branches == 0

    def test_counts_all_pairs(self, clustered_points):
        res = cublas_knn(clustered_points, clustered_points, 5)
        n = len(clustered_points)
        assert res.profile.counter("distance_computations") == n * n
        assert res.stats.saved_fraction == 0.0

    def test_disjoint_sets(self, rng):
        queries = rng.normal(size=(40, 7))
        targets = rng.normal(size=(90, 7))
        ref = brute_force_knn(queries, targets, 4)
        res = cublas_knn(queries, targets, 4)
        assert res.matches(ref)

    def test_ties_at_the_kth_place_follow_brute(self):
        # A 1-D integer grid puts ties across the k-th place: the ids
        # must be brute's (distance, index) pick, not any tied member.
        for seed in range(100):
            rng = np.random.default_rng(seed)
            targets = rng.integers(0, 12, size=(40, 1)).astype(float)
            query = rng.integers(0, 12, size=(1, 1)).astype(float)
            k = int(rng.integers(1, 40))
            ref = brute_force_knn(query, targets, k)
            res = cublas_knn(query, targets, k)
            assert np.array_equal(res.indices, ref.indices), seed
            assert np.array_equal(res.distances, ref.distances), seed

    def test_invalid_k(self, clustered_points):
        with pytest.raises(ValueError):
            cublas_knn(clustered_points, clustered_points, 0)


class TestSelectionModelFidelity:
    def test_vectorised_selection_equals_garcia_insertion(self, rng):
        """The baseline's vectorised result must equal what Garcia's
        actual insertion-sort kernel would select, row by row."""
        from repro.kselect import insertion_select
        queries = rng.normal(size=(12, 5))
        targets = rng.normal(size=(64, 5))
        res = cublas_knn(queries, targets, 7)
        for row in range(12):
            dists = np.linalg.norm(targets - queries[row], axis=1)
            ins_d, ins_i, _ = insertion_select(dists, 7)
            np.testing.assert_allclose(np.sort(res.distances[row]),
                                       ins_d, atol=1e-6)
