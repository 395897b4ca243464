"""Tests for the two-level TI filters — the exactness of the whole
system rests on these invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.brute_force import brute_force_knn
from repro.core.bounds import euclidean_many
from repro.core.clustering import center_distances, cluster_points
from repro.core.filters import (cluster_upper_bounds, level1_filter,
                                point_filter_full, point_filter_partial,
                                tail_bound_matrix)
from repro.core.landmarks import select_landmarks_random_spread


def _plan(points, k, mq=8, mt=8, seed=0):
    rng = np.random.default_rng(seed)
    cq = cluster_points(
        points, select_landmarks_random_spread(points, mq, rng))
    ct = cluster_points(
        points, select_landmarks_random_spread(points, mt, rng),
        sort_descending=True)
    cdist = center_distances(cq, ct)
    tails = tail_bound_matrix(ct, k)
    ubs = cluster_upper_bounds(cq, ct, cdist, k, tails=tails)
    candidates = level1_filter(cq, ct, cdist, ubs)
    return cq, ct, cdist, ubs, candidates


class TestTailBoundMatrix:
    def test_shape_and_padding(self, clustered_points):
        _, ct, _, _, _ = _plan(clustered_points, 5)
        tails = tail_bound_matrix(ct, 1000)
        assert tails.shape == (ct.n_clusters, 1000)
        assert np.isinf(tails).any()

    def test_rows_ascending(self, clustered_points):
        _, ct, _, _, _ = _plan(clustered_points, 5)
        tails = tail_bound_matrix(ct, 5)
        finite = np.where(np.isinf(tails), np.nan, tails)
        diffs = np.diff(finite, axis=1)
        assert np.all((diffs >= -1e-15) | np.isnan(diffs))

    def test_values_are_k_smallest_member_dists(self, clustered_points):
        _, ct, _, _, _ = _plan(clustered_points, 3)
        tails = tail_bound_matrix(ct, 3)
        for cid in range(ct.n_clusters):
            dists = np.sort(ct.member_dists[cid])[:3]
            np.testing.assert_allclose(tails[cid, :dists.size], dists)


class TestClusterUpperBounds:
    def test_ub_dominates_every_members_kth_distance(self, clustered_points):
        """The core soundness property of calUB: UB_i >= d_k(q, T) for
        every query q in cluster i."""
        k = 4
        cq, ct, cdist, ubs, _ = _plan(clustered_points, k)
        ref = brute_force_knn(clustered_points, clustered_points, k)
        kth = ref.distances[:, k - 1]
        for qc in range(cq.n_clusters):
            members = cq.members[qc]
            if members.size:
                assert ubs[qc] >= kth[members].max() - 1e-9

    def test_more_neighbours_looser_bound(self, clustered_points):
        cq, ct, cdist, _, _ = _plan(clustered_points, 2)
        ub2 = cluster_upper_bounds(cq, ct, cdist, 2)
        ub8 = cluster_upper_bounds(cq, ct, cdist, 8)
        assert np.all(ub8 >= ub2 - 1e-12)


class TestLevel1Filter:
    def test_never_drops_a_true_neighbour_cluster(self, clustered_points):
        """A dropped target cluster must contain no true k-NN of any
        query in the cluster — the level-1 exactness guarantee."""
        k = 5
        cq, ct, cdist, ubs, candidates = _plan(clustered_points, k)
        ref = brute_force_knn(clustered_points, clustered_points, k)
        for qc in range(cq.n_clusters):
            kept = set(candidates[qc].tolist())
            for q in cq.members[qc]:
                neighbour_clusters = set(
                    ct.assignment[ref.indices[q]].tolist())
                assert neighbour_clusters <= kept

    def test_candidates_sorted_by_center_distance(self, clustered_points):
        cq, ct, cdist, ubs, candidates = _plan(clustered_points, 5)
        for qc, cand in enumerate(candidates):
            dists = cdist[qc][cand]
            assert np.all(np.diff(dists) >= -1e-15)

    def test_empty_clusters_excluded(self, rng):
        # Duplicate points can empty a cluster; filter must skip those.
        points = np.tile(rng.normal(size=(4, 3)), (10, 1))
        cq, ct, cdist, ubs, candidates = _plan(points, 2, mq=6, mt=6)
        sizes = ct.cluster_sizes()
        for cand in candidates:
            assert np.all(sizes[cand] > 0)


class TestPointFilters:
    @pytest.mark.parametrize("filter_fn", [point_filter_full,
                                           point_filter_partial])
    def test_exactness_per_query(self, clustered_points, filter_fn):
        k = 6
        cq, ct, cdist, ubs, candidates = _plan(clustered_points, k)
        ref = brute_force_knn(clustered_points, clustered_points, k)
        for q in range(0, len(clustered_points), 13):
            qc = cq.assignment[q]
            row = np.full(ct.n_clusters, np.nan)
            cand = candidates[qc]
            row[cand] = euclidean_many(ct.centers[cand], clustered_points[q])
            out = filter_fn(clustered_points[q], q, ct, cand, ubs[qc], k,
                            center_dists_row=row)
            if filter_fn is point_filter_full:
                dists, idx = out[0].sorted_items()
            else:
                dists, idx = out[:2]
            np.testing.assert_array_equal(idx, ref.indices[q])
            np.testing.assert_array_equal(dists, ref.distances[q])

    def test_partial_computes_at_least_full(self, clustered_points):
        """The weakened filter never computes fewer distances than the
        full filter (its bound never tightens)."""
        k = 6
        cq, ct, cdist, ubs, candidates = _plan(clustered_points, k)
        total_full = 0
        total_partial = 0
        for q in range(len(clustered_points)):
            qc = cq.assignment[q]
            cand = candidates[qc]
            row = np.full(ct.n_clusters, np.nan)
            row[cand] = euclidean_many(ct.centers[cand], clustered_points[q])
            _, trace_f = point_filter_full(
                clustered_points[q], q, ct, cand, ubs[qc], k,
                center_dists_row=row)
            _, _, trace_p = point_filter_partial(
                clustered_points[q], q, ct, cand, ubs[qc], k,
                center_dists_row=row)
            total_full += trace_f.distance_computations
            total_partial += trace_p.distance_computations
        assert total_partial >= total_full

    def test_filter_saves_work_on_clustered_data(self, clustered_points):
        k = 6
        cq, ct, cdist, ubs, candidates = _plan(clustered_points, k)
        computed = 0
        n = len(clustered_points)
        for q in range(n):
            qc = cq.assignment[q]
            heap, trace = point_filter_full(
                clustered_points[q], q, ct, candidates[qc], ubs[qc], k)
            computed += trace.distance_computations
        assert computed < 0.5 * n * n

    @given(hnp.arrays(np.float64, st.tuples(st.integers(12, 40),
                                            st.integers(2, 4)),
                      elements=st.floats(-50, 50, allow_nan=False)),
           st.integers(min_value=1, max_value=6))
    @settings(max_examples=40, deadline=None)
    def test_property_full_filter_exact(self, points, k):
        """Exactness on arbitrary point sets (duplicates, collinear,
        degenerate clusters...)."""
        cq, ct, cdist, ubs, candidates = _plan(points, k, mq=4, mt=4)
        ref = brute_force_knn(points, points, k)
        for q in range(points.shape[0]):
            qc = cq.assignment[q]
            heap, _ = point_filter_full(points[q], q, ct, candidates[qc],
                                        ubs[qc], k)
            dists, idx = heap.sorted_items()
            np.testing.assert_array_equal(idx, ref.indices[q])
            np.testing.assert_array_equal(dists, ref.distances[q])
