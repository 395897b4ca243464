"""Tests for the logged level-2 scan (the GPU lane body)."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.core.bounds import euclidean_many
from repro.core.filters import point_filter_full, point_filter_partial
from repro.core.layout import Layout
from repro.core.parallelism import SubscanSpec
from repro.core.scan import (CODE_BREAK, CODE_COMPUTE, CODE_COMPUTE_UPDATE,
                             CODE_ENTER, CODE_PROLOGUE, CODE_SKIP,
                             scan_query_logged)
from repro.core.ti_knn import prepare_clusters
from repro.kselect import merge_sorted_lists, select_k_from_pairs


@pytest.fixture
def plan(clustered_points):
    return prepare_clusters(clustered_points, clustered_points,
                            np.random.default_rng(0), mq=8, mt=8)


@pytest.fixture
def level1(plan):
    """The plan's ``(ubs, candidates)`` for k = 6."""
    return plan.level1(6)


def _scan(plan, points, q, k=6, **kwargs):
    qc = plan.query_clusters.assignment[q]
    ubs, candidates = plan.level1(k)
    return scan_query_logged(points[q], plan.target_clusters,
                             candidates[qc], ubs[qc], k,
                             Layout.ROW_MAJOR, **kwargs)


class TestScanAgainstReferenceFilter:
    def test_full_scan_matches_reference_filter(self, clustered_points, plan,
                                                level1):
        """The GPU lane scan and the CPU reference filter must make
        identical decisions: same results, same counters."""
        ubs, candidates = level1
        ct = plan.target_clusters
        for q in range(0, len(clustered_points), 7):
            qc = plan.query_clusters.assignment[q]
            cand = candidates[qc]
            heap, trace, _ = _scan(plan, clustered_points, q)
            row = np.full(ct.n_clusters, np.nan)
            if cand.size:
                row[cand] = euclidean_many(ct.centers[cand],
                                           clustered_points[q])
            ref_heap, ref_trace = point_filter_full(
                clustered_points[q], q, ct, cand, ubs[qc], 6,
                center_dists_row=row)
            assert (trace.distance_computations
                    == ref_trace.distance_computations)
            assert trace.examined == ref_trace.examined
            np.testing.assert_allclose(heap.sorted_items()[0],
                                       ref_heap.sorted_items()[0])

    def test_partial_scan_matches_reference(self, clustered_points, plan,
                                            level1):
        ubs, candidates = level1
        ct = plan.target_clusters
        for q in range(0, len(clustered_points), 13):
            qc = plan.query_clusters.assignment[q]
            cand = candidates[qc]
            survivors, trace, _ = _scan(plan, clustered_points, q,
                                        strength="partial")
            row = np.full(ct.n_clusters, np.nan)
            if cand.size:
                row[cand] = euclidean_many(ct.centers[cand],
                                           clustered_points[q])
            dists, idx, ref_trace = point_filter_partial(
                clustered_points[q], q, ct, cand, ubs[qc], 6,
                center_dists_row=row)
            assert (trace.distance_computations
                    == ref_trace.distance_computations)
            got, _ = select_k_from_pairs(survivors, 6)
            np.testing.assert_allclose(got, dists)


class TestLaneLogStructure:
    def test_prologue_then_enters(self, clustered_points, plan, level1):
        _, candidates = level1
        _, _, log = _scan(plan, clustered_points, 0)
        codes = log.code
        assert codes[0] == CODE_PROLOGUE
        qc = plan.query_clusters.assignment[0]
        assert codes.count(CODE_ENTER) == len(candidates[qc])

    def test_steps_match_trace(self, clustered_points, plan):
        _, trace, log = _scan(plan, clustered_points, 0)
        codes = log.code
        computes = (codes.count(CODE_COMPUTE)
                    + codes.count(CODE_COMPUTE_UPDATE))
        assert computes == trace.distance_computations
        assert codes.count(CODE_COMPUTE_UPDATE) == trace.heap_updates
        assert codes.count(CODE_BREAK) == trace.breaks
        member_steps = (computes + codes.count(CODE_BREAK)
                        + codes.count(CODE_SKIP))
        assert member_steps == trace.steps

    def test_row_major_compute_cheaper_than_column(self, clustered_points,
                                                   plan, level1):
        ubs, candidates = level1
        _, _, row_log = _scan(plan, clustered_points, 3)
        qc = plan.query_clusters.assignment[3]
        _, _, col_log = scan_query_logged(
            clustered_points[3], plan.target_clusters, candidates[qc],
            ubs[qc], 6, Layout.COLUMN_MAJOR)
        # d=8: row-major point load = 1 transaction; column-major = 2
        # sector-equivalents.
        row_txn = sum(row_log.txns) + sum(row_log.l2)
        col_txn = sum(col_log.txns) + sum(col_log.l2)
        assert col_txn > row_txn

    def test_update_bound_off_weakens_filter(self, clustered_points, plan):
        _, on, _ = _scan(plan, clustered_points, 5)
        _, off, _ = _scan(plan, clustered_points, 5, update_bound=False)
        assert off.distance_computations >= on.distance_computations

    def test_point_hit_rate_moves_traffic_to_l2(self, clustered_points,
                                                plan):
        _, _, cold = _scan(plan, clustered_points, 2, point_hit_rate=0.0)
        _, _, hot = _scan(plan, clustered_points, 2, point_hit_rate=1.0)
        assert sum(hot.txns) < sum(cold.txns)
        assert sum(hot.l2) > sum(cold.l2)


class TestSubscans:
    def test_union_of_subscans_is_exact(self, clustered_points, plan):
        """Multi-thread-per-query: merging the sub-thread heaps must
        reproduce the exact k-NN — the paper's Section IV-B2 merge."""
        ref = brute_force_knn(clustered_points, clustered_points, 6)
        inner, outer = 2, 3
        for q in range(0, len(clustered_points), 11):
            lists = []
            for s in range(inner * outer):
                spec = SubscanSpec(cluster_offset=s // inner,
                                   cluster_stride=outer,
                                   member_offset=s % inner,
                                   member_stride=inner)
                heap, _, _ = _scan(plan, clustered_points, q, spec=spec)
                lists.append(heap.sorted_items())
            dists, _ = merge_sorted_lists(lists, 6)
            np.testing.assert_allclose(dists, ref.distances[q], atol=1e-9)

    def test_subscans_weaken_filtering(self, clustered_points, plan):
        """Splitting a query across threads weakens the bound (each
        local heap sees only its slice), so the sub-threads together
        compute at least as many distances as the single thread — the
        'much reduced strength of filtering' of Section V-C3."""
        total_solo = 0
        total_split = 0
        for q in range(0, len(clustered_points), 9):
            _, solo, _ = _scan(plan, clustered_points, q)
            total_solo += solo.distance_computations
            for s in range(4):
                spec = SubscanSpec(cluster_offset=s // 2, cluster_stride=2,
                                   member_offset=s % 2, member_stride=2)
                _, trace, _ = _scan(plan, clustered_points, q, spec=spec)
                total_split += trace.distance_computations
        assert total_split >= total_solo
