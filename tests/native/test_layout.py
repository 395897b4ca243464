"""Tests for the flat (CSR) target layout and its per-object memo."""

import numpy as np
import pytest

from repro.core.ti_knn import prepare_clusters
from repro.native.layout import (FlatTargets, cached_layouts, clear_memo,
                                 flat_targets)


@pytest.fixture
def clustered(clustered_points, rng):
    plan = prepare_clusters(clustered_points, clustered_points, rng)
    return plan.target_clusters


@pytest.fixture(autouse=True)
def fresh_memo():
    clear_memo()
    yield
    clear_memo()


class TestPacking:
    def test_offsets_are_a_csr_row_pointer(self, clustered):
        flat = flat_targets(clustered)
        sizes = [m.size for m in clustered.members]
        assert flat.offsets[0] == 0
        assert np.array_equal(flat.sizes(), sizes)
        assert flat.offsets[-1] == sum(sizes)
        assert flat.n_clusters == len(clustered.members)

    def test_members_keep_cluster_order(self, clustered):
        flat = flat_targets(clustered)
        for tc, (members, dists) in enumerate(
                zip(clustered.members, clustered.member_dists)):
            start, end = flat.offsets[tc], flat.offsets[tc + 1]
            assert np.array_equal(flat.member_idx[start:end], members)
            assert np.array_equal(flat.member_dists[start:end], dists)

    def test_member_dists_descend_within_clusters(self, clustered):
        # The early-break contract: target member lists are sorted by
        # decreasing distance to the centre, and packing preserves it.
        flat = flat_targets(clustered)
        for tc in range(flat.n_clusters):
            start, end = flat.offsets[tc], flat.offsets[tc + 1]
            segment = flat.member_dists[start:end]
            assert np.all(np.diff(segment) <= 0)

    def test_arrays_are_contiguous_canonical_dtypes(self, clustered):
        flat = flat_targets(clustered)
        for arr, dtype in ((flat.points, np.float64),
                           (flat.member_idx, np.int64),
                           (flat.member_dists, np.float64),
                           (flat.offsets, np.int64),
                           (flat.heads, np.float64)):
            assert arr.dtype == dtype
            assert arr.flags["C_CONTIGUOUS"]
        assert flat.heads.shape == (flat.n_clusters,)

    def test_heads_are_first_member_distances(self, clustered):
        # Duplicate landmarks leave some clusters of a tie-heavy set
        # empty; their head is +inf.
        rng = np.random.default_rng(21)
        centres = rng.normal(scale=4.0, size=(6, 3))
        ties = np.round(centres[rng.integers(0, 6, size=400)] +
                        rng.normal(size=(400, 3)))
        with_empty = prepare_clusters(ties, ties, rng).target_clusters
        assert (flat_targets(with_empty).sizes() == 0).any()
        for clusters in (clustered, with_empty):
            flat = flat_targets(clusters)
            nonempty = flat.sizes() > 0
            assert np.array_equal(flat.heads[nonempty],
                                  flat.member_dists[flat.offsets[:-1]
                                                    [nonempty]])
            assert np.all(flat.heads[~nonempty] == np.inf)

    def test_frozen(self, clustered):
        flat = flat_targets(clustered)
        with pytest.raises(AttributeError):
            flat.points = None
        assert isinstance(flat, FlatTargets)


class TestMemo:
    def test_repeat_calls_return_the_cached_layout(self, clustered):
        first = flat_targets(clustered)
        assert flat_targets(clustered) is first
        assert cached_layouts() == 1

    def test_distinct_sets_get_distinct_entries(self, clustered_points,
                                                rng):
        a = prepare_clusters(clustered_points, clustered_points,
                             rng).target_clusters
        b = prepare_clusters(clustered_points, clustered_points,
                             rng).target_clusters
        assert flat_targets(a) is not flat_targets(b)
        assert cached_layouts() == 2

    def test_entry_dies_with_the_clustered_set(self, clustered_points,
                                               rng):
        import gc

        plan = prepare_clusters(clustered_points, clustered_points, rng)
        flat_targets(plan.target_clusters)
        assert cached_layouts() == 1
        del plan
        gc.collect()
        assert cached_layouts() == 0

    def test_clear_memo(self, clustered):
        flat_targets(clustered)
        clear_memo()
        assert cached_layouts() == 0
