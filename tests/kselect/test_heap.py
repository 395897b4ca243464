"""Unit and property tests for the kNearests bounded max-heap."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kselect import KNearestHeap


class TestKNearestHeap:
    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNearestHeap(0)

    def test_push_below_capacity(self):
        heap = KNearestHeap(3)
        assert heap.push(5.0, 1)
        assert heap.push(2.0, 2)
        assert not heap.full
        assert heap.count == 2

    def test_root_is_kth_bound(self):
        heap = KNearestHeap(3)
        for dist, idx in [(5.0, 0), (2.0, 1), (9.0, 2)]:
            heap.push(dist, idx)
        assert heap.full
        assert heap.max_distance == 9.0

    def test_push_evicts_max(self):
        heap = KNearestHeap(3)
        for dist, idx in [(5.0, 0), (2.0, 1), (9.0, 2)]:
            heap.push(dist, idx)
        assert heap.push(1.0, 3)
        assert heap.max_distance == 5.0

    def test_push_rejects_not_better(self):
        heap = KNearestHeap(2)
        heap.push(1.0, 0)
        heap.push(2.0, 1)
        assert not heap.push(2.0, 2)  # (2.0, 2) follows the root (2.0, 1)
        assert not heap.push(3.0, 3)

    def test_ties_follow_distance_then_index(self):
        """A tie across the k-th place goes to the lower index, whatever
        the order the pairs arrive in."""
        heap = KNearestHeap(2)
        for dist, idx in [(2.0, 9), (1.0, 7), (2.0, 4), (2.0, 6)]:
            heap.push(dist, idx)
        dists, idx = heap.sorted_items()
        np.testing.assert_array_equal(dists, [1.0, 2.0])
        np.testing.assert_array_equal(idx, [7, 4])
        assert heap.check_invariant()

    @given(st.lists(st.integers(0, 5), min_size=1, max_size=60),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=80, deadline=None)
    def test_keeps_the_first_k_in_distance_index_order(self, values, k):
        heap = KNearestHeap(k)
        order = np.random.default_rng(len(values)).permutation(len(values))
        for i in order:
            heap.push(float(values[i]), int(i))
        dists, idx = heap.sorted_items()
        want = np.lexsort((np.arange(len(values)), values))[:k]
        np.testing.assert_array_equal(idx, want)
        np.testing.assert_array_equal(dists, np.asarray(values, float)[want])

    def test_initial_bound(self):
        heap = KNearestHeap(2, bound=10.0)
        assert heap.max_distance == 10.0
        assert not heap.push(11.0, 0)
        assert heap.push(9.0, 1)

    def test_sorted_items_excludes_bound_slots(self):
        heap = KNearestHeap(5)
        heap.push(3.0, 7)
        heap.push(1.0, 8)
        dists, idx = heap.sorted_items()
        np.testing.assert_array_equal(dists, [1.0, 3.0])
        np.testing.assert_array_equal(idx, [8, 7])

    def test_len(self):
        heap = KNearestHeap(4)
        heap.push(1.0, 0)
        assert len(heap) == 1

    def test_repr(self):
        assert "k=2" in repr(KNearestHeap(2))

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200),
           st.integers(min_value=1, max_value=25))
    @settings(max_examples=120, deadline=None)
    def test_matches_sorted_prefix(self, values, k):
        """Property: the heap holds exactly the k smallest distances."""
        heap = KNearestHeap(k)
        for i, value in enumerate(values):
            heap.push(value, i)
        dists, _ = heap.sorted_items()
        expected = np.sort(np.asarray(values))[:k]
        # Ties at the boundary may be resolved either way, so compare
        # the distance multisets only.
        np.testing.assert_allclose(dists, expected[:len(dists)])
        assert heap.check_invariant()

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=5, max_size=100))
    @settings(max_examples=80, deadline=None)
    def test_heap_invariant_maintained(self, values):
        heap = KNearestHeap(5)
        for i, value in enumerate(values):
            heap.push(value, i)
            assert heap.check_invariant()

    @given(st.lists(st.floats(min_value=0, max_value=100,
                              allow_nan=False), min_size=8, max_size=100),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=80, deadline=None)
    def test_root_never_below_kth_smallest(self, values, k):
        """theta = heap.max is always >= the true k-th smallest seen."""
        heap = KNearestHeap(k)
        seen = []
        for i, value in enumerate(values):
            heap.push(value, i)
            seen.append(value)
            if heap.full:
                kth = np.sort(seen)[k - 1]
                assert heap.max_distance >= kth - 1e-12
