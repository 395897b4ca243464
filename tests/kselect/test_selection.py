"""Tests for k-selection primitives."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kselect import merge_sorted_lists, select_k_from_pairs


class TestMergeSortedLists:
    def test_merge_two(self):
        lists = [([1.0, 4.0], [0, 1]), ([2.0, 3.0], [2, 3])]
        dists, idx = merge_sorted_lists(lists, 3)
        np.testing.assert_array_equal(dists, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(idx, [0, 2, 3])

    def test_merge_with_empty(self):
        lists = [([], []), ([1.0], [5])]
        dists, idx = merge_sorted_lists(lists, 2)
        np.testing.assert_array_equal(dists, [1.0])

    def test_all_empty(self):
        dists, idx = merge_sorted_lists([([], [])], 3)
        assert dists.size == 0

    @given(st.lists(st.lists(st.floats(min_value=0, max_value=100,
                                       allow_nan=False), max_size=20),
                    min_size=1, max_size=6),
           st.integers(min_value=1, max_value=15))
    @settings(max_examples=80, deadline=None)
    def test_equals_global_selection(self, groups, k):
        """Merging per-thread sorted heaps == one global k-selection —
        the correctness contract of Sweet KNN's merge step."""
        offset = 0
        lists = []
        all_values = []
        for group in groups:
            ordered = sorted(group)
            lists.append((ordered, list(range(offset, offset + len(group)))))
            all_values.extend(group)
            offset += len(group)
        dists, _ = merge_sorted_lists(lists, k)
        expected = np.sort(all_values)[:min(k, len(all_values))]
        np.testing.assert_allclose(dists, expected)


class TestSelectKFromPairs:
    def test_basic(self):
        pairs = [(3.0, 0), (1.0, 1), (2.0, 2)]
        dists, idx = select_k_from_pairs(pairs, 2)
        np.testing.assert_array_equal(dists, [1.0, 2.0])
        np.testing.assert_array_equal(idx, [1, 2])

    def test_empty(self):
        dists, idx = select_k_from_pairs([], 3)
        assert dists.size == 0

    def test_generator_input(self):
        dists, _ = select_k_from_pairs(((float(i), i) for i in range(10)), 3)
        np.testing.assert_array_equal(dists, [0.0, 1.0, 2.0])
