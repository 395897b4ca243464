"""k-smallest selection primitives.

Sweet KNN's multi-thread-per-query mode ends with a merge of several
per-thread sorted heaps, "a technique similar to the one in merge sort"
(Section IV-B2) — :func:`merge_sorted_lists`.  The host baselines
select their k smallest in :func:`repro.core.bounds.nearest_columns`.

The partial level-2 filter also needs a selection over the surviving
distances stored to global memory (:func:`select_k_from_pairs`).
"""

from __future__ import annotations

import heapq

import numpy as np

__all__ = ["merge_sorted_lists", "select_k_from_pairs"]


def merge_sorted_lists(lists, k):
    """Merge per-thread sorted ``(distances, indices)`` lists, keep k best.

    Each input list is ascending (a sorted per-thread heap); the output
    is the k globally smallest, ascending — Sweet KNN's final merge
    kernel for one query point.
    """
    merged = heapq.merge(
        *[zip(np.asarray(d, dtype=np.float64), np.asarray(i, dtype=np.int64))
          for d, i in lists])
    dists, idx = [], []
    for dist, index in merged:
        dists.append(dist)
        idx.append(index)
        if len(dists) == k:
            break
    return (np.asarray(dists, dtype=np.float64),
            np.asarray(idx, dtype=np.int64))


def select_k_from_pairs(pairs, k):
    """k smallest of an unsorted iterable of ``(distance, index)`` pairs.

    Used by the partial level-2 filter, whose surviving distances are
    written to global memory and selected by a later kernel
    (Section IV-B1).
    """
    best = heapq.nsmallest(int(k), pairs)
    if not best:
        return np.empty(0), np.empty(0, dtype=np.int64)
    dists, idx = zip(*best)
    return (np.asarray(dists, dtype=np.float64),
            np.asarray(idx, dtype=np.int64))
