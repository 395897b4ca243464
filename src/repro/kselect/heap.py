"""Bounded max-heap tracking the k nearest distances ("kNearests").

This is the data structure each GPU thread keeps in Algorithm 2 of the
paper: a fixed-capacity max-heap whose root is the current k-th nearest
distance (the filtering bound ``theta``).  Inserting a closer neighbour
evicts the root, exactly the "evict kNearests.max, and put q2t into
kNearests" step of Algorithm 2 line 16.

The heap stores ``(distance, index)`` pairs, ordered by distance and
then index, so the k pairs it keeps and their output order are those
of sorting every offered pair by (distance, index): a tie across the
k-th place goes to the lower index, as in ``brute``.  Slots not yet
filled with a real neighbour hold ``(bound, -1)`` (``bound`` defaults
to ``inf``) so ``max_distance`` is usable as a bound from the first
insertion attempt; a pair at exactly ``bound`` is not kept.
"""

from __future__ import annotations

import numpy as np

__all__ = ["KNearestHeap", "replace_root", "sorted_pairs"]


def replace_root(dists, idx, distance, index):
    """Sift ``(distance, index)`` down from the root of the max-heap
    ``dists``/``idx`` (numpy arrays, or plain lists for the flat scans'
    cheaper item access), by (distance, index)."""
    pos = 0
    k = len(dists)
    while True:
        child = 2 * pos + 1
        if child >= k:
            break
        right = child + 1
        if right < k and (dists[right] > dists[child] or (
                dists[right] == dists[child] and idx[right] > idx[child])):
            child = right
        top = dists[child]
        if top < distance or (top == distance and idx[child] < index):
            break
        dists[pos] = top
        idx[pos] = idx[child]
        pos = child
    dists[pos] = distance
    idx[pos] = index


def sorted_pairs(dists, idx):
    """A heap's neighbours in (distance, index) order, bound-only slots
    (index -1) excluded."""
    mask = idx >= 0
    dists, idx = dists[mask], idx[mask]
    order = np.lexsort((idx, dists))
    return dists[order], idx[order]


class KNearestHeap:
    """Fixed-capacity max-heap of the k smallest distances seen so far."""

    __slots__ = ("k", "_dists", "_idx", "_count")

    def __init__(self, k, bound=np.inf):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = int(k)
        self._dists = np.full(self.k, float(bound), dtype=np.float64)
        self._idx = np.full(self.k, -1, dtype=np.int64)
        self._count = 0

    # ------------------------------------------------------------------
    @property
    def max_distance(self):
        """The current k-th nearest distance bound (heap root)."""
        return self._dists[0]

    @property
    def count(self):
        """Number of real neighbours inserted (excludes bound slots)."""
        return self._count

    @property
    def full(self):
        return self._count >= self.k

    def push(self, distance, index):
        """Offer a neighbour; keep it only if it precedes the current
        root in (distance, index) order.

        Returns True when the neighbour was kept (the bound tightened
        or a free slot was filled).
        """
        root = self._dists[0]
        if distance > root or (distance == root
                               and index >= self._idx[0]):
            return False
        if self._idx[0] == -1:
            self._count += 1
        replace_root(self._dists, self._idx, distance, index)
        return True

    # ------------------------------------------------------------------
    def sorted_items(self):
        """Neighbours as ``(distances, indices)`` in (distance, index)
        order.

        Bound-only slots (no real neighbour inserted) are excluded.
        """
        return sorted_pairs(self._dists, self._idx)

    def raw(self):
        """The underlying ``(distances, indices)`` arrays (heap order)."""
        return self._dists, self._idx

    def check_invariant(self):
        """True when no child follows its parent in (distance, index)
        order (max-heap)."""
        for pos in range(self.k):
            for child in (2 * pos + 1, 2 * pos + 2):
                if child < self.k and (
                        self._dists[child], self._idx[child]) > (
                        self._dists[pos], self._idx[pos]):
                    return False
        return True

    def __len__(self):
        return self._count

    def __repr__(self):
        return "KNearestHeap(k=%d, count=%d, theta=%g)" % (
            self.k, self._count, self.max_distance)
