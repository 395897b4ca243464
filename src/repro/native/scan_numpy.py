"""Vectorized numpy flat level-2 scan.

This is Algorithm 2 over the :class:`~repro.native.layout.FlatTargets`
CSR layout, with the top-k predicate specialized out of the
accumulator protocol: the per-query heap is a pair of preallocated
flat arrays mutated by an inline replica of
:class:`repro.kselect.KNearestHeap`, and the updating bound θ is a
local float.  :func:`scan` is the numpy twin of the C kernel
(``_scan.c``): one call scans the active queries of one query cluster
and returns their block (padded neighbour rows and the counter
block in :data:`~repro.core.filters.SCAN_COUNTERS` order).

Each query's scan runs in two stages, each decision-faithful to the
sequential loop:

* **Head test.**  A cluster's first member has the smallest lower
  bound ``lb = d(q, c_t) - d(t, c_t)`` (members are sorted by
  descending distance), so a cluster whose first member already
  breaks is rejected whole.  Once per query, the first-member bounds
  ``row[cand] - heads[cand]`` and the comparison slacks of every
  candidate cluster are computed as two vectors, and one vector
  compare against the starting θ lists the clusters it lets through.
  θ only tightens, so an unlisted cluster would break at its first
  member at any later point too: the runs between listed clusters are
  counted in bulk (one step and one break each).  A listed cluster is
  re-tested against the current θ with one float compare before it is
  walked.
* **Member walk.**  Only the entered clusters are walked: one Python
  iteration per examined member, per run of skips and per break.
  ``lb`` ascends along the member
  list, so runs of skips are located with ``searchsorted``.  Exact
  distances are computed in batched windows (up to the first member
  that breaks under the current θ, at most ``_WINDOW``), lowered to
  Python floats and reused across θ updates, which change the bounds
  around a member but never its distance.

Three details make the output bit-identical (results **and** funnel
counters) to the sequential reference
(:func:`repro.core.filters.point_scan`):

* the head test's vectors are the reference's scalar expressions
  applied elementwise (``q2tc - member_dists[0]`` and
  ``bound_comparison_tol``), so they hold the same bits;
* window distances use the batched-matmul form
  ``sqrt((diffs[:, None, :] @ diffs[:, :, None]).ravel())``, which is
  elementwise bit-equal to the reference's per-pair
  ``sqrt(np.dot(diff, diff))`` (both reduce through the same dot
  kernel) — unlike ``einsum``, whose SIMD reduction order can differ
  in the last ulp.  ``diffs`` is the gathered window minus the query,
  in place (no second temporary): ``t - q`` is the exact negation of
  the reference's ``q - t``, so the squares are the same bits;
* the pruning limit ``θ + tol`` is refreshed exactly when the
  accumulator state changes (a successful heap push), which is the
  hoisted form of the reference loop (see ``point_scan``) — identical
  decisions, recomputed ~k times instead of once per member.

Counter semantics match ``point_scan`` step for step: every member
position considered costs one ``steps``, a break costs one step plus
one ``breaks``, and only members that pass both bound checks count as
``examined``/``distance_computations``.
"""

from __future__ import annotations

import numpy as np

from ..core.filters import BOUND_COMPARISON_RTOL, SCAN_COUNTERS

__all__ = ["scan", "heap_sorted_items", "dense_pick", "pair_distances"]

#: Members whose exact distances are computed per vectorised batch
#: (matches the simulated-GPU scan's window).
_WINDOW = 64


def heap_sorted_items(heap_dists, heap_idx):
    """``KNearestHeap.sorted_items`` over flat heap arrays.

    Bound-only slots (index -1) are excluded; ties keep heap-array
    order (stable argsort), exactly the reference heap's output order.
    """
    mask = heap_idx >= 0
    order = np.argsort(heap_dists[mask], kind="stable")
    return heap_dists[mask][order], heap_idx[mask][order]


def _heap_replace_root(heap_dists, heap_idx, distance, index):
    """``KNearestHeap._replace_root`` over flat sequences (sift-down).

    Operates on plain Python lists (the scan's working representation:
    list item access is ~10x cheaper than numpy scalar indexing) but
    replicates the reference sift move for move, so the final layout —
    and therefore the tie order of ``sorted_items`` — is identical.
    """
    heap_dists[0] = distance
    heap_idx[0] = index
    pos = 0
    k = len(heap_dists)
    while True:
        left = 2 * pos + 1
        right = left + 1
        largest = pos
        if left < k and heap_dists[left] > heap_dists[largest]:
            largest = left
        if right < k and heap_dists[right] > heap_dists[largest]:
            largest = right
        if largest == pos:
            break
        heap_dists[pos], heap_dists[largest] = (heap_dists[largest],
                                                heap_dists[pos])
        heap_idx[pos], heap_idx[largest] = heap_idx[largest], heap_idx[pos]
        pos = largest


def scan(flat, points, rows, cand, ub, k, dense_min):
    """``(dists, idx, counters, dense)``: the block of one query
    cluster, exactly as :meth:`repro.native.cscan.BoundScan.scan`
    returns it.

    ``points`` (nq, d) and ``rows`` (nq, m) are the cluster's active
    queries and their centre-distance rows (non-candidate columns may
    be NaN), ``cand`` the level-1 survivors ascending by centre
    distance, ``ub`` the cluster's level-1 bound.  Queries
    :func:`dense_pick` sends dense (at ``dense_min`` rows) are left
    as padding with zero counters.
    """
    nq = points.shape[0]
    dists = np.full((nq, k), np.inf)
    idx = np.full((nq, k), -1, dtype=np.int64)
    counters = np.zeros((nq, len(SCAN_COUNTERS)), dtype=np.int64)
    dense = dense_pick(flat, rows, cand, k, dense_min)
    for i in np.flatnonzero(~dense).tolist():
        heap_dists, heap_idx, counters[i] = _scan_query(
            flat, points[i], rows[i], cand, ub, k)
        d, t = heap_sorted_items(heap_dists, heap_idx)
        dists[i, :d.size] = d
        idx[i, :t.size] = t
    return dists, idx, counters, dense if dense.any() else None


def _scan_query(flat, query_point, row, cand, ub, k):
    """One query's scan: its heap arrays and its counter row."""
    k = int(k)
    ub = float(ub)
    heap_dists = [np.inf] * k
    heap_idx = [-1] * k
    count = 0
    accepted = 0
    theta = ub
    points = flat.points
    member_idx = flat.member_idx
    member_dists = flat.member_dists
    offsets = flat.offsets
    qp = query_point
    replace_root = _heap_replace_root
    window = _WINDOW

    steps = 0
    breaks = 0
    examined = 0

    # Head test.  Every candidate's first-member bound and comparison
    # slack, elementwise the same IEEE operations as the reference's
    # ``q2tc - member_dists[0]`` and ``bound_comparison_tol``; one vector
    # compare lists the clusters whose first member does not break under
    # the starting θ.  θ only tightens, so every cluster left off the
    # list also breaks at its first member later.
    n_cand = len(cand)
    q2c = row[cand]
    lb0 = q2c - flat.heads[cand]
    tols = BOUND_COMPARISON_RTOL * (np.abs(q2c) + abs(ub) + 1.0)
    entered = np.flatnonzero(~(lb0 > theta + tols)).tolist()
    q2c = q2c.tolist()
    lb0 = lb0.tolist()
    tols = tols.tolist()
    prev = -1
    for j in entered:
        # The unlisted clusters since the previous one: one step and one
        # break each, counted in bulk.
        steps += j - prev - 1
        breaks += j - prev - 1
        prev = j
        tol = tols[j]
        if lb0[j] > theta + tol:
            # Listed under the starting θ, but the tightened θ rejects
            # its first member.
            steps += 1
            breaks += 1
            continue
        tc = cand[j]
        start = offsets[tc]
        end = offsets[tc + 1]
        size = end - start
        if size == 0:
            continue
        lb = q2c[j] - member_dists[start:end]
        lb_list = lb.tolist()
        limit = theta + tol
        pos = 0
        # Window cache: exact distances are speculatively batched per
        # window (and lowered to Python floats — the walk below is
        # plain float compares) and reused across θ updates, which
        # never change a member's distance, only the bounds around it.
        win_start = 0
        win_end = 0
        w_dists = w_idx = None
        while pos < size:
            value = lb_list[pos]
            if value > limit:
                steps += 1
                breaks += 1
                break
            if value < -limit:
                # A run of skips: lb ascends and θ cannot change while
                # skipping, so every position before the first
                # lb >= -limit is skipped under the current bound.
                run_end = int(lb.searchsorted(-limit, side="left"))
                if run_end <= pos:
                    run_end = pos + 1
                steps += run_end - pos
                pos = run_end
                continue
            if pos >= win_end:
                stop = int(lb.searchsorted(limit, side="right"))
                win_start = pos
                win_end = stop if stop < pos + window else pos + window
                if win_end > size:
                    win_end = size
                w_idx_arr = member_idx[start + win_start:start + win_end]
                diffs = points[w_idx_arr]
                diffs -= qp
                w_dists = np.sqrt(
                    (diffs[:, None, :] @ diffs[:, :, None]).ravel()).tolist()
                w_idx = w_idx_arr.tolist()
            steps += 1
            examined += 1
            dist = w_dists[pos - win_start]
            # TopKAccumulator.offer, inlined: reject against the root,
            # replace + sift on success, tighten θ once the heap holds
            # k real neighbours.  The pruning limit is refreshed
            # exactly here — the only point it can change (the hoisted
            # point_scan form).
            if dist < heap_dists[0]:
                if heap_idx[0] == -1:
                    count += 1
                replace_root(heap_dists, heap_idx, dist,
                             w_idx[pos - win_start])
                accepted += 1
                if count >= k:
                    theta = min(ub, heap_dists[0])
                limit = theta + tol
            pos += 1
    steps += n_cand - prev - 1
    breaks += n_cand - prev - 1

    return (np.asarray(heap_dists, dtype=np.float64),
            np.asarray(heap_idx, dtype=np.int64),
            # SCAN_COUNTERS order
            (examined, examined, n_cand, accepted, accepted, breaks, steps))


def dense_pick(flat, rows, cand, k, dense_min):
    """Which queries of one query cluster the dense route answers.

    A query's own bound on its k-th distance is the smallest
    ``row[tc] + heads[tc]`` at which the candidate clusters, taken in
    that order, hold ``k`` members; the query goes dense when the
    candidate clusters with ``row[tc] - heads[tc] <= bound`` (those the
    scan could enter) hold at least ``dense_min`` members.  The C
    kernel replays this rule with the same IEEE operations.

    The candidate mass bounds every query's estimate, so a cluster
    whose candidates hold fewer than ``dense_min`` members is rejected
    whole; ``bound1``, the ``row + head`` of the nearest candidate that
    holds ``k`` members alone, is at least the bound, so a query it
    rejects is never sorted.  Returns a boolean array over the rows.
    """
    sizes = flat.offsets[cand + 1] - flat.offsets[cand]
    picked = np.zeros(rows.shape[0], dtype=bool)
    if not cand.size or sizes.sum() < dense_min:
        return picked
    heads = flat.heads[cand]
    crow = rows[:, cand]
    keys = crow + heads
    lows = crow - heads

    def mass(lows, bound):
        return np.where(lows <= bound[:, None], sizes, 0).sum(axis=1)

    bound1 = np.where(sizes >= k, keys, np.inf).min(axis=1)
    maybe = np.flatnonzero(mass(lows, bound1) >= dense_min)
    if maybe.size:
        keys = keys[maybe]
        order = np.argsort(keys, axis=1, kind="stable")
        held = np.cumsum(sizes[order], axis=1)
        at = np.argmax(held >= k, axis=1)
        bound = np.take_along_axis(keys, order, axis=1)[
            np.arange(maybe.size), at]
        bound[held[:, -1] < k] = np.inf
        picked[maybe] = (bound < np.inf) & (
            mass(lows[maybe], bound) >= dense_min)
    return picked


def pair_distances(queries, points, rows, cols):
    """Distances of the pairs ``(queries[rows], points[cols])`` in the
    flat tier's form, bit-equal to the scans' (``sqrt`` of the ``t - q``
    dot product)."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, 2 ** 21 // max(1, points.shape[1]))
    for start in range(0, rows.size, step):
        stop = min(start + step, rows.size)
        diffs = points[cols[start:stop]]
        diffs -= queries[rows[start:stop]]
        out[start:stop] = np.sqrt(
            (diffs[:, None, :] @ diffs[:, :, None]).ravel())
    return out
