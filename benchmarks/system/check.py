"""Exactness checker: served answers against ``method="brute"``.

An answer is one query row: the k ids and distances the engine
returned.  It is correct when its ids are distinct live rows, the
distances it reports are the true distances of those ids, and they
equal brute force's k smallest distances over the live rows.  Both
comparisons use rtol = atol = 1e-9, the test suite's TI tolerance; TI
and brute differ by about one ulp.  Comparing distances instead of ids
accepts either side of an exact tie.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import knn_join

RTOL = ATOL = 1e-9

#: Cap on the (rows, live targets, d) intermediate of one brute call, so
#: the check stays small next to the workload it checks.
_BRUTE_ELEMENTS = 2_000_000


@dataclass
class Answers:
    """Answers kept for checking, from one op.

    ``live`` is ``None`` when every target row is live, else the
    ``(n_points, packed tombstone bits)`` of the index the op queried.
    """

    op: int
    queries: np.ndarray
    distances: np.ndarray
    indices: np.ndarray
    live: tuple = None


def live_state(index):
    """The tombstone snapshot :class:`Answers` keeps for an index."""
    return (int(index.n_points), np.packbits(index.tombstones))


def brute_distances(points, queries, k):
    """Brute force's k smallest distances, in memory-bounded calls."""
    rows = max(1, _BRUTE_ELEMENTS // (points.shape[0] * points.shape[1]))
    parts = [knn_join(queries[start:start + rows], points, k,
                      method="brute").distances
             for start in range(0, len(queries), rows)]
    return np.concatenate(parts)


def wrong_rows(points, answers, k, live_ids=None, reference=None):
    """(row, reason) for each wrong row of one :class:`Answers`.

    ``points`` is the target matrix the answers' ids index;
    ``live_ids`` the live rows (all rows when ``None``).  ``reference``
    optionally supplies brute force's distances for these queries.
    """
    if live_ids is None:
        dead = np.zeros(len(points), dtype=bool)
        live_points = points
    else:
        dead = np.ones(len(points), dtype=bool)
        dead[live_ids] = False
        live_points = points[live_ids]
    if reference is None:
        reference = brute_distances(live_points, answers.queries, k)
    wrong = []
    for row, (query, ids, dists) in enumerate(
            zip(answers.queries, answers.indices, answers.distances)):
        if ids.min() < 0 or ids.max() >= len(points):
            wrong.append((row, "id out of range"))
        elif dead[ids].any():
            wrong.append((row, "returned removed row %d"
                          % ids[dead[ids]][0]))
        elif np.unique(ids).size != ids.size:
            wrong.append((row, "duplicate ids"))
        else:
            diff = points[ids] - query
            actual = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            if not np.allclose(actual, dists, rtol=RTOL, atol=ATOL):
                wrong.append((row, "reported distances are not those of "
                                   "the returned ids"))
            elif not np.allclose(dists, reference[row], rtol=RTOL,
                                 atol=ATOL):
                wrong.append((row, "distances differ from brute force"))
    return wrong


def check_answers(points, kept, k):
    """Check every kept :class:`Answers` against brute force.

    ``points`` is the final target matrix: rows are only ever appended,
    so the ids of every earlier index state still address it.  Returns
    ``(ops checked, wrong ops, first failure)`` where the first failure
    is a one-line description of the earliest wrong op, or ``None``.
    """
    static = [answers for answers in kept if answers.live is None]
    references = {}
    if static:
        stacked = brute_distances(
            points, np.concatenate([a.queries for a in static]), k)
        offsets = np.cumsum([0] + [len(a.queries) for a in static])
        references = {id(a): stacked[offsets[i]:offsets[i + 1]]
                      for i, a in enumerate(static)}

    wrong_ops = set()
    first = None
    for answers in sorted(kept, key=lambda a: a.op):
        if answers.live is None:
            wrong = wrong_rows(points, answers, k,
                               reference=references[id(answers)])
        else:
            n_points, bits = answers.live
            dead = np.unpackbits(bits, count=n_points).astype(bool)
            wrong = wrong_rows(points[:n_points], answers, k,
                               live_ids=np.flatnonzero(~dead))
        if wrong:
            wrong_ops.add(answers.op)
            if first is None:
                row, reason = wrong[0]
                first = ("op %d: %d of %d checked rows wrong; row %d: %s"
                         % (answers.op, len(wrong), len(answers.queries),
                            row, reason))
    return len(kept), wrong_ops, first
