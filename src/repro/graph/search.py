"""Best-first graph-walk query engines over a :class:`KNNGraph`.

The query engine is the standard beam search of the HNSW/NSG family:
start from the graph's deterministic entry points, repeatedly expand
the closest unexpanded candidate, and keep the best ``ef`` results
seen; the walk stops when the nearest remaining candidate cannot beat
the current ``ef``-th best.  ``ef`` is the recall/cost knob — the
serving layer resolves it from a requested ``recall_target`` through
the graph's measured calibration curve (:mod:`repro.graph.recall`).

Two engines register in the engine registry:

* ``graph-bfs`` — the full best-first walk with a caller-chosen ``ef``
  (default ``max(2k, 32, graph_k)``);
* ``graph-greedy`` — the cheap variant, ``ef = k``: pure greedy
  descent, lowest latency, lowest recall.

Both declare ``EngineCaps(approximate=True)`` — the first engines in
the repository whose results are *not* exact — and require the
``graph`` option (fail-fast in the executor, like ``eps`` for the
range joins).  Results are deterministic: every heap entry breaks ties
on the node position, so a fixed ``(graph, ef)`` answers bit-identically
across runs, worker pools and save/load round-trips.

Tombstones: the walk *traverses* dead nodes (their edges still carry
useful connectivity) but never *returns* them — pass the index's
tombstone mask as ``dead_mask``.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..core.result import JoinStats, KNNResult
from ..engine.base import EngineCaps, EngineSpec
from ..errors import ValidationError
from .build import KNNGraph

__all__ = ["graph_knn_search", "ENGINES"]


def _check_graph(graph, targets, k):
    if not isinstance(graph, KNNGraph):
        raise ValidationError(
            "the 'graph' option must be a repro.graph.KNNGraph "
            "(got %r)" % type(graph).__name__)
    targets = np.asarray(targets)
    if targets.ndim != 2 or targets.shape[1] != graph.dim:
        raise ValidationError(
            "dimension mismatch: graph built on d=%d, targets d=%s"
            % (graph.dim, targets.shape[1:] or "?"))
    if graph.n_nodes and int(graph.node_ids[-1]) >= targets.shape[0]:
        raise ValidationError(
            "graph references target row %d but only %d rows were passed "
            "— was the graph built from a different target set?"
            % (int(graph.node_ids[-1]), targets.shape[0]))
    if k <= 0:
        raise ValidationError("k must be positive")


def graph_knn_search(graph, queries, targets, k, ef=None, dead_mask=None):
    """Approximate k-NN of every query row via best-first graph walk.

    Parameters
    ----------
    graph:
        A :class:`~repro.graph.build.KNNGraph` over ``targets``.
    queries:
        (n, d) query points.
    targets:
        The target matrix the graph was built from (node ids index it).
    k:
        Neighbours per query.
    ef:
        Beam width (>= k); ``None`` uses the graph's default.  Larger
        ``ef`` → higher recall, more distance computations.
    dead_mask:
        Optional (|T|,) bool mask of tombstoned rows: traversed but
        never returned.

    Returns
    -------
    KNNResult
        ``indices`` are **global target rows**; rows are sorted by
        (distance, id) and padded with inf/-1 when fewer than ``k``
        live nodes are reachable.
    """
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        queries = queries[np.newaxis, :]
    k = int(k)
    _check_graph(graph, targets, k)
    if ef is None:
        ef = graph.default_ef(k)
    ef = max(int(ef), k)

    points = np.asarray(targets, dtype=np.float64)
    node_ids = np.asarray(graph.node_ids)
    neighbor_lists = np.asarray(graph.neighbors)
    node_points = points[node_ids]
    if dead_mask is not None:
        node_dead = np.asarray(dead_mask, dtype=bool)[node_ids]
    else:
        node_dead = None
    entries = np.asarray(graph.entry_points, dtype=np.int64)
    m = graph.n_nodes

    n_distances = 0
    n_admitted = 0
    rows = []
    for q in queries:
        visited = np.zeros(m, dtype=bool)
        visited[entries] = True
        diff = node_points[entries] - q
        dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
        n_distances += int(entries.size)

        # candidates: min-heap on (dist, pos); results: max-heap via
        # negation, capped at ef.  Ties break on the node position, so
        # the walk order — hence the answer — is deterministic.
        candidates = [(float(d), int(p)) for d, p in zip(dists, entries)]
        heapq.heapify(candidates)
        results = []
        for d, p in sorted(zip(dists, entries)):
            if node_dead is None or not node_dead[p]:
                results.append((-float(d), int(p)))
                n_admitted += 1
        heapq.heapify(results)
        while len(results) > ef:
            heapq.heappop(results)

        while candidates:
            dist, pos = heapq.heappop(candidates)
            if len(results) >= ef and dist > -results[0][0]:
                break
            nbrs = neighbor_lists[pos]
            nbrs = nbrs[nbrs >= 0]
            nbrs = nbrs[~visited[nbrs]]
            if nbrs.size == 0:
                continue
            visited[nbrs] = True
            diff = node_points[nbrs] - q
            dists = np.sqrt(np.einsum("ij,ij->i", diff, diff))
            n_distances += int(nbrs.size)
            worst = -results[0][0] if len(results) >= ef else np.inf
            for d, p in zip(dists, nbrs):
                d, p = float(d), int(p)
                if d >= worst and len(results) >= ef:
                    continue
                heapq.heappush(candidates, (d, p))
                if node_dead is None or not node_dead[p]:
                    heapq.heappush(results, (-d, p))
                    n_admitted += 1
                    if len(results) > ef:
                        heapq.heappop(results)
                    worst = (-results[0][0] if len(results) >= ef
                             else np.inf)

        found = sorted((-nd, node_ids[p]) for nd, p in results)[:k]
        rows.append((np.array([d for d, _ in found]),
                     np.array([i for _, i in found], dtype=np.int64)))

    distances, indices = KNNResult.pack(rows, k)
    stats = JoinStats(
        n_queries=len(queries), n_targets=points.shape[0], k=k,
        dim=points.shape[1],
        level2_distance_computations=n_distances,
        examined_points=n_distances,
        predicate_accepted_pairs=n_admitted,
        extra={"approximate": True, "ef": int(ef),
               "graph_nodes": m, "graph_k": graph.graph_k})
    return KNNResult(distances=distances, indices=indices, stats=stats,
                     method="graph walk (ef=%d)" % ef)


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_bfs(queries, targets, k, ctx, graph=None, ef=None, dead_mask=None):
    return graph_knn_search(graph, queries, targets, k, ef=ef,
                            dead_mask=dead_mask)


def _run_greedy(queries, targets, k, ctx, graph=None, ef=None,
                dead_mask=None):
    # The cheap variant pins the beam to k regardless of the knob.
    return graph_knn_search(graph, queries, targets, k, ef=k,
                            dead_mask=dead_mask)


ENGINES = (
    EngineSpec(
        name="graph-bfs",
        run=_run_bfs,
        caps=EngineCaps(approximate=True),
        description="approximate best-first k-NN graph walk (ef knob)",
        required_options=("graph",),
    ),
    EngineSpec(
        name="graph-greedy",
        run=_run_greedy,
        caps=EngineCaps(approximate=True),
        description="approximate greedy k-NN graph walk (ef = k)",
        required_options=("graph",),
    ),
)
