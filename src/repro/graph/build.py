"""NN-descent construction of an approximate k-NN graph.

Sweet KNN's exact triangle-inequality filter collapses on
high-intrinsic-dimension data (the arcene regime, Table IV of the
paper): the funnel stops pruning and every query degenerates to a
brute-force scan.  The approximate tier trades a measured amount of
recall for query cost that depends on the *graph degree*, not on
``|T|`` — the standard NN-descent/graph-walk combination of the
GPU k-NN-graph literature (see PAPERS.md).

The builder here is a deterministic, vectorized variant of NN-descent
(Dong et al.): every node keeps its current ``graph_k`` best
neighbours, and each iteration offers every node the classic local
join candidates —

* its **two-hop neighbourhood** (neighbours of neighbours), and
* a bounded sample of its **reverse edges** (nodes that list it),

plus a couple of uniformly random probes to escape local minima.
Candidates are scored in chunks (one fused ``einsum`` distance block
per chunk) and merged into the per-node lists with two ``lexsort``
passes — by (id, dist) to deduplicate, then by (dist, id) to rank — so
the whole iteration is branch-free NumPy and bit-reproducible.

Determinism contract (acceptance-tested): the build RNG derives from
``(seed, index.fingerprint)`` only, every selection step breaks ties
on the node id, and the persisted artifact contains no wall-clock
values — so two builds of the same index state produce byte-identical
graph directories.

The initial graph is **bootstrapped from the exact TI engine** on a
sampled subset of nodes (:func:`repro.core.ti_knn.ti_knn_join` with
the flat tier's stage against the prepared index), seeding NN-descent
with exact edges where the exact engine is affordable; the remaining
nodes start from random edges.  Convergence is declared when an
iteration changes at most ``delta * m * graph_k`` list entries;
per-iteration update counts are recorded through :mod:`repro.obs`
(``graph.iteration`` events) and on the returned :class:`KNNGraph`.
"""

from __future__ import annotations

import os

import numpy as np

from .. import obs
from ..core.landmarks import LANDMARK_TRIALS, determine_landmark_count
from ..errors import ValidationError
from . import storage

__all__ = ["GraphConfig", "KNNGraph", "build_graph"]

#: Elements per chunked candidate-distance block (bounds peak memory of
#: the (rows, candidates, dim) difference tensor to ~16 MB of float64).
_CHUNK_ELEMENTS = 1 << 21


class GraphConfig:
    """Build-time knobs of the approximate k-NN graph.

    Parameters
    ----------
    graph_k:
        Out-degree of every node (clamped to ``m - 1`` on tiny sets).
    sample:
        Nodes bootstrapped with exact TI neighbours (the rest start
        from random edges refined by NN-descent).
    max_iters:
        Upper bound on NN-descent iterations.
    delta:
        Convergence threshold: stop once an iteration updates at most
        ``delta * m * graph_k`` neighbour entries.
    reverse_sample:
        Reverse edges (nodes pointing *at* a node) offered per node
        and iteration; bounds the local-join cost on hub nodes.
    random_per_iter:
        Uniform random candidates per node and iteration.
    max_version_lag:
        Staleness policy: a graph built at index version ``v`` serves
        requests while ``index.version - v <= max_version_lag``;
        beyond that the serving layer routes back to the exact engine
        until the graph is rebuilt.
    """

    def __init__(self, graph_k=16, sample=256, max_iters=12, delta=0.002,
                 reverse_sample=8, random_per_iter=2, max_version_lag=8):
        self.graph_k = int(graph_k)
        self.sample = int(sample)
        self.max_iters = int(max_iters)
        self.delta = float(delta)
        self.reverse_sample = int(reverse_sample)
        self.random_per_iter = int(random_per_iter)
        self.max_version_lag = int(max_version_lag)
        if self.graph_k < 1:
            raise ValidationError("graph_k must be positive")
        if self.sample < 1:
            raise ValidationError("sample must be positive")
        if self.max_iters < 0:
            raise ValidationError("max_iters must be non-negative")
        if not 0.0 <= self.delta < 1.0:
            raise ValidationError("delta must be in [0, 1)")
        if self.reverse_sample < 0 or self.random_per_iter < 0:
            raise ValidationError(
                "reverse_sample and random_per_iter must be non-negative")
        if self.max_version_lag < 0:
            raise ValidationError("max_version_lag must be non-negative")

    def describe(self):
        return {"graph_k": self.graph_k, "sample": self.sample,
                "max_iters": self.max_iters, "delta": self.delta,
                "reverse_sample": self.reverse_sample,
                "random_per_iter": self.random_per_iter,
                "max_version_lag": self.max_version_lag}

    @classmethod
    def from_dict(cls, data):
        data = data or {}
        return cls(**{key: data[key] for key in
                      ("graph_k", "sample", "max_iters", "delta",
                       "reverse_sample", "random_per_iter",
                       "max_version_lag") if key in data})

    def __repr__(self):
        return "GraphConfig(%s)" % ", ".join(
            "%s=%g" % (k, v) for k, v in self.describe().items())


class KNNGraph:
    """An approximate k-NN graph over the live rows of an index.

    Attributes
    ----------
    node_ids:
        (m,) global target row of every node (ascending; the live rows
        at build time).
    neighbors:
        (m, graph_k) neighbour *positions* into ``node_ids``, per row
        sorted by (distance, id); -1 pads rows on degenerate sets.
    distances:
        (m, graph_k) distances aligned with ``neighbors`` (inf pads).
    entry_points:
        Search start positions: the node nearest the centroid plus a
        few farthest-point-sampled extras for coverage.
    seed, fingerprint, built_version:
        Build provenance — the determinism key ``(seed, fingerprint)``
        and the index version the graph was built at (staleness is
        judged against it, see :meth:`is_fresh_for`).
    calibration:
        Optional :class:`~repro.graph.recall.RecallCurve` mapping a
        requested recall target to an ``ef`` search width.
    """

    def __init__(self, node_ids, neighbors, distances, entry_points,
                 seed, fingerprint, built_version, dim,
                 n_targets_at_build, config, iteration_updates=(),
                 bootstrap_rows=0, build_distance_computations=0,
                 calibration=None):
        self.node_ids = node_ids
        self.neighbors = neighbors
        self.distances = distances
        self.entry_points = entry_points
        self.seed = int(seed)
        self.fingerprint = fingerprint
        self.built_version = int(built_version)
        self.dim = int(dim)
        self.n_targets_at_build = int(n_targets_at_build)
        self.config = config
        self.iteration_updates = tuple(int(u) for u in iteration_updates)
        self.bootstrap_rows = int(bootstrap_rows)
        self.build_distance_computations = int(build_distance_computations)
        self.calibration = calibration
        self.source_path = None
        self.mmapped = False

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_nodes(self):
        return int(self.node_ids.shape[0])

    @property
    def graph_k(self):
        return int(self.neighbors.shape[1])

    @property
    def n_iterations(self):
        return len(self.iteration_updates)

    @property
    def nbytes(self):
        return int(self.node_ids.nbytes + self.neighbors.nbytes
                   + self.distances.nbytes + self.entry_points.nbytes)

    def describe(self):
        """Manifest-style summary (the CLI ``graph inspect`` view)."""
        return {
            "nodes": self.n_nodes, "graph_k": self.graph_k,
            "dim": self.dim, "seed": self.seed,
            "fingerprint": self.fingerprint,
            "built_version": self.built_version,
            "n_targets_at_build": self.n_targets_at_build,
            "entry_points": int(self.entry_points.size),
            "bootstrap_rows": self.bootstrap_rows,
            "iterations": self.n_iterations,
            "iteration_updates": list(self.iteration_updates),
            "build_distance_computations":
                self.build_distance_computations,
            "nbytes": self.nbytes,
            "mmapped": bool(self.mmapped),
            "source_path": self.source_path,
            "config": self.config.describe(),
            "calibration": (self.calibration.describe()
                            if self.calibration is not None else None),
        }

    # ------------------------------------------------------------------
    # Serving contract
    # ------------------------------------------------------------------
    def is_fresh_for(self, index):
        """Whether this graph may serve approximate answers for
        ``index`` under the staleness policy.

        Fresh means the graph belongs to the index lineage (fingerprint
        match) and the index has seen at most
        ``config.max_version_lag`` updates since the build.  A stale
        graph is never an error — the serving layer simply routes the
        request to the exact engine.
        """
        if index is None or self.fingerprint != index.fingerprint:
            return False
        lag = int(index.version) - self.built_version
        return 0 <= lag <= self.config.max_version_lag

    def default_ef(self, k):
        """Uncalibrated fallback search width for ``k`` neighbours."""
        return max(2 * int(k), 32, self.graph_k)

    def ef_for(self, recall_target, k):
        """Search width expected to reach ``recall_target`` at ``k``.

        Uses the stored calibration curve when one exists; otherwise
        the :meth:`default_ef` heuristic.  Always at least ``k`` so the
        walk can return a full result row.
        """
        k = int(k)
        if self.calibration is not None:
            return max(k, self.calibration.ef_for(recall_target, k=k))
        return max(k, self.default_ef(k))

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write the graph to directory ``path`` (byte-deterministic)."""
        with obs.span("graph.save", path=os.fspath(path),
                      nodes=self.n_nodes, graph_k=self.graph_k):
            storage.write_graph(self, path)
        self.source_path = os.path.abspath(os.fspath(path))
        return self.source_path

    @classmethod
    def load(cls, path, mmap=True):
        """Load a saved graph, zero-copy by default (like the index)."""
        from .recall import RecallCurve

        with obs.span("graph.load", path=os.fspath(path),
                      mmap=bool(mmap)) as sp:
            manifest, arrays = storage.read_graph(path, mmap=mmap)
            calibration = manifest.get("calibration")
            graph = cls(
                node_ids=arrays["node_ids"],
                neighbors=arrays["neighbors"],
                distances=arrays["distances"],
                entry_points=arrays["entry_points"],
                seed=manifest["seed"],
                fingerprint=manifest["fingerprint"],
                built_version=manifest["built_version"],
                dim=manifest["dim"],
                n_targets_at_build=manifest.get("n_targets_at_build", 0),
                config=GraphConfig.from_dict(manifest.get("config")),
                iteration_updates=manifest.get("iteration_updates", ()),
                bootstrap_rows=manifest.get("bootstrap_rows", 0),
                build_distance_computations=manifest.get(
                    "build_distance_computations", 0),
                calibration=(RecallCurve.from_dict(calibration)
                             if calibration else None))
            graph.source_path = os.path.abspath(os.fspath(path))
            graph.mmapped = bool(mmap)
            sp.annotate(nodes=graph.n_nodes, graph_k=graph.graph_k,
                        fingerprint=graph.fingerprint)
            return graph


# ----------------------------------------------------------------------
# Builder
# ----------------------------------------------------------------------
def _build_rng(seed, fingerprint):
    """The deterministic build stream: a pure function of the key."""
    return np.random.default_rng(np.random.SeedSequence(
        [int(seed) & (2 ** 63 - 1), int(fingerprint[:16], 16)]))


def _chunk_rows(n_candidates, dim):
    return max(8, _CHUNK_ELEMENTS // max(1, n_candidates * dim))


def _merge_candidates(points, neighbors, distances, candidates):
    """Fold candidate positions into the per-node neighbour lists.

    ``candidates`` is (m, c) of node positions (-1 or self = ignored).
    Distances are computed chunk-wise with the direct
    ``sqrt(sum((a-b)^2))`` form (the same formula the exact engines
    use), then current and candidate entries are ranked per row by
    (distance, id) after an (id, dist) deduplication pass — both plain
    ``lexsort``s, so the merge is deterministic and branch-free.

    Returns ``(neighbors, distances, changed_entries, n_distances)``.
    """
    m, kg = neighbors.shape
    rows_per_chunk = _chunk_rows(candidates.shape[1], points.shape[1])
    cand_dists = np.empty(candidates.shape, dtype=np.float64)
    own = np.arange(m, dtype=np.int64)
    safe = np.maximum(candidates, 0)
    n_distances = 0
    for start in range(0, m, rows_per_chunk):
        stop = min(m, start + rows_per_chunk)
        block = candidates[start:stop]
        diff = points[safe[start:stop]] - points[start:stop, None, :]
        np.sqrt(np.einsum("ijk,ijk->ij", diff, diff),
                out=cand_dists[start:stop])
        invalid = (block < 0) | (block == own[start:stop, None])
        cand_dists[start:stop][invalid] = np.inf
        n_distances += int(block.size - invalid.sum())
    candidates = np.where(np.isinf(cand_dists), -1, candidates)

    ids = np.concatenate([neighbors, candidates], axis=1)
    dists = np.concatenate([distances, cand_dists], axis=1)

    # Pass 1 — deduplicate: rank by (id, dist); the first slot of every
    # id run is its best copy, later copies drop to (inf, -1).  Exact
    # by id equality, so two float copies of one pair (e.g. an exact
    # bootstrap distance vs a merge-recomputed one) cannot both survive.
    order = np.lexsort((dists, ids), axis=-1)
    rows = np.arange(m)[:, None]
    ids = ids[rows, order]
    dists = dists[rows, order]
    dup = np.zeros(ids.shape, dtype=bool)
    dup[:, 1:] = (ids[:, 1:] == ids[:, :-1]) & (ids[:, 1:] >= 0)
    ids[dup] = -1
    dists[dup] = np.inf
    # Padding (-1) must rank last: give it +inf before the rank pass.
    dists[ids < 0] = np.inf

    # Pass 2 — rank by (dist, id) and keep the best graph_k per row.
    order = np.lexsort((ids, dists), axis=-1)[:, :kg]
    new_neighbors = ids[rows, order]
    new_distances = dists[rows, order]
    new_neighbors[np.isinf(new_distances)] = -1
    changed = int((new_neighbors != neighbors).sum())
    return new_neighbors, new_distances, changed, n_distances


def _reverse_candidates(neighbors, reverse_sample):
    """A bounded, deterministic sample of each node's reverse edges.

    Edges are grouped by head node with ``lexsort`` (ties on the tail
    id), and the first ``reverse_sample`` tails of every group are
    taken — no RNG involved, so the sample is a pure function of the
    current graph.
    """
    m, kg = neighbors.shape
    if reverse_sample <= 0:
        return np.full((m, 0), -1, dtype=np.int64)
    tails = np.repeat(np.arange(m, dtype=np.int64), kg)
    heads = neighbors.reshape(-1)
    valid = heads >= 0
    tails, heads = tails[valid], heads[valid]
    order = np.lexsort((tails, heads))
    heads, tails = heads[order], tails[order]

    counts = np.bincount(heads, minlength=m)
    starts = np.zeros(m, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    take = np.minimum(counts, reverse_sample)
    edge = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(take, out=edge[1:])
    within = np.arange(edge[-1]) - np.repeat(edge[:-1], take)

    reverse = np.full((m, reverse_sample), -1, dtype=np.int64)
    reverse[np.repeat(np.arange(m), take), within] = \
        tails[np.repeat(starts, take) + within]
    return reverse


def _entry_points(index, node_ids, points):
    """Deterministic search entries: the live TI landmark rows.

    A k-NN graph of well-clustered data is *disconnected* — every
    node's nearest neighbours live in its own cluster, so no walk can
    cross clusters.  Instead of patching connectivity with long-range
    edges, the search starts from one representative per target
    cluster: the index's own landmark rows (Sweet KNN already chose
    them to cover the data).  Every component is then reachable, and
    the per-query entry cost is one vectorized distance block of
    ``mt ~ 3 sqrt(m)`` rows — negligible next to a brute scan of |T|.
    The centroid-nearest node joins as a tie-in for data whose
    landmarks were tombstoned.
    """
    centers = np.asarray(index.target_clusters.center_indices,
                         dtype=np.int64)
    live = centers[np.isin(centers, node_ids)]
    positions = np.searchsorted(node_ids, live)
    diff = points - points.mean(axis=0)
    centroid_near = int(np.argmin(
        np.sqrt(np.einsum("ij,ij->i", diff, diff))))
    return np.unique(np.concatenate(
        [positions, [centroid_near]])).astype(np.int64)


def _skip_landmark_draws(rng, n, memory_budget_bytes):
    """Draw from ``rng`` what a query-side landmark pick over ``n``
    points draws, so a ``(seed, fingerprint)`` key builds the same graph
    as when the bootstrap's Step 1 picked its own landmarks."""
    m = determine_landmark_count(n, memory_budget_bytes)
    if m < n:
        for _ in range(LANDMARK_TRIALS):
            rng.choice(n, size=m, replace=False)


def _bootstrap_exact(index, points, node_ids, sample_positions, kg, rng):
    """Exact TI neighbours for the sampled nodes, as graph positions.

    Runs the flat tier's stage against the prepared index (the
    tombstone-aware layout excludes dead rows), then maps the global
    row ids back to node positions.
    """
    from ..core.ti_knn import ti_knn_join
    from ..native.engine import FlatScan

    m = len(node_ids)
    k_exact = min(kg + 1, m)
    sample_points = np.ascontiguousarray(points[sample_positions])
    plan = index.join_plan(sample_points)
    _skip_landmark_draws(rng, len(sample_points), index.memory_budget_bytes)
    result = ti_knn_join(sample_points, np.asarray(index.targets), k_exact,
                         rng, plan=plan, level2=FlatScan(k_exact))
    positions = np.searchsorted(node_ids, result.indices)
    # Self edges out, best kg of the rest in (a duplicate-heavy set may
    # keep the self row out of its own top list, hence the explicit
    # mask rather than dropping column 0).
    neighbors = np.full((len(sample_positions), kg), -1, dtype=np.int64)
    distances = np.full((len(sample_positions), kg), np.inf)
    for row, pos in enumerate(sample_positions):
        keep = positions[row] != pos
        ids = positions[row][keep][:kg]
        neighbors[row, :len(ids)] = ids
        distances[row, :len(ids)] = result.distances[row][keep][:kg]
    return neighbors, distances, int(
        result.stats.level2_distance_computations)


def build_graph(index, config=None, seed=None):
    """Build the approximate k-NN graph of an index's live rows.

    Deterministic given ``(seed, index.fingerprint)``: the build RNG,
    the exact-bootstrap sample, the random candidate probes and every
    tie-break derive from that key alone, so two builds of the same
    index state are bit-identical (and persist byte-identically).

    Parameters
    ----------
    index:
        A :class:`repro.index.Index`; the graph covers its live rows.
    config:
        :class:`GraphConfig` knobs (default-constructed when omitted).
    seed:
        Build seed; defaults to the index's own seed.

    Returns
    -------
    KNNGraph
    """
    config = config or GraphConfig()
    if seed is None:
        seed = index.seed if isinstance(index.seed, int) else 0
    node_ids = np.ascontiguousarray(index.active_ids())
    m = int(node_ids.size)
    if m < 2:
        raise ValidationError(
            "graph build needs at least 2 live target points (have %d)" % m)
    points = np.ascontiguousarray(
        np.asarray(index.targets, dtype=np.float64)[node_ids])
    kg = min(config.graph_k, m - 1)
    rng = _build_rng(seed, index.fingerprint)

    with obs.span("graph.build", nodes=m, graph_k=kg,
                  fingerprint=index.fingerprint, seed=int(seed)) as sp:
        neighbors = np.full((m, kg), -1, dtype=np.int64)
        distances = np.full((m, kg), np.inf)
        total_distances = 0

        # Exact TI bootstrap on a deterministic sample of nodes.
        n_sample = min(config.sample, m)
        sample_positions = np.sort(rng.choice(m, size=n_sample,
                                              replace=False))
        exact_nbr, exact_dist, n_exact = _bootstrap_exact(
            index, points, node_ids, sample_positions, kg, rng)
        total_distances += n_exact

        # Random edges everywhere else (the classic NN-descent init);
        # one merge pass scores them and seeds the lists.
        random_init = rng.integers(0, m, size=(m, kg + 8), dtype=np.int64)
        neighbors, distances, _, n_dist = _merge_candidates(
            points, neighbors, distances, random_init)
        total_distances += n_dist
        neighbors[sample_positions] = exact_nbr
        distances[sample_positions] = exact_dist
        obs.event("graph.bootstrap", nodes=m, exact_rows=n_sample,
                  exact_distances=n_exact)

        # Local-join refinement until the update rate drops below delta.
        threshold = max(1, int(config.delta * m * kg))
        updates_log = []
        for iteration in range(config.max_iters):
            own = np.where(neighbors >= 0, neighbors,
                           np.arange(m, dtype=np.int64)[:, None])
            two_hop = own[own.reshape(-1)].reshape(m, kg * kg)
            blocks = [two_hop,
                      _reverse_candidates(neighbors, config.reverse_sample)]
            if config.random_per_iter:
                blocks.append(rng.integers(
                    0, m, size=(m, config.random_per_iter),
                    dtype=np.int64))
            candidates = np.concatenate(blocks, axis=1)
            neighbors, distances, changed, n_dist = _merge_candidates(
                points, neighbors, distances, candidates)
            total_distances += n_dist
            updates_log.append(changed)
            obs.event("graph.iteration", iteration=iteration,
                      updates=changed,
                      update_fraction=round(changed / (m * kg), 6))
            tracer = obs.current_tracer()
            if tracer is not None:
                tracer.registry.counter("graph.updates").inc(changed)
            if changed <= threshold:
                break

        graph = KNNGraph(
            node_ids=node_ids, neighbors=neighbors, distances=distances,
            entry_points=_entry_points(index, node_ids, points),
            seed=seed, fingerprint=index.fingerprint,
            built_version=index.version, dim=points.shape[1],
            n_targets_at_build=index.n_points, config=config,
            iteration_updates=updates_log, bootstrap_rows=n_sample,
            build_distance_computations=total_distances)
        sp.annotate(iterations=len(updates_log),
                    distance_computations=total_distances)
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.registry.gauge("graph.nodes").set(m)
            tracer.registry.gauge("graph.iterations").set(len(updates_log))
        return graph
