"""Result and statistics containers for KNN joins."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

__all__ = ["JoinStats", "KNNResult", "Neighbors", "RangeResult",
           "merge_batch_results", "merge_range_batches", "merge_results"]

#: Counter fields that add up across query batches of one join.
_SUMMED_FIELDS = (
    "n_queries",
    "level2_distance_computations",
    "center_distance_computations",
    "init_distance_computations",
    "examined_points",
    "candidate_cluster_pairs",
    "level1_survivor_pairs",
    "heap_updates",
    "predicate_accepted_pairs",
)


@dataclass
class JoinStats:
    """Work counters for one KNN join run.

    ``saved_fraction`` reproduces Table IV's "saved comp." column:
    ``(|Q| * |T| - level2_distance_computations) / (|Q| * |T|)``,
    counting only the exact point-to-point distances of the level-2
    filter, as the paper's profiling variable does.
    """

    n_queries: int = 0
    n_targets: int = 0
    k: int = 0
    dim: int = 0
    mq: int = 0
    mt: int = 0
    level2_distance_computations: int = 0
    center_distance_computations: int = 0
    init_distance_computations: int = 0
    examined_points: int = 0
    candidate_cluster_pairs: int = 0
    level1_survivor_pairs: int = 0
    heap_updates: int = 0
    #: Pairs the join's distance predicate accepted at check time (heap
    #: insertions for top-k; pairs within ε / within kdist for the range
    #: predicates).  Always <= level2_distance_computations, because only
    #: computed distances are offered to the predicate.
    predicate_accepted_pairs: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def total_pairs(self):
        return self.n_queries * self.n_targets

    @property
    def saved_fraction(self):
        if self.total_pairs == 0:
            return 0.0
        saved = self.total_pairs - self.level2_distance_computations
        return saved / self.total_pairs

    @classmethod
    def merged(cls, stats_list):
        """Combine per-batch stats into the whole-join totals.

        Counters sum; the shape fields (|T|, k, d, mq, mt) come from the
        first batch, which shares them with every other batch because
        batched execution runs against one prepared plan.  Numeric
        ``extra`` entries (e.g. ``partitions``) sum as well; other
        entries keep the first batch's value.
        """
        stats_list = list(stats_list)
        if not stats_list:
            raise ValueError("cannot merge an empty stats list")
        first = stats_list[0]
        merged = cls(n_targets=first.n_targets, k=first.k, dim=first.dim,
                     mq=first.mq, mt=first.mt)
        for name in _SUMMED_FIELDS:
            setattr(merged, name,
                    sum(getattr(s, name) for s in stats_list))
        merged.extra = dict(first.extra)
        for key, value in first.extra.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            merged.extra[key] = sum(s.extra.get(key, 0) for s in stats_list)
        merged.extra["query_batches"] = len(stats_list)
        return merged

    def summary(self):
        return {
            "|Q|": self.n_queries, "|T|": self.n_targets, "k": self.k,
            "d": self.dim, "mq": self.mq, "mt": self.mt,
            "level2_distances": self.level2_distance_computations,
            "saved_fraction": round(self.saved_fraction, 4),
            "candidate_cluster_pairs": self.candidate_cluster_pairs,
            "level1_survivor_pairs": self.level1_survivor_pairs,
            "examined_points": self.examined_points,
            "predicate_accepted_pairs": self.predicate_accepted_pairs,
            **self.extra,
        }

    def publish(self, registry, force=False):
        """Publish this join's counters into a metrics registry.

        Writes the ``join.*`` work counters and the ``funnel.*`` stage
        counters (see :mod:`repro.obs.funnel`) — the single
        accumulation path the tracer, the bench harness and the CLI
        ``trace`` command all read from.

        Idempotent per registry: a second publish of the same stats
        object into the same registry is a no-op, so retry paths and
        explain/audit re-assembly cannot double-count.  ``force=True``
        republishes anyway (deliberate re-accounting only).  The guard
        holds registries weakly and is dropped on pickling, so stats
        that cross a process-pool boundary publish normally on the
        other side.
        """
        from ..obs.funnel import funnel_from_stats

        published = self.__dict__.get("_published_registries")
        if published is None:
            published = weakref.WeakSet()
            self.__dict__["_published_registries"] = published
        if registry in published and not force:
            return registry
        published.add(registry)
        registry.counter("join.runs").inc()
        registry.counter("join.queries").inc(self.n_queries)
        for name in _SUMMED_FIELDS[1:]:
            registry.counter("join." + name).inc(getattr(self, name))
        for stage, value in funnel_from_stats(self).items():
            registry.counter("funnel." + stage).inc(value)
        return registry

    def __getstate__(self):
        # WeakSets don't pickle; the guard is per-process anyway — the
        # receiving side's registries are different objects.
        state = dict(self.__dict__)
        state.pop("_published_registries", None)
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)


@dataclass(frozen=True)
class Neighbors:
    """One query point's neighbour list: (k,) distances and indices.

    The single-query counterpart of :class:`KNNResult` — returned by
    :meth:`KNNResult.row`, :meth:`repro.SweetKNN.query_one` and the
    serving layer's per-request responses.  Iterable as
    ``(distances, indices)`` for tuple-style unpacking.
    """

    distances: np.ndarray
    indices: np.ndarray

    @property
    def k(self):
        return self.distances.shape[0]

    def __iter__(self):
        return iter((self.distances, self.indices))


@dataclass
class KNNResult:
    """k nearest neighbours for every query point.

    Attributes
    ----------
    distances:
        (|Q|, k) array, ascending per row.
    indices:
        (|Q|, k) array of target indices aligned with ``distances``.
    stats:
        :class:`JoinStats` work counters.
    profile:
        Optional :class:`~repro.gpu.profiler.PipelineProfile` when the
        join ran on the simulated GPU.
    method:
        Human-readable name of the algorithm that produced the result.
    audit:
        Optional :class:`~repro.obs.audit.QueryAudit` attached when the
        join ran with ``explain=True``.
    """

    distances: np.ndarray
    indices: np.ndarray
    stats: JoinStats
    profile: object = None
    method: str = ""
    audit: object = None

    @property
    def k(self):
        return self.distances.shape[1]

    @property
    def sim_time_s(self):
        """Simulated GPU time, when available."""
        return self.profile.sim_time_s if self.profile is not None else None

    def row(self, i):
        """The i-th query's :class:`Neighbors` (shape-(k,) views)."""
        return Neighbors(distances=self.distances[i],
                         indices=self.indices[i])

    def matches(self, other, rtol=1e-9, atol=2e-3):
        """True when both results report the same neighbour distances.

        Indices are allowed to differ on exact distance ties, so the
        comparison is on the sorted distance rows.  This is the loose
        *cross-method* comparator, for approximate or user-registered
        engines; every bundled exact engine equals ``brute`` bit for
        bit, ids included, which the test suite asserts with
        ``np.array_equal``.
        """
        return np.allclose(self.distances, other.distances,
                           rtol=rtol, atol=atol)

    @staticmethod
    def pack(heaps_or_pairs, k):
        """Build (distances, indices) matrices from per-query results.

        Accepts per-query ``(dists, idx)`` pairs; rows shorter than k
        (possible only when |T| < k) are padded with ``inf`` / -1.
        """
        n = len(heaps_or_pairs)
        distances = np.full((n, k), np.inf, dtype=np.float64)
        indices = np.full((n, k), -1, dtype=np.int64)
        for row, (dists, idx) in enumerate(heaps_or_pairs):
            take = min(k, len(dists))
            distances[row, :take] = dists[:take]
            indices[row, :take] = idx[:take]
        return distances, indices


@dataclass
class RangeResult:
    """Variable-cardinality join result in CSR layout.

    The predicate joins (ε-range, self-join, reverse-KNN) return a
    different number of pairs per query, so the fixed-(|Q|, k) matrices
    of :class:`KNNResult` do not fit; instead the rows are concatenated
    with an index pointer, exactly a CSR sparse-matrix layout:

    Attributes
    ----------
    indptr:
        (|Q| + 1,) row offsets; query i's pairs live at
        ``[indptr[i], indptr[i+1])``.
    indices:
        (nnz,) partner indices, per row sorted by (distance, index).
    distances:
        (nnz,) distances aligned with ``indices``.
    stats:
        :class:`JoinStats` work counters.
    profile:
        Present for API symmetry with :class:`KNNResult` (the predicate
        joins run on the host, so this stays ``None``).
    method:
        Human-readable name of the algorithm that produced the result.
    audit:
        Optional :class:`~repro.obs.audit.QueryAudit` attached when the
        join ran with ``explain=True``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    distances: np.ndarray
    stats: JoinStats
    profile: object = None
    method: str = ""
    audit: object = None

    @property
    def n_queries(self):
        return int(self.indptr.shape[0] - 1)

    @property
    def n_pairs(self):
        return int(self.indices.shape[0])

    @property
    def sim_time_s(self):
        """Simulated GPU time, when available (host joins: ``None``)."""
        return self.profile.sim_time_s if self.profile is not None else None

    def counts(self):
        """Per-query pair counts, shape (|Q|,)."""
        return np.diff(self.indptr)

    def row(self, i):
        """The i-th query's :class:`Neighbors` (variable-length views)."""
        start, stop = self.indptr[i], self.indptr[i + 1]
        return Neighbors(distances=self.distances[start:stop],
                         indices=self.indices[start:stop])

    def matches(self, other, rtol=1e-9, atol=1e-9):
        """True when both results report the same pairs per query.

        Rows are canonically sorted by (distance, index), so two exact
        implementations agree element-wise: identical row sizes,
        identical partner indices, distances equal to tolerance.
        """
        return bool(
            np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.distances, other.distances,
                            rtol=rtol, atol=atol))

    @staticmethod
    def from_rows(rows, stats=None, method="", profile=None):
        """Build a CSR result from per-query ``(distances, indices)``
        pairs (each already sorted by (distance, index))."""
        counts = np.array([len(dists) for dists, _ in rows],
                          dtype=np.int64)
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if counts.sum():
            distances = np.concatenate(
                [np.asarray(dists, dtype=np.float64) for dists, _ in rows
                 if len(dists)])
            indices = np.concatenate(
                [np.asarray(idx, dtype=np.int64) for dists, idx in rows
                 if len(dists)])
        else:
            distances = np.empty(0, dtype=np.float64)
            indices = np.empty(0, dtype=np.int64)
        return RangeResult(indptr=indptr, indices=indices,
                           distances=distances,
                           stats=stats if stats is not None else JoinStats(),
                           profile=profile, method=method)


def merge_batch_results(batches, n_queries, k):
    """Stitch per-batch :class:`KNNResult` objects into one result.

    Parameters
    ----------
    batches:
        Sequence of ``(query_indices, KNNResult)`` pairs, where
        ``query_indices`` gives the global query row of each result row.
    n_queries, k:
        Shape of the merged result.

    Rows covered by several batches (overlapping tiles) are merged with
    the same sorted-list k-merge Sweet KNN's final kernel uses, so the
    closest k survive regardless of which tile found them.  Simulated
    GPU profiles concatenate kernel-by-kernel, keeping ``sim_time_s``
    and the warp-efficiency accessors meaningful for the whole join.
    """
    from ..kselect import merge_sorted_lists

    batches = list(batches)
    if not batches:
        raise ValueError("cannot merge an empty batch list")
    k = int(k)

    per_row = [[] for _ in range(int(n_queries))]
    for query_indices, result in batches:
        query_indices = np.asarray(query_indices, dtype=np.int64)
        if len(query_indices) != len(result.distances):
            raise ValueError("batch index list does not match result rows")
        for local, q in enumerate(query_indices):
            per_row[q].append((result.distances[local],
                               result.indices[local]))
    rows = []
    for q, candidates in enumerate(per_row):
        if not candidates:
            raise ValueError("query %d is covered by no batch" % q)
        if len(candidates) == 1:
            rows.append(candidates[0])
        else:
            rows.append(merge_sorted_lists(candidates, k))
    distances, indices = KNNResult.pack(rows, k)

    stats = JoinStats.merged([result.stats for _, result in batches])
    first = batches[0][1]
    profile = None
    profiles = [result.profile for _, result in batches
                if result.profile is not None]
    if profiles:
        from ..gpu.profiler import PipelineProfile
        profile = PipelineProfile(
            name="batched(%s)" % (first.method or "knn"),
            kernels=[kernel for p in profiles for kernel in p.kernels],
            host_time_s=sum(p.host_time_s for p in profiles))
    return KNNResult(distances=distances, indices=indices, stats=stats,
                     profile=profile, method=first.method)


def merge_range_batches(batches, n_queries):
    """Stitch per-batch :class:`RangeResult` objects into one result.

    Parameters
    ----------
    batches:
        Sequence of ``(query_indices, RangeResult)`` pairs, where
        ``query_indices`` gives the global query row of each result row.
    n_queries:
        Row count of the merged result.

    Rows covered by several batches (overlapping tiles) concatenate,
    re-sort by (distance, index) and drop duplicate partners — the
    variable-cardinality counterpart of the top-k shard merge, with
    the same determinism contract: because every tile computes
    bit-identical distances for the pairs it covers, the merged rows
    are a pure function of the pair *set*, independent of tiling.
    """
    batches = list(batches)
    if not batches:
        raise ValueError("cannot merge an empty batch list")

    per_row = [[] for _ in range(int(n_queries))]
    for query_indices, result in batches:
        query_indices = np.asarray(query_indices, dtype=np.int64)
        if len(query_indices) != result.n_queries:
            raise ValueError("batch index list does not match result rows")
        for local, q in enumerate(query_indices):
            per_row[q].append(result.row(local))

    rows = []
    for q, segments in enumerate(per_row):
        if not segments:
            raise ValueError("query %d is covered by no batch" % q)
        if len(segments) == 1:
            rows.append((segments[0].distances, segments[0].indices))
            continue
        dists = np.concatenate([seg.distances for seg in segments])
        idx = np.concatenate([seg.indices for seg in segments])
        order = np.lexsort((idx, dists))
        dists, idx = dists[order], idx[order]
        if idx.size:
            keep = np.ones(idx.size, dtype=bool)
            keep[1:] = idx[1:] != idx[:-1]
            dists, idx = dists[keep], idx[keep]
        rows.append((dists, idx))

    stats = JoinStats.merged([result.stats for _, result in batches])
    first = batches[0][1]
    return RangeResult.from_rows(rows, stats=stats, method=first.method)


def merge_results(batches, n_queries, k):
    """Merge per-batch results, dispatching on the result kind.

    The execution layer (batched and sharded paths alike) calls this
    single entry point; fixed-k :class:`KNNResult` batches take the
    sorted k-merge, variable-cardinality :class:`RangeResult` batches
    the CSR row merge.
    """
    batches = list(batches)
    if batches and isinstance(batches[0][1], RangeResult):
        return merge_range_batches(batches, n_queries)
    return merge_batch_results(batches, n_queries, k)
