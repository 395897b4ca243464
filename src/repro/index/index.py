"""The prepared target index — single owner of "cluster once" state.

Sweet KNN's premise (Sec. III-A) is that the expensive,
query-independent target-side state — landmark selection, clustering,
the descending member sort — is built **once** and queried many times.
:class:`Index` is that state as a first-class object with an explicit
lifecycle:

* **build** — cluster a target set (exactly the preparation the old
  ``repro.engine.prepared.PreparedIndex`` ran), stamping a content
  ``fingerprint`` (cached, never recomputed) and ``version`` 1;
* **persist** — :meth:`save` writes a manifest + raw ``.npy`` arrays,
  :meth:`load` maps them back read-only (``mmap``), so serving
  processes and pool workers share the pages zero-copy;
* **update** — :meth:`add` / :meth:`remove` reassign only the affected
  clusters, refresh radii and bump ``version``; an
  :class:`UpdatePolicy` triggers a full deterministic rebuild when
  tombstones or cluster growth degrade the filter;
* **query** — :meth:`join_plan` assigns a query batch to the prepared
  target side's own landmarks, yielding the
  :class:`~repro.core.ti_knn.JoinPlan` every TI engine executes.

Identity for caches is the ``(fingerprint, version)`` pair
(:attr:`key`): the serving :class:`~repro.serve.IndexStore` and the
per-worker plan cache both invalidate on it.
"""

from __future__ import annotations

import dataclasses
import logging
import os

import numpy as np

from .. import obs
from ..core.bounds import nearest_columns
from ..core.clustering import ClusteredSet, cluster_points
from ..core.landmarks import (determine_landmark_count,
                              select_landmarks_random_spread)
from ..core.validate import as_points, check_points
from ..errors import ValidationError
from ..graph import storage as graph_storage
from . import storage
from .fingerprint import fingerprint_points, register_fingerprint

__all__ = ["Index", "UpdatePolicy"]

logger = logging.getLogger("repro.index")


def _largest_cluster(clusters):
    return max((len(m) for m in clusters.members), default=0)


class UpdatePolicy:
    """When incremental updates should escalate to a full rebuild.

    Incremental :meth:`Index.add` / :meth:`Index.remove` keep answers
    exact but slowly degrade the *filter*: tombstoned rows leave holes,
    and clusters that grow far beyond their build-time size weaken the
    triangle-inequality bounds.  The policy bounds that drift.

    Parameters
    ----------
    max_tombstone_fraction:
        Rebuild when removed rows (since the last rebuild) exceed this
        fraction of the live set.
    max_cluster_growth:
        Rebuild when any cluster holds more than this multiple of the
        build-time mean cluster size.
    """

    def __init__(self, max_tombstone_fraction=0.25, max_cluster_growth=4.0):
        self.max_tombstone_fraction = float(max_tombstone_fraction)
        self.max_cluster_growth = float(max_cluster_growth)
        if not 0.0 < self.max_tombstone_fraction <= 1.0:
            raise ValidationError(
                "max_tombstone_fraction must be in (0, 1]")
        if self.max_cluster_growth <= 1.0:
            raise ValidationError("max_cluster_growth must exceed 1")

    def describe(self):
        return {"max_tombstone_fraction": self.max_tombstone_fraction,
                "max_cluster_growth": self.max_cluster_growth}

    @classmethod
    def from_dict(cls, data):
        data = data or {}
        return cls(
            max_tombstone_fraction=data.get("max_tombstone_fraction", 0.25),
            max_cluster_growth=data.get("max_cluster_growth", 4.0))

    def __repr__(self):
        return ("UpdatePolicy(max_tombstone_fraction=%g, "
                "max_cluster_growth=%g)"
                % (self.max_tombstone_fraction, self.max_cluster_growth))


class Index:
    """Landmarks + clustered, sorted target set, built exactly once.

    Parameters
    ----------
    targets:
        (n, d) target point set.
    seed:
        Landmark-selection seed (ignored when ``rng`` is given).
    rng:
        Optional ``numpy.random.Generator`` shared with the caller, so
        an index owner like :class:`~repro.core.api.SweetKNN` keeps one
        deterministic stream across preparation and queries.
    mt:
        Optional target landmark-count override (defaults to
        ``detLmNum``'s ``3 * sqrt(|T|)``).
    memory_budget_bytes:
        Caps the landmark counts like the device memory budget does.
    policy:
        :class:`UpdatePolicy` governing incremental-update rebuilds.
    """

    def __init__(self, targets, seed=0, rng=None, mt=None,
                 memory_budget_bytes=None, policy=None):
        targets = check_points(targets, name="targets")
        self.seed = seed
        self.mt_requested = mt
        self.memory_budget_bytes = memory_budget_bytes
        self.policy = policy or UpdatePolicy()
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        with obs.span("index.build", n=int(targets.shape[0]),
                      dim=int(targets.shape[1])) as sp:
            self.targets = targets
            self.fingerprint = fingerprint_points(targets)
            if mt is None:
                mt = determine_landmark_count(len(targets),
                                              memory_budget_bytes)
            landmarks = select_landmarks_random_spread(targets, mt,
                                                       self._rng)
            self.target_clusters = cluster_points(targets, landmarks,
                                                  sort_descending=True)
            sp.annotate(mt=self.target_clusters.n_clusters,
                        fingerprint=self.fingerprint)
        #: Times the target side has been clustered from scratch; stays
        #: 1 until an update-policy rebuild (regression-tested).
        self.build_count = 1
        #: Monotonic state counter; every mutation bumps it, and every
        #: prepared-state cache keys on ``(fingerprint, version)``.
        self.version = 1
        self.source_path = None
        self.mmapped = False
        #: Optional approximate k-NN graph artifact (see repro.graph);
        #: built via :meth:`build_graph`, persisted with :meth:`save`,
        #: staleness-checked at use time against ``version``.
        self.graph = None
        self._tombstones = np.zeros(len(targets), dtype=bool)
        self._dead_since_rebuild = 0
        self._max_size_at_build = _largest_cluster(self.target_clusters)
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def mt(self):
        return self.target_clusters.n_clusters

    @property
    def dim(self):
        return self.targets.shape[1]

    @property
    def n_points(self):
        """Physical rows, including tombstoned ones."""
        return self.targets.shape[0]

    @property
    def n_active(self):
        """Live (queryable) target points."""
        return int(self.targets.shape[0] - self._tombstones.sum())

    @property
    def n_tombstones(self):
        return int(self._tombstones.sum())

    @property
    def tombstones(self):
        return self._tombstones

    @property
    def key(self):
        """The cache-invalidation identity: ``(fingerprint, version)``."""
        return (self.fingerprint, self.version)

    def active_ids(self):
        """Row ids of the live target points."""
        return np.flatnonzero(~self._tombstones)

    def rng_state(self):
        """JSON-serializable state of the landmark RNG (persisted so a
        loaded index resumes the stream of the freshly built one)."""
        return self._rng.bit_generator.state

    @property
    def nbytes(self):
        """Approximate resident size of the prepared target state.

        Counts the target matrix once plus the cluster metadata (the
        centres, assignments, per-member distances and sorted member
        lists).  This is the currency of the serving layer's
        byte-budgeted index cache.
        """
        ct = self.target_clusters
        total = self.targets.nbytes
        total += ct.centers.nbytes + ct.center_indices.nbytes
        total += ct.assignment.nbytes + ct.dist_to_center.nbytes
        total += sum(m.nbytes for m in ct.members)
        total += sum(d.nbytes for d in ct.member_dists)
        if ct.radius is not None:
            total += ct.radius.nbytes
        return int(total)

    def describe(self):
        """Manifest-style summary (the CLI ``index inspect`` view)."""
        return {
            "n": int(self.n_points), "dim": int(self.dim),
            "mt": int(self.mt), "seed": self.seed,
            "fingerprint": self.fingerprint, "version": int(self.version),
            "build_count": int(self.build_count),
            "tombstones": self.n_tombstones,
            "active": self.n_active,
            "nbytes": self.nbytes,
            "mmapped": bool(self.mmapped),
            "source_path": self.source_path,
            "policy": self.policy.describe(),
            "graph": (self.graph.describe()
                      if self.graph is not None else None),
        }

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def join_plan(self, queries):
        """Step 1 of a query batch on the prepared target side.

        The queries join the index's own landmarks
        (:func:`~repro.core.ti_knn.landmark_plan`): one GEMM against the
        target centres assigns them and gives their level-2 centre
        rows, and the query clusters' centre distances are rows of the
        index's C x C centre matrix, computed once per version.  The
        target clusters, their sorted member lists and radii are reused
        as built.

        Returns
        -------
        JoinPlan
        """
        from ..core.ti_knn import landmark_plan

        queries = as_points(queries, name="queries")
        if queries.shape[0] == 0:
            raise ValidationError("queries must be a non-empty 2-D array")
        if queries.shape[1] != self.dim:
            raise ValidationError(
                "dimension mismatch: queries d=%d, prepared index d=%d"
                % (queries.shape[1], self.dim))
        return landmark_plan(queries, self.target_clusters)

    # ------------------------------------------------------------------
    # Approximate graph tier
    # ------------------------------------------------------------------
    def build_graph(self, config=None, seed=None, calibrate=True, k=10,
                    ef_grid=None, n_probe=64):
        """Build (and by default calibrate) the approximate k-NN graph.

        The graph covers the live rows at the current ``version`` and
        is attached as :attr:`graph` — persisted by the next
        :meth:`save`, reloaded by :meth:`load`, and consulted by
        ``KNNServer`` requests carrying a ``recall_target``.  Build is
        deterministic given ``(seed, fingerprint)``.
        """
        from ..graph import build_graph as _build
        from ..graph import calibrate as _calibrate
        from ..graph.recall import DEFAULT_EF_GRID

        graph = _build(self, config=config, seed=seed)
        if calibrate:
            _calibrate(graph, self, k=k,
                       ef_grid=ef_grid or DEFAULT_EF_GRID,
                       n_probe=n_probe)
        self.graph = graph
        return graph

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path):
        """Write this index to directory ``path`` (see ``storage``).

        After a successful save the index is disk-backed:
        :attr:`source_path` points at the directory, so sharded
        execution can hand workers the path instead of pickled arrays.
        An attached :attr:`graph` is saved into ``<path>/graph``,
        versioned alongside the manifest.
        """
        with obs.span("index.save", path=os.fspath(path),
                      n=int(self.n_points), version=int(self.version)):
            storage.write_index(self, path)
        if self.graph is not None:
            self.graph.save(os.path.join(os.fspath(path), "graph"))
        self.source_path = os.path.abspath(os.fspath(path))
        return self.source_path

    @classmethod
    def load(cls, path, mmap=True):
        """Load a saved index, zero-copy by default.

        With ``mmap=True`` the arrays are read-only views backed by the
        page cache: every process loading the same directory shares one
        physical copy.  The restored index reproduces the freshly built
        one bit-for-bit — including the landmark RNG state, so query
        batches cluster identically.
        """
        with obs.span("index.load", path=os.fspath(path),
                      mmap=bool(mmap)) as sp:
            manifest, arrays = storage.read_index(path, mmap=mmap)
            sizes_edge = arrays["member_offsets"]
            members = []
            member_dists = []
            for cid in range(manifest["mt"]):
                start, stop = int(sizes_edge[cid]), int(sizes_edge[cid + 1])
                members.append(arrays["members"][start:stop])
                member_dists.append(arrays["member_dists"][start:stop])
            clusters = ClusteredSet(
                points=arrays["targets"],
                center_indices=arrays["center_indices"],
                centers=arrays["centers"],
                assignment=arrays["assignment"],
                dist_to_center=arrays["dist_to_center"],
                members=members,
                member_dists=member_dists,
                radius=arrays["radius"],
                init_distance_computations=int(
                    manifest.get("init_distance_computations", 0)),
            )

            index = cls.__new__(cls)
            index.seed = manifest.get("seed", 0)
            index.mt_requested = manifest.get("mt_requested")
            index.memory_budget_bytes = manifest.get("memory_budget_bytes")
            index.policy = UpdatePolicy.from_dict(manifest.get("policy"))
            index.targets = arrays["targets"]
            index.target_clusters = clusters
            index.fingerprint = manifest["fingerprint"]
            index.version = int(manifest["version"])
            index.build_count = int(manifest.get("build_count", 1))
            index.source_path = os.path.abspath(os.fspath(path))
            index.mmapped = bool(mmap)
            index._tombstones = np.asarray(arrays["tombstones"])
            index._dead_since_rebuild = int(
                manifest.get("tombstones_since_rebuild", 0))
            index._max_size_at_build = int(
                manifest.get("max_cluster_size_at_build",
                             _largest_cluster(clusters)))
            index._rng = np.random.default_rng()
            state = manifest.get("rng_state")
            if state is not None:
                try:
                    index._rng.bit_generator.state = state
                except (KeyError, TypeError, ValueError) as exc:
                    raise ValidationError(
                        "index manifest carries an unusable rng_state: %s"
                        % exc) from exc
            index.graph = None
            graph_dir = os.path.join(path, "graph")
            if graph_storage.is_graph_dir(graph_dir):
                from ..graph import KNNGraph
                graph = KNNGraph.load(graph_dir, mmap=mmap)
                if graph.fingerprint == index.fingerprint:
                    index.graph = graph
                else:
                    logger.warning(
                        "ignoring graph artifact %s: fingerprint %s does "
                        "not match index %s", graph_dir,
                        graph.fingerprint, index.fingerprint)
            register_fingerprint(index.targets, index.fingerprint)
            sp.annotate(n=int(index.n_points), mt=int(index.mt),
                        version=int(index.version),
                        fingerprint=index.fingerprint)
            index._publish_gauges()
            return index

    # ------------------------------------------------------------------
    # Incremental updates
    # ------------------------------------------------------------------
    def add(self, points):
        """Insert new target points; returns their assigned row ids.

        Each point joins its nearest existing cluster (members stay
        sorted by descending centre distance, radii refresh), so only
        the affected clusters change.  ``version`` bumps; when the
        update policy finds the clustering degraded, a full rebuild of
        the live set follows automatically.
        """
        points = check_points(points, name="points", require_finite=True)
        if points.shape[1] != self.dim:
            raise ValidationError(
                "dimension mismatch: points d=%d, index d=%d"
                % (points.shape[1], self.dim))
        with obs.span("index.update", op="add", rows=int(len(points))):
            self._materialize()
            ct = self._next_clusters()
            dists, assignment = nearest_columns(points, ct.centers, 1)
            dists, assignment = dists[:, 0], assignment[:, 0]
            base = self.targets.shape[0]
            new_ids = np.arange(base, base + len(points), dtype=np.int64)

            self.targets = np.ascontiguousarray(
                np.vstack([self.targets, points]))
            ct.points = self.targets
            ct.assignment = np.concatenate([ct.assignment, assignment])
            ct.dist_to_center = np.concatenate([ct.dist_to_center, dists])
            ct.init_distance_computations += len(points) * ct.n_clusters
            self._tombstones = np.concatenate(
                [self._tombstones, np.zeros(len(points), dtype=bool)])
            for cid in np.unique(assignment):
                in_cluster = assignment == cid
                merged_ids = np.concatenate(
                    [ct.members[cid], new_ids[in_cluster]])
                merged_dists = np.concatenate(
                    [ct.member_dists[cid], dists[in_cluster]])
                order = np.argsort(-merged_dists, kind="stable")
                ct.members[cid] = merged_ids[order]
                ct.member_dists[cid] = merged_dists[order]
                ct.radius[cid] = merged_dists[order[0]]
            self._bump()
            return new_ids

    def remove(self, row_ids):
        """Tombstone target rows; their ids are never returned again.

        Row ids are stable for the lifetime of the index (results keep
        meaning the same points after any update sequence); removed
        rows only leave the member lists and radii of their clusters.
        """
        row_ids = np.unique(np.asarray(row_ids, dtype=np.int64).ravel())
        if row_ids.size == 0:
            return
        if row_ids.min() < 0 or row_ids.max() >= self.n_points:
            raise ValidationError(
                "row ids out of range [0, %d)" % self.n_points)
        if self._tombstones[row_ids].any():
            raise ValidationError("some row ids are already removed")
        if self.n_active - row_ids.size <= 0:
            raise ValidationError("cannot remove every target point")
        with obs.span("index.update", op="remove", rows=int(row_ids.size)):
            self._materialize()
            ct = self._next_clusters()
            self._tombstones[row_ids] = True
            self._dead_since_rebuild += int(row_ids.size)
            for cid in np.unique(ct.assignment[row_ids]):
                keep = ~self._tombstones[ct.members[cid]]
                ct.members[cid] = ct.members[cid][keep]
                ct.member_dists[cid] = ct.member_dists[cid][keep]
                ct.radius[cid] = (ct.member_dists[cid][0]
                                  if ct.member_dists[cid].size else 0.0)
            self._bump()

    def rebuild(self):
        """Force a full re-clustering of the live point set now."""
        self._materialize()
        self._rebuild()
        self.version += 1
        self._publish_gauges()
        return self

    def _next_clusters(self):
        """Install and return a copy of the clustered set to update.

        Layouts derived from a :class:`ClusteredSet` (the flat tier's
        :func:`~repro.native.layout.flat_targets`) are memoized per
        object and treat it as immutable, so each version gets its own
        object: member lists and radii are copied, the arrays an update
        replaces wholesale are shared.
        """
        ct = self.target_clusters
        self.target_clusters = dataclasses.replace(
            ct, members=list(ct.members), member_dists=list(ct.member_dists),
            radius=np.array(ct.radius))
        return self.target_clusters

    def _bump(self):
        self.version += 1
        if self._needs_rebuild():
            self._rebuild()
        self._publish_gauges()

    def _needs_rebuild(self):
        active = self.n_active
        if active <= 0:
            return False
        dead = self._dead_since_rebuild
        if dead / (active + dead) > self.policy.max_tombstone_fraction:
            return True
        # Growth is judged against the *largest* cluster at build time,
        # not the mean: natural clusterings are skewed, and a mean
        # baseline would demand a rebuild the moment any point lands in
        # an already-big cluster.
        largest = _largest_cluster(self.target_clusters)
        return largest > self.policy.max_cluster_growth * max(
            1.0, self._max_size_at_build)

    def _rebuild(self):
        """Re-cluster the live rows; ids stay stable, tombstones drain.

        Deterministic: the rebuild RNG derives from ``(seed, version)``
        so two replicas applying the same update sequence arrive at
        bit-identical clusterings.
        """
        active = self.active_ids()
        with obs.span("index.rebuild", active=int(active.size),
                      version=int(self.version)):
            seed = self.seed if isinstance(self.seed, int) else 0
            rng = np.random.default_rng(
                np.random.SeedSequence([int(seed) & (2 ** 63 - 1),
                                        int(self.version)]))
            mt = self.mt_requested
            if mt is None:
                mt = determine_landmark_count(active.size,
                                              self.memory_budget_bytes)
            live = np.ascontiguousarray(self.targets[active])
            landmarks = select_landmarks_random_spread(live, mt, rng)
            clustered = cluster_points(live, landmarks, sort_descending=True)

            n = self.n_points
            assignment = np.full(n, -1, dtype=np.int64)
            assignment[active] = clustered.assignment
            dist_to_center = np.zeros(n, dtype=np.float64)
            dist_to_center[active] = clustered.dist_to_center
            previous_init = self.target_clusters.init_distance_computations
            self.target_clusters = ClusteredSet(
                points=self.targets,
                center_indices=active[clustered.center_indices],
                centers=clustered.centers,
                assignment=assignment,
                dist_to_center=dist_to_center,
                members=[active[m] for m in clustered.members],
                member_dists=clustered.member_dists,
                radius=clustered.radius,
                init_distance_computations=(
                    previous_init + clustered.init_distance_computations),
            )
            self._dead_since_rebuild = 0
            self._max_size_at_build = _largest_cluster(self.target_clusters)
            self.build_count += 1
            obs.event("index.rebuilt", build_count=self.build_count,
                      active=int(active.size))

    def _materialize(self):
        """Copy memory-mapped state into private writable arrays.

        Updating diverges from the on-disk image, so a materialized
        index also stops being disk-backed until the next
        :meth:`save`.
        """
        if self.mmapped:
            self.targets = np.array(self.targets)
            ct = self.target_clusters
            ct.points = self.targets
            ct.center_indices = np.array(ct.center_indices)
            ct.centers = np.array(ct.centers)
            ct.assignment = np.array(ct.assignment)
            ct.dist_to_center = np.array(ct.dist_to_center)
            ct.radius = np.array(ct.radius)
            ct.members = [np.array(m) for m in ct.members]
            ct.member_dists = [np.array(d) for d in ct.member_dists]
            self._tombstones = np.array(self._tombstones)
            self.mmapped = False
        self.source_path = None

    def _publish_gauges(self):
        tracer = obs.current_tracer()
        if tracer is not None:
            tracer.registry.gauge("index.version").set(int(self.version))
            tracer.registry.gauge("index.tombstones").set(
                self.n_tombstones)
