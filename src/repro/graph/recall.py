"""Measured recall@k of the graph tier, and its ``ef`` calibration.

An approximate engine is only usable in serving if its error is
*measured*, not guessed.  This module establishes the recall contract
all future approximate work reuses:

* :func:`measured_recall` — mean per-query overlap between an
  approximate answer and the exact one (recall@k);
* :func:`calibrate` — run the graph walk at a grid of ``ef`` settings
  against the **exact TI engine** on a held-out probe set, producing a
  :class:`RecallCurve`;
* :class:`RecallCurve` — the stored (ef, recall) curve; serving maps a
  requested ``recall_target`` to the smallest calibrated ``ef`` whose
  measured recall reaches it (:meth:`RecallCurve.ef_for`).

The probe set is deterministic — drawn from the build key
``(seed, fingerprint)`` — and *held out* in the sense that probes are
perturbed copies of sampled target rows, not rows the graph stores, so
the measurement is not flattered by exact self-matches.  The curve is
persisted inside the graph manifest (plain floats, stable JSON), so
the byte-determinism contract of the artifact extends to it.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .search import graph_knn_search

__all__ = ["RecallCurve", "measured_recall", "probe_queries", "calibrate"]

#: Default search-width grid for calibration.
DEFAULT_EF_GRID = (16, 32, 64, 128, 256)


class RecallCurve:
    """Measured (ef, recall@k) pairs of one graph build.

    Attributes
    ----------
    k:
        The k the curve was measured at.
    entries:
        Tuple of ``(ef, recall)`` pairs, ascending in ``ef``.
    n_probe:
        Probe-set size behind every measurement.
    """

    def __init__(self, k, entries, n_probe=0):
        self.k = int(k)
        self.entries = tuple(sorted((int(ef), float(recall))
                                    for ef, recall in entries))
        self.n_probe = int(n_probe)
        if not self.entries:
            raise ValidationError("a recall curve needs >= 1 entry")
        if any(not 0.0 <= r <= 1.0 for _, r in self.entries):
            raise ValidationError("recall values must be in [0, 1]")

    def ef_for(self, recall_target, k=None):
        """Smallest calibrated ``ef`` whose measured recall reaches
        ``recall_target``; the largest calibrated ``ef`` (best effort)
        when no setting reached it.

        When the request's ``k`` differs from the calibrated one the
        width scales proportionally — the beam must hold ``k`` results,
        so a larger k needs a proportionally larger frontier.
        """
        recall_target = float(recall_target)
        if not 0.0 < recall_target <= 1.0:
            raise ValidationError("recall_target must be in (0, 1]")
        ef = None
        for candidate, recall in self.entries:
            if recall >= recall_target:
                ef = candidate
                break
        if ef is None:
            ef = self.entries[-1][0]
        if k is not None and int(k) != self.k:
            ef = int(np.ceil(ef * int(k) / self.k))
        return max(int(ef), int(k) if k is not None else self.k)

    def recall_at(self, ef):
        """Measured recall of the closest calibrated ``ef`` <= ``ef``
        (the first entry when ``ef`` undershoots the grid)."""
        best = self.entries[0][1]
        for candidate, recall in self.entries:
            if candidate <= int(ef):
                best = recall
        return best

    def describe(self):
        return {"k": self.k, "n_probe": self.n_probe,
                "entries": [[ef, recall] for ef, recall in self.entries]}

    @classmethod
    def from_dict(cls, data):
        return cls(k=data["k"], entries=data["entries"],
                   n_probe=data.get("n_probe", 0))

    def __repr__(self):
        return "RecallCurve(k=%d, %s)" % (
            self.k, ", ".join("ef=%d:%.3f" % e for e in self.entries))


def measured_recall(approx_indices, exact_indices):
    """Mean per-row recall@k: |approx ∩ exact| / |exact| (ignoring -1
    padding on either side)."""
    approx_indices = np.atleast_2d(np.asarray(approx_indices))
    exact_indices = np.atleast_2d(np.asarray(exact_indices))
    if approx_indices.shape[0] != exact_indices.shape[0]:
        raise ValidationError("recall needs equal query counts")
    recalls = []
    for approx, exact in zip(approx_indices, exact_indices):
        truth = set(int(i) for i in exact if i >= 0)
        if not truth:
            continue
        got = set(int(i) for i in approx if i >= 0)
        recalls.append(len(truth & got) / len(truth))
    return float(np.mean(recalls)) if recalls else 0.0


def probe_queries(index, n_probe, seed, fingerprint):
    """A deterministic held-out probe set for recall measurement.

    Perturbed copies of sampled live rows: near the data manifold (so
    the measurement reflects real query difficulty) without being
    stored nodes (so exact self-matches cannot inflate recall).  Pure
    function of ``(seed, fingerprint, n_probe)``.
    """
    rng = np.random.default_rng(np.random.SeedSequence(
        [int(seed) & (2 ** 63 - 1), int(fingerprint[:16], 16), 0xCA11]))
    active = index.active_ids()
    n_probe = min(int(n_probe), active.size)
    base_rows = active[np.sort(rng.choice(active.size, size=n_probe,
                                          replace=False))]
    base = np.asarray(index.targets, dtype=np.float64)[base_rows]
    scale = np.std(base, axis=0)
    scale[scale == 0.0] = 1.0
    return base + 0.05 * scale * rng.standard_normal(base.shape)


def calibrate(graph, index, k=10, ef_grid=DEFAULT_EF_GRID, n_probe=64,
              attach=True):
    """Measure the graph's recall@k curve against the exact TI engine.

    Runs the exact flat tier (:func:`repro.core.ti_knn.ti_knn_join`
    with :class:`~repro.native.engine.FlatScan`) on a deterministic
    probe set for ground truth, then the graph walk
    at every ``ef`` in the grid.  Returns the :class:`RecallCurve`
    (attached to ``graph.calibration`` unless ``attach=False`` — the
    curve is persisted with the graph and drives
    ``KNNServer(recall_target=...)`` routing).
    """
    from ..core.ti_knn import ti_knn_join
    from ..native.engine import FlatScan

    k = int(k)
    if k < 1:
        raise ValidationError("k must be positive")
    probes = probe_queries(index, n_probe, graph.seed, graph.fingerprint)
    plan = index.join_plan(probes)
    k_exact = min(k, index.n_active)
    exact = ti_knn_join(probes, np.asarray(index.targets), k_exact, None,
                        plan=plan, level2=FlatScan(k_exact))

    dead = index.tombstones if index.n_tombstones else None
    entries = []
    for ef in sorted(set(max(int(ef), k) for ef in ef_grid)):
        approx = graph_knn_search(graph, probes,
                                  np.asarray(index.targets),
                                  min(k, index.n_active), ef=ef,
                                  dead_mask=dead)
        entries.append((ef, measured_recall(approx.indices,
                                            exact.indices)))
    curve = RecallCurve(k=k, entries=entries, n_probe=len(probes))
    if attach:
        graph.calibration = curve
    return curve
