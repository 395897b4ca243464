"""The benchmark's workloads: inputs from a seed, set-up, measured loops.

Every workload runs ``k = 20`` against a target set ``T`` and queries
that are held-out rows of the same generator call.  Op ``i`` of a run
reads only input slot ``i % slots``, so its input depends on the seed
and ``i`` alone, and the answers of the first :data:`FUNNEL_OPS` ops
(with their funnel counts) repeat exactly for a seed.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

from repro import SweetKNN
from repro.datasets import synthetic
from repro.index import Index
from repro.serve import KNNServer

from check import Answers, live_state
from hostspeed import RECENT, BulkProbe

K = 20
SETUPS = 5        # set-ups per run; setup_s is their median
WARM_ROWS = 8     # queries of the warm-up after each set-up
FUNNEL_OPS = 8    # ops every run completes at least; their funnel is reported
RESULT_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    """One set of inputs and one load shape."""

    name: str
    kind: str          # "batch" (closed loop), "serve" (open loop), "churn"
    data: str          # "clustered" or "highdim"
    n_targets: int
    dim: int
    rows: int          # query rows per op
    slots: int         # distinct op inputs; ops cycle through them
    method: str = "ti-flat"
    rate: float = 0.0  # serve: requests per second
    check_every: int = 8   # check one answer in this many (1 = all)


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {w.name: w for w in (
    Workload("batch-clustered", "batch", "clustered", 8192, 29, 256, 128),
    Workload("batch-highdim", "batch", "highdim", 4000, 512, 32, 128),
    Workload("serve-clustered", "serve", "clustered", 8192, 29, 1, 8192,
             rate=400.0),
    # ti-flat answers from a stale layout after Index.add/remove (see
    # README.md), so the write path is measured on the reference engine;
    # method="ti-flat" here reproduces the failure.
    Workload("churn-clustered", "churn", "clustered", 8192, 29, 64, 256,
             method="ti-cpu", check_every=1),
)}


def toy(workload):
    """The workload shrunk for the smoke run."""
    return replace(workload, n_targets=1024, dim=min(workload.dim, 64),
                   rows=max(1, workload.rows // 8),
                   slots=min(workload.slots, 64))


@dataclass
class Inputs:
    targets: np.ndarray
    warm: np.ndarray
    queries: np.ndarray   # (slots, rows, d)
    adds: np.ndarray      # churn: (slots, rows, d) points to add


def make_inputs(workload, seed):
    """The workload's inputs; the same seed gives the same arrays."""
    w = workload
    per_slot = w.rows * (2 if w.kind == "churn" else 1)
    n = w.n_targets + WARM_ROWS + w.slots * per_slot
    rng = np.random.default_rng(seed)
    if w.data == "clustered":
        # The kegg regime at twice the size (Table III).
        points = synthetic.gaussian_mixture(n, w.dim, rng, n_clusters=40,
                                            separation=12.0,
                                            intrinsic_dim=6)
    else:
        # The arcene regime.
        points = synthetic.high_dim_weakly_clustered(n, w.dim, rng,
                                                     intrinsic_dim=64)
    held_out = points[w.n_targets + WARM_ROWS:].reshape(w.slots, per_slot,
                                                        w.dim)
    return Inputs(targets=points[:w.n_targets],
                  warm=points[w.n_targets:w.n_targets + WARM_ROWS],
                  queries=held_out[:, :w.rows], adds=held_out[:, w.rows:])


def checked_rows(seed, op, rows, every):
    """The seeded sample of an op's rows whose answers are checked."""
    if every == 1:
        return np.arange(rows)
    rng = np.random.default_rng([seed, op])
    if rows >= every:
        return np.sort(rng.choice(rows, rows // every, replace=False))
    return np.arange(rows) if rng.integers(every) == 0 else np.arange(0)


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------
def build_knn(workload, inputs):
    """A fresh index over ``T`` plus its first warm-up query."""
    knn = SweetKNN.from_index(Index(inputs.targets, seed=0),
                              method=workload.method)
    knn.query(inputs.warm, K)
    return knn


def start_server(workload, inputs, tracer=None):
    """A started server whose store already holds ``T``'s index."""
    server = KNNServer(method=workload.method, degraded_method=None,
                       workers=1, pool="serial", tracer=tracer)
    server.start()
    try:
        server.query(inputs.warm, inputs.targets, K,
                     timeout=RESULT_TIMEOUT_S)
    except BaseException:
        server.stop()
        raise
    return server


def set_up(workload, inputs):
    """Set up :data:`SETUPS` times.

    Returns the last target and each set-up's time at reference host
    speed (scaled by :class:`hostspeed.BulkProbe`) and as wall time.
    The target is a :class:`SweetKNN` or, for serving, a running
    :class:`KNNServer` the caller must stop.
    """
    probe = BulkProbe()
    scaled, walls = [], []
    target = None
    for _ in range(SETUPS):
        if target is not None and workload.kind == "serve":
            target.stop()
        if workload.kind == "serve":
            target, wall, at_reference = probe.time_call(
                lambda: start_server(workload, inputs))
        else:
            target, wall, at_reference = probe.time_call(
                lambda: build_knn(workload, inputs))
        walls.append(wall)
        scaled.append(at_reference)
    return target, scaled, walls


# ----------------------------------------------------------------------
# Measured loops
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """What one measured stretch of ops recorded.

    ``latencies`` are as reported: closed-loop ops at reference host
    speed, open-loop requests as wall time (over half of a request's
    latency is the batcher's flush timer, which host speed does not
    scale).  ``inf`` marks a failed op.
    """

    latencies: list = field(default_factory=list)
    walls: list = field(default_factory=list)     # wall s per op
    factors: list = field(default_factory=list)   # host speed factors
    queries: int = 0        # query rows answered
    failed: int = 0
    first_failure: str = None
    busy_s: float = 0.0     # closed loop: summed op wall; open: window
    scaled_busy_s: float = 0.0  # busy_s at reference speed (closed loop)
    query_s: float = 0.0    # summed wall time of the query calls
    lags: list = field(default_factory=list)    # open loop: s late
    submit_s: float = 0.0   # open loop: summed time inside submit()
    kept: list = field(default_factory=list)    # Answers to check
    funnel: dict = field(default_factory=dict)  # leading ops' counters
    next_op: int = 0

    @property
    def attempted(self):
        return len(self.latencies)

    @property
    def speed(self):
        """Median host speed factor over the phase."""
        return statistics.median(self.factors)

    def fail(self, op, exc):
        self.failed += 1
        self.latencies.append(math.inf)
        self.walls.append(math.inf)
        if self.first_failure is None:
            self.first_failure = "op %d raised %r" % (op, exc)
            traceback.print_exc(file=sys.stderr)


#: JoinStats counters summed into ``Phase.funnel``.
FUNNEL_FIELDS = ("n_queries", "total_pairs", "level1_survivor_pairs",
                 "level2_distance_computations",
                 "center_distance_computations", "examined_points",
                 "heap_updates", "predicate_accepted_pairs")


def _add_funnel(funnel, stats):
    for name in FUNNEL_FIELDS:
        funnel[name] = funnel.get(name, 0) + int(getattr(stats, name))


def run_closed(workload, knn, inputs, seed, first_op, seconds, probe):
    """Closed loop: the next op starts when the previous one returns.

    Runs until the ops took ``seconds`` of wall time in total, and at
    least :data:`FUNNEL_OPS` ops.  The probe runs before every op.  A
    churn op is one cycle: query the batch, ``Index.add`` as many fresh
    points, ``Index.remove`` as many seeded-random live rows.
    """
    w = workload
    phase = Phase()
    index = knn.index
    op = first_op
    while phase.busy_s < seconds or op - first_op < FUNNEL_OPS:
        queries = inputs.queries[op % w.slots]
        rows = checked_rows(seed, op, w.rows, w.check_every)
        live = live_state(index) if w.kind == "churn" and rows.size \
            else None
        probe.measure()
        wall = 0.0
        try:
            start = time.perf_counter()
            result = knn.query(queries, K)
            query_s = time.perf_counter() - start
            wall += query_s
            if w.kind == "churn":
                start = time.perf_counter()
                index.add(inputs.adds[op % w.slots])
                wall += time.perf_counter() - start
                victims = np.random.default_rng([seed, op, 1]).choice(
                    index.active_ids(), w.rows, replace=False)
                start = time.perf_counter()
                index.remove(victims)
                wall += time.perf_counter() - start
        except Exception as exc:  # the loop must go on; counted as failed
            phase.fail(op, exc)
        else:
            phase.walls.append(wall)
            phase.latencies.append(wall * probe.factor())
            phase.query_s += query_s
            phase.queries += w.rows
            if rows.size:
                phase.kept.append(Answers(
                    op=op, queries=queries[rows],
                    distances=result.distances[rows],
                    indices=result.indices[rows], live=live))
            if op - first_op < FUNNEL_OPS:
                _add_funnel(phase.funnel, result.stats)
        phase.factors.append(probe.factor())
        phase.busy_s += wall
        phase.scaled_busy_s += wall * probe.factor()
        op += 1
    phase.next_op = op
    return phase


def _fresh_factor(probe):
    """The speed factor from probes taken now, not around the last op."""
    for _ in range(RECENT):
        probe.measure()
    return probe.factor()


def run_open(workload, server, inputs, seed, first_op, seconds, probe):
    """Open loop: one request every ``1 / rate`` s for ``seconds``.

    The generator is this thread; the server's scheduler thread is the
    only other one.  A request's latency is timed from when it was due:
    (submit return - due) + the server's own queue-to-answer latency.
    The probe runs only before and after the requests, for the phase's
    host speed.
    """
    w = workload
    phase = Phase()
    phase.factors.append(_fresh_factor(probe))
    pending = []
    n_requests = int(seconds * w.rate)
    start = time.perf_counter()
    for j in range(n_requests):
        op = first_op + j
        due = start + j / w.rate
        delay = due - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        sent = time.perf_counter()
        phase.lags.append(sent - due)
        point = inputs.queries[op % w.slots][0]
        try:
            future = server.submit(point, inputs.targets, K)
        except Exception as exc:  # rejected or invalid: a failed request
            phase.fail(op, exc)
            continue
        returned = time.perf_counter()
        phase.submit_s += returned - sent
        pending.append((op, future, point, returned - due))

    finished = start
    for op, future, point, submit_lag in pending:
        try:
            response = future.result(RESULT_TIMEOUT_S)
        except Exception as exc:
            phase.fail(op, exc)
            continue
        latency = submit_lag + response.latency_s
        finished = max(finished, start + (op - first_op) / w.rate + latency)
        phase.latencies.append(latency)
        phase.walls.append(latency)
        phase.query_s += latency
        phase.queries += 1
        if checked_rows(seed, op, 1, w.check_every).size:
            phase.kept.append(Answers(
                op=op, queries=point[np.newaxis, :],
                distances=response.distances[np.newaxis, :],
                indices=response.indices[np.newaxis, :]))
    phase.busy_s = phase.scaled_busy_s = max(finished - start, 1e-9)
    phase.factors.append(_fresh_factor(probe))
    phase.next_op = first_op + n_requests
    return phase


def measure(workload, target, inputs, seed, first_op, seconds, probe):
    """Run the workload's loop on a set-up target."""
    loop = run_open if workload.kind == "serve" else run_closed
    return loop(workload, target, inputs, seed, first_op, seconds, probe)
