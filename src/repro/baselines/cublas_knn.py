"""The CUBLAS-style brute-force GPU baseline (Garcia et al. [13], [15]).

This is the paper's comparison baseline (Section V-A): a two-stage GPU
scheme —

1. a CUBLAS matrix-multiplication kernel computes **all** |Q| x |T|
   distances and stores them in global memory;
2. a second kernel, one thread per query, selects the k smallest.

If the distance matrix does not fit in device memory, the query set is
partitioned into groups processed one by one (e.g. 175 groups for
3DNet on the K20c), which the paper identifies as the baseline's main
weakness on the large datasets: low per-group occupancy and tremendous
memory traffic.

On the simulator the GEMM stage is accounted analytically (it is
perfectly regular by construction — that is the whole point of the
baseline) with CUBLAS-grade FMA throughput, full coalescing, and every
distance stored to and re-read from global memory.  The selection
stage is executed warp-vectorised per query thread with a bounded
max-heap, whose data-dependent update pattern gives it realistic (not
perfect) regularity.  Numeric results come from
:func:`~repro.core.bounds.nearest_columns`: exact, and ``brute``'s
(distance, index) order on ties.
"""

from __future__ import annotations

import numpy as np

from ..engine.base import EngineCaps, EngineSpec
from ..engine.planner import dense_partition_rows, partition_ranges
from ..errors import OutOfDeviceMemory
from ..gpu.costmodel import default_cost_model
from ..gpu.device import tesla_k20c
from ..gpu.executor import WarpExecutor
from ..gpu.kernel import DEFAULT_BLOCK_SIZE, LaunchConfig, makespan
from ..gpu.memory import GlobalMemory
from ..gpu.profiler import KernelProfile, PipelineProfile
from ..core.bounds import nearest_columns
from ..core.result import JoinStats, KNNResult

__all__ = ["cublas_knn", "plan_partitions", "ENGINE"]

_FLOAT = 4  # device floats are 32-bit


def plan_partitions(n_queries, n_targets, dim, device):
    """Split the query set so each group's working set fits in memory.

    The row budget lives in the shared planner layer
    (:func:`repro.engine.planner.dense_partition_rows`); this wrapper
    keeps the baseline's historical ``(start, stop)``-ranges interface.
    """
    rows = dense_partition_rows(n_queries, n_targets, dim, device)
    return partition_ranges(n_queries, rows)


def cublas_knn(queries, targets, k, device=None, cost_model=None):
    """Run the baseline KNN join on the simulated device.

    Returns a :class:`KNNResult` whose ``profile`` carries the
    simulated time used as the denominator of every speedup figure.
    """
    queries = np.asarray(queries, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    k = int(k)
    if k <= 0:
        raise ValueError("k must be positive")
    if k > len(targets):
        raise ValueError("k cannot exceed the number of target points")
    device = device or tesla_k20c()
    cost_model = cost_model or default_cost_model()

    n_q, dim = queries.shape
    n_t = targets.shape[0]
    partitions = plan_partitions(n_q, n_t, dim, device)

    pipeline = PipelineProfile(name="cublas-knn")
    gemm_profile = KernelProfile(name="gemm_distances")
    select_profile = KernelProfile(name="select_k")

    distances = np.empty((n_q, k), dtype=np.float64)
    indices = np.empty((n_q, k), dtype=np.int64)

    config = LaunchConfig(block_size=DEFAULT_BLOCK_SIZE, regs_per_thread=32)
    for start, stop in partitions:
        group = queries[start:stop]
        _check_capacity(group.shape[0], n_t, dim, device)
        # The exact numeric result: the GEMM shortlist, re-ranked in the
        # direct form and ordered by (distance, index), as ``brute``.
        distances[start:stop], indices[start:stop] = nearest_columns(
            group, targets, k)

        # Each partition is a separate, *serialised* pair of launches:
        # group i's selection must finish before group i+1's GEMM can
        # reuse the distance-matrix buffer.  Small groups underutilise
        # the device — the low per-group occupancy the paper blames for
        # the baseline's collapse on the partitioned datasets.
        gemm_mark, select_mark = (len(gemm_profile.warp_cycles),
                                  len(select_profile.warp_cycles))
        _account_gemm(gemm_profile, group.shape[0], n_t, dim, device,
                      cost_model)
        _run_select_kernel(select_profile, group.shape[0], n_t, k, device,
                           cost_model)
        for profile, mark in ((gemm_profile, gemm_mark),
                              (select_profile, select_mark)):
            span = makespan(profile.warp_cycles[mark:],
                            config.concurrent_warps(device))
            profile.sim_time_s += ((span + cost_model.kernel_launch_cycles)
                                   / device.clock_hz)

    pipeline.add(gemm_profile)
    pipeline.add(select_profile)

    stats = JoinStats(
        n_queries=n_q, n_targets=n_t, k=k, dim=dim,
        level2_distance_computations=n_q * n_t,
        predicate_accepted_pairs=n_q * k,
        extra={"partitions": len(partitions)},
    )
    return KNNResult(distances=distances, indices=indices, stats=stats,
                     profile=pipeline, method="cublas-gpu")


# ----------------------------------------------------------------------
# Engine registration (see repro.engine)
# ----------------------------------------------------------------------
def _run_engine(queries, targets, k, ctx, **options):
    return cublas_knn(queries, targets, k, device=ctx.device, **options)


ENGINE = EngineSpec(
    name="cublas",
    run=_run_engine,
    caps=EngineCaps(needs_device=True, tiles_internally=True),
    description="CUBLAS-style brute-force GPU baseline (Garcia et al.)",
)


def _check_capacity(group_size, n_t, dim, device):
    """Allocate the group's working set to enforce the memory budget."""
    memory = GlobalMemory(device)
    memory.place(np.empty(0, dtype=np.float32), copy=False)
    needed = (group_size * n_t + (group_size + n_t) * dim) * _FLOAT
    if needed > memory.available_bytes:
        raise OutOfDeviceMemory(needed, memory.available_bytes,
                                memory.capacity)


def _account_gemm(profile, n_q, n_t, dim, device, cost_model):
    """Account the perfectly regular distance-matrix kernel.

    One thread per (query, target) pair tile; per pair: ``dim`` MACs at
    GEMM throughput, streaming loads of both operands (fully coalesced,
    amortised by tiling: each operand element is loaded once per
    32-wide tile) and one store of the resulting distance.
    """
    pairs = n_q * n_t
    n_threads = pairs
    warp = device.warp_size
    n_warps = (pairs + warp - 1) // warp

    # Fully regular: every lane active every step.
    flops_per_pair = 2 * dim + 2  # MAC per dim + norm add + sqrt
    # Coalesced traffic per warp: one 128-byte store per warp-step of
    # results, plus tiled operand loads (dim floats per 32-lane tile).
    stores_per_warp = (warp * _FLOAT) // device.transaction_bytes
    loads_per_warp = max(1, (dim * _FLOAT) // device.transaction_bytes + 1)

    model = cost_model
    per_warp_cycles = (
        model.issue_cycles * dim
        + model.gemm_flop_cycles * flops_per_pair
        + model.global_txn_cycles * (stores_per_warp + loads_per_warp)
    )

    profile.n_threads += n_threads
    profile.n_warps += n_warps
    profile.warp_steps += n_warps * dim
    profile.lane_steps += n_threads * dim
    profile.flops += pairs * flops_per_pair
    profile.gl_transactions += n_warps * (stores_per_warp + loads_per_warp)
    profile.gl_requests += n_threads
    profile.warp_cycles.extend([per_warp_cycles] * n_warps)
    profile.cycles += per_warp_cycles * n_warps
    profile.count("distance_computations", pairs)
    profile.count("distance_matrix_bytes", pairs * _FLOAT)


def _run_select_kernel(profile, n_rows, n_t, k, device, cost_model):
    """Selection kernel: one thread per query scans its distance row.

    Each lane streams its own row from global memory (row-major rows of
    the distance matrix: lanes of a warp read addresses |T| floats
    apart — uncoalesced, as in the real baseline's layout) and
    maintains a k-bounded max-heap.  Heap update frequency is
    data-dependent, so warps diverge mildly; the dominant cost is the
    memory traffic of re-reading the full matrix.
    """
    warp = device.warp_size
    txn = device.transaction_bytes

    # Accounting: each lane streams its own |T|-long row (rows are |T|
    # floats apart, so lanes never share a segment, but each lane's
    # sequential reads amortise to one transaction per 32 floats) and
    # maintains Garcia's insertion-sorted k-array
    # (:mod:`repro.kselect.insertion`): one comparison per element plus
    # the amortised shift cost — a random stream inserts about
    # ``k * ln(|T|/k)`` times at ~k/2 shifts each.
    expected_inserts = k * np.log(max(2.0, n_t / k))
    shift_flops = expected_inserts * (k / 2.0) / n_t
    for first in range(0, n_rows, warp):
        lanes = min(warp, n_rows - first)
        ex = WarpExecutor(profile, cost_model, txn, warp)
        ex.uniform_steps(
            n_t, lanes,
            flops_max=1.0 + shift_flops,  # compare + amortised shifts
            transactions_per_step=lanes / 32.0,  # per-lane streaming
            branch=True,
        )
        ex.end_warp()
    profile.n_threads += n_rows
