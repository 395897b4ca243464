"""Every exact engine returns ``brute``'s answer bit for bit.

One distance form (:func:`repro.core.bounds.pair_distances`) and one
tie order, (distance, index), make "exact" mean equal distances *and*
equal ids, a tie across the k-th place included.  The inputs aim at
ties: 2-D integer grids, duplicate-heavy sets, and the first query
batch of each system-benchmark workload.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.index import Index
from repro.native import cscan, engine

SYSTEM_BENCH = Path(__file__).resolve().parents[1] / "benchmarks" / "system"

#: Every exact top-k engine but the oracle itself; ``sweet`` and
#: ``ti-gpu`` are the simulator's, run at their exact default.
ENGINES = ("ti-flat", "ti-cpu", "kdtree", "cublas", "sweet", "ti-gpu")


def assert_same_answer(result, oracle):
    np.testing.assert_array_equal(result.indices, oracle.indices)
    np.testing.assert_array_equal(result.distances, oracle.distances)


def assert_same_pairs(result, oracle):
    np.testing.assert_array_equal(result.indptr, oracle.indptr)
    np.testing.assert_array_equal(result.indices, oracle.indices)
    np.testing.assert_array_equal(result.distances, oracle.distances)


@pytest.fixture(params=["c", "numpy"])
def flat_tier(request, monkeypatch):
    """The flat tier on its C kernel, then on its numpy kernels."""
    if request.param == "c" and cscan.load() is None:
        pytest.skip("the C kernel cannot be built here")
    if request.param == "numpy":
        monkeypatch.setattr(cscan, "load", lambda: None)
    return request.param


@pytest.fixture(params=[float("inf"), 0.0], ids=["ti-route", "dense-route"])
def crossover(request, monkeypatch):
    monkeypatch.setattr(engine, "DENSE_CROSSOVER", request.param)


def tie_grid(seed):
    """300 targets and 40 queries on a 12 x 12 integer grid: most
    distances tie, and k splits a run of equal ones."""
    rng = np.random.default_rng(seed)
    targets = rng.integers(0, 12, size=(300, 2)).astype(float)
    queries = rng.integers(0, 12, size=(40, 2)).astype(float)
    return queries, targets, 1 + seed % 29


def duplicate_sets():
    rng = np.random.default_rng(7)
    base = rng.normal(size=(12, 5))
    heavy = base[rng.integers(0, 12, size=240)]
    lone = np.vstack([np.tile(base[:1], (60, 1)), base[1:2]])
    return [(heavy[:50], heavy, k) for k in (1, 7, 30, 64)] + [
        (lone, lone, k) for k in (1, 4, 61)]


class TestTieGrids:
    @pytest.mark.parametrize("seed", range(40))
    def test_every_engine_equals_brute(self, seed):
        queries, targets, k = tie_grid(seed)
        oracle = knn_join(queries, targets, k, method="brute")
        for method in ENGINES:
            assert_same_answer(knn_join(queries, targets, k, method=method,
                                        seed=seed), oracle)

    @pytest.mark.parametrize("seed", range(0, 40, 3))
    @pytest.mark.usefixtures("flat_tier", "crossover")
    def test_ti_flat_tiers_and_batches(self, seed):
        queries, targets, k = tie_grid(seed)
        oracle = knn_join(queries, targets, k, method="brute")
        for batch in (None, 7):
            assert_same_answer(knn_join(queries, targets, k,
                                        method="ti-flat", seed=seed,
                                        query_batch_size=batch), oracle)

    @pytest.mark.parametrize("seed", range(0, 40, 5))
    def test_predicate_joins_equal_their_oracles(self, seed):
        queries, targets, _ = tie_grid(seed)
        eps = 1.0 + seed % 4
        assert_same_pairs(
            knn_join(queries, targets, 1, method="range-join", eps=eps,
                     seed=seed),
            knn_join(queries, targets, 1, method="range-join-brute",
                     eps=eps))
        assert_same_pairs(
            knn_join(targets, targets, 1, method="self-join-eps", eps=eps,
                     seed=seed),
            knn_join(targets, targets, 1, method="range-join-brute",
                     eps=eps, skip_self=True))
        k = 1 + seed % 9
        assert_same_pairs(
            knn_join(queries, targets, k, method="rknn", seed=seed),
            knn_join(queries, targets, k, method="rknn-brute"))


class TestDuplicates:
    @pytest.mark.parametrize("case", range(len(duplicate_sets())))
    def test_every_engine_equals_brute(self, case):
        queries, targets, k = duplicate_sets()[case]
        oracle = knn_join(queries, targets, k, method="brute")
        for method in ENGINES:
            assert_same_answer(knn_join(queries, targets, k, method=method,
                                        seed=case), oracle)
        for method in ("ti-flat", "ti-cpu"):
            assert_same_answer(knn_join(queries, targets, k, method=method,
                                        seed=case, mq=4, mt=4), oracle)

    @pytest.mark.usefixtures("flat_tier", "crossover")
    def test_ti_flat_tiers_and_batches(self):
        for queries, targets, k in duplicate_sets():
            oracle = knn_join(queries, targets, k, method="brute")
            for batch in (None, 9):
                assert_same_answer(knn_join(queries, targets, k,
                                            method="ti-flat",
                                            query_batch_size=batch),
                                   oracle)


class TestWorkloadInputs:
    """The first query batch of each system-benchmark workload, on a
    fresh index as the benchmark builds it and on a one-shot join."""

    @pytest.fixture(scope="class")
    def workloads(self):
        sys.path.insert(0, str(SYSTEM_BENCH))
        try:
            from workloads import K, WORKLOADS, make_inputs
        finally:
            sys.path.remove(str(SYSTEM_BENCH))
        return K, WORKLOADS, make_inputs

    @pytest.mark.parametrize("name", ["batch-clustered", "batch-highdim",
                                      "serve-clustered", "churn-clustered"])
    def test_every_engine_equals_brute(self, workloads, name):
        k, table, make_inputs = workloads
        inputs = make_inputs(table[name], 3)
        queries, targets = inputs.queries[0], inputs.targets
        oracle = knn_join(queries, targets, k, method="brute")
        for method in ENGINES:
            assert_same_answer(knn_join(queries, targets, k, method=method,
                                        seed=0), oracle)
        for method in ("ti-flat", "ti-cpu"):
            knn = SweetKNN.from_index(Index(targets, seed=0), method=method)
            assert_same_answer(knn.query(queries, k), oracle)

    @pytest.mark.usefixtures("flat_tier")
    def test_ti_flat_tiers_and_batches(self, workloads):
        k, table, make_inputs = workloads
        inputs = make_inputs(table["batch-highdim"], 3)
        queries, targets = inputs.queries[0], inputs.targets
        oracle = knn_join(queries, targets, k, method="brute")
        for batch in (None, 5):
            assert_same_answer(knn_join(queries, targets, k,
                                        method="ti-flat",
                                        query_batch_size=batch), oracle)


def banded_sets():
    """Clusters along one line, on a quarter grid: the triangle
    inequality is tight (exact ties between a bound and a distance), and
    so are many distances.  Then the same set shifted by 1e6 and scaled
    by 1e-150: the GEMM form of the centre distances is far off its
    direct form relative to the distances (shifted), or relative to
    everything but the slack's absolute term (scaled)."""
    from repro.datasets import synthetic

    rng = np.random.default_rng(11)
    line = synthetic.gaussian_mixture(560, 1, rng, n_clusters=8,
                                      separation=6.0)
    # Quarter-grid positions times a 1/64-grid direction: every
    # coordinate, and every difference, is exact even after the shift,
    # but the squared norms of the shifted points are not.
    direction = np.array([129.0, 67, 133, 263, 137, 75]) / 64.0
    points = np.round(line * 4.0) / 4.0 * direction
    targets, queries = points[:500], np.vstack([points[500:], points[:20]])
    return {"plain": (queries, targets),
            "shifted": (queries + 1e6, targets + 1e6),
            "scaled": (queries * 1e-150, targets * 1e-150)}


class TestGemmBand:
    """Index-backed joins read GEMM-form centre distances, recomputed
    in the direct form or widened where the forward-error bound says
    they could mislead a bound test."""

    @pytest.mark.parametrize("name", ["plain", "shifted", "scaled"])
    @pytest.mark.usefixtures("flat_tier", "crossover")
    def test_ti_flat_equals_brute(self, name):
        queries, targets = banded_sets()[name]
        knn = SweetKNN.from_index(Index(targets, seed=0), method="ti-flat")
        for k in (1, 9):
            oracle = knn_join(queries, targets, k, method="brute")
            assert_same_answer(knn.query(queries, k), oracle)
            assert_same_answer(knn.query(queries[3:4], k),
                               knn_join(queries[3:4], targets, k,
                                        method="brute"))

    @pytest.mark.parametrize("name", ["plain", "shifted", "scaled"])
    def test_ti_cpu_equals_brute(self, name):
        queries, targets = banded_sets()[name]
        knn = SweetKNN.from_index(Index(targets, seed=0), method="ti-cpu")
        for k in (1, 9):
            assert_same_answer(knn.query(queries, k),
                               knn_join(queries, targets, k, method="brute"))

    def test_the_band_is_exercised(self):
        sets = banded_sets()
        plans = {name: Index(targets, seed=0).join_plan(queries)
                 for name, (queries, targets) in sets.items()}
        for plan in plans.values():
            assert plan.center_band > 0          # level 1 widens
        shifted = plans["shifted"]
        # Every shifted row entry is too far off to be read as it is.
        assert shifted.recomputed == shifted.query_rows.size
        assert plans["plain"].recomputed < plans["plain"].query_rows.size
