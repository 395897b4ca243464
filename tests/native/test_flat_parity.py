"""Flat tier parity: bit-identical to the sequential reference.

The exactness contract of :mod:`repro.native`: the ``ti-flat`` engine
must return the same neighbour indices, the same distances to the last
bit, and the same filtering funnel counters as the sequential
reference engine ``ti-cpu`` — at every worker count, over every pool
flavour, and through an mmap-loaded index and the serving path.

Every class runs over both level-2 backends: as written it uses the
backend the loader picks (the C kernel wherever ``cc`` builds it), and
its ``...Numpy`` subclass forces the numpy kernels by patching the
loader.

The counter parity cases pin the dense level-2 route off
(``pin_ti_route``): a dense query ranks every member of its candidate
clusters, so its counters are not ``ti-cpu``'s.  ``TestDenseRoute``
covers that route: forced on for every query (``force_dense``), its
distances are the TI route's and its ids brute force's.
``TestMixedRoutes`` covers calls that use both routes.
"""

import numpy as np
import pytest

from repro import SweetKNN, knn_join
from repro.core.filters import (SCAN_COUNTERS, center_distance_rows,
                                point_filter_full)
from repro.core.predicates import TopKPredicate
from repro.core.ti_knn import prepare_clusters
from repro.index import Index
from repro.datasets import synthetic
from repro.native import cscan, engine, scan_numpy
from repro.native.layout import flat_targets
from repro.obs.funnel import check_funnel, funnel_from_stats
from repro.parallel import shutdown_pools

#: (contender, reference options).
PAIRS = [("ti-flat", {})]

COUNTERS = ("level2_distance_computations", "center_distance_computations",
            "examined_points", "candidate_cluster_pairs",
            "level1_survivor_pairs", "heap_updates",
            "predicate_accepted_pairs")


def loaded_tier():
    """The tier the loader picks on this host."""
    return "c-flat" if cscan.load() is not None else "numpy-flat"


class NumpyBackend:
    """Mixin: run the inherited tests over the numpy kernels."""

    @pytest.fixture(autouse=True)
    def _numpy_backend(self, monkeypatch):
        monkeypatch.setattr(cscan, "load", lambda: None)
        # Shared process pools fork on first use: drop them on both
        # sides so their workers see the same loader as this test.
        shutdown_pools()
        yield
        shutdown_pools()


@pytest.fixture
def pin_ti_route(monkeypatch):
    """Every query on the TI kernels: the dense route's crossover out of
    reach."""
    monkeypatch.setattr(engine, "DENSE_CROSSOVER", float("inf"))
    # Shared process pools fork on first use: drop them on both sides
    # so their workers see the same crossover as this test.
    shutdown_pools()
    yield
    shutdown_pools()


@pytest.fixture
def force_dense(monkeypatch):
    """Every query the pick can route dense goes dense (crossover 0)."""
    monkeypatch.setattr(engine, "DENSE_CROSSOVER", 0.0)
    shutdown_pools()
    yield
    shutdown_pools()


def rounded_mixture(seed, n):
    """A tie-heavy set: a Gaussian mixture rounded to integers.

    Rounding yields exact duplicate rows and tied distances, and
    duplicate landmarks leave some target clusters empty.
    """
    rng = np.random.default_rng(seed)
    centres = rng.normal(scale=4.0, size=(6, 3))
    labels = rng.integers(0, len(centres), size=n)
    return np.round(centres[labels] + rng.normal(size=(n, 3)))


def _serial_case(case, clustered_points, rng):
    """``(queries, targets, k)`` of one serial parity input."""
    if case == "blobs":
        return (rng.normal(size=(60, clustered_points.shape[1])),
                clustered_points, 7)
    if case == "rounded-ties":
        targets = rounded_mixture(21, 400)
        return np.concatenate([targets[:40], rounded_mixture(22, 40)]), \
            targets, 7
    # k = |T|: every target is a neighbour, so no cluster can break.
    targets = rng.normal(size=(9, 4))
    return rng.normal(size=(6, 4)), targets, len(targets)


def _assert_identical(result, reference):
    assert np.array_equal(result.indices, reference.indices)
    assert np.array_equal(result.distances, reference.distances)
    for name in COUNTERS:
        assert getattr(result.stats, name) == \
            getattr(reference.stats, name), name
    assert funnel_from_stats(result.stats) == \
        funnel_from_stats(reference.stats)


@pytest.mark.usefixtures("pin_ti_route")
class TestSerialParity:
    @pytest.mark.parametrize("case", ["blobs", "rounded-ties", "k-all"])
    @pytest.mark.parametrize("method,ref_options", PAIRS)
    def test_bit_identical_to_reference(self, clustered_points, rng,
                                        method, ref_options, case):
        queries, targets, k = _serial_case(case, clustered_points, rng)
        reference = knn_join(queries, targets, k, method="ti-cpu",
                             seed=5, **ref_options)
        result = knn_join(queries, targets, k, method=method, seed=5)
        _assert_identical(result, reference)

    @pytest.mark.parametrize("method,ref_options", PAIRS)
    def test_self_join(self, clustered_points, method, ref_options):
        reference = knn_join(clustered_points, clustered_points, 5,
                             method="ti-cpu", seed=2, **ref_options)
        result = knn_join(clustered_points, clustered_points, 5,
                          method=method, seed=2)
        _assert_identical(result, reference)

    @pytest.mark.parametrize("method,ref_options", PAIRS)
    def test_uniform_points(self, uniform_points, method, ref_options):
        # Weak cluster structure: the filter prunes little, the scan walks
        # almost everything — the opposite regime of the blob fixture.
        reference = knn_join(uniform_points, uniform_points, 9,
                             method="ti-cpu", seed=4, **ref_options)
        result = knn_join(uniform_points, uniform_points, 9,
                          method=method, seed=4)
        _assert_identical(result, reference)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_k_edge_cases(self, clustered_points, method):
        for k in (1, len(clustered_points)):
            reference = knn_join(
                clustered_points, clustered_points, k, method="ti-cpu",
                seed=1, **dict(PAIRS)[method])
            result = knn_join(clustered_points, clustered_points, k,
                              method=method, seed=1)
            assert np.array_equal(result.indices, reference.indices)
            assert np.array_equal(result.distances, reference.distances)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_deterministic_across_runs(self, clustered_points, method):
        a = knn_join(clustered_points, clustered_points, 6, method=method,
                     seed=9)
        b = knn_join(clustered_points, clustered_points, 6, method=method,
                     seed=9)
        _assert_identical(a, b)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_reports_kernel_tier(self, clustered_points, method):
        result = knn_join(clustered_points, clustered_points, 4,
                          method=method)
        assert result.stats.extra["kernel_tier"] == loaded_tier()


class TestSerialParityNumpy(NumpyBackend, TestSerialParity):
    pass


def _assert_kernels_match(ct, queries, members, rows, cand, ub, k):
    """The flat scan, called once for the query block ``members``,
    returns the reference's arrays, padded, and its whole ``ScanTrace``
    per query in its counter block (``steps`` and ``breaks`` included,
    which ``JoinStats`` does not aggregate); returns the breaks."""
    _, backend = engine.flat_backend(flat_targets(ct))
    dists, idx, counters, dense = engine.scan_query_full(
        backend, queries[members], rows, cand, ub, k)
    assert dense is None
    assert dists.shape == idx.shape == (len(members), k)
    assert counters.shape == (len(members), len(SCAN_COUNTERS))
    for local, q in enumerate(members):
        heap, ref_trace = point_filter_full(
            queries[q], q, ct, cand, ub, k, center_dists_row=rows[local])
        ref_d, ref_i = heap.sorted_items()
        n = ref_d.size
        assert np.array_equal(dists[local, :n], ref_d)
        assert np.array_equal(idx[local, :n], ref_i)
        assert np.isinf(dists[local, n:]).all()
        assert (idx[local, n:] == -1).all()
        assert dict(zip(SCAN_COUNTERS, counters[local].tolist())) == \
            vars(ref_trace)
    return int(counters[:, SCAN_COUNTERS.index("breaks")].sum())


def _assert_plan_matches(queries, targets, k, plan_seed):
    """:func:`_assert_kernels_match` for every query cluster of one
    plan, with the driver's level-1 candidates and bounds; returns the
    breaks."""
    plan = prepare_clusters(queries, targets,
                            np.random.default_rng(plan_seed))
    state = plan.level1_for(TopKPredicate(k))
    ct = plan.target_clusters
    cq = plan.query_clusters
    breaks = 0
    for qc in range(cq.n_clusters):
        members = cq.members[qc]
        cand = state.candidates[qc]
        rows = center_distance_rows(queries[members], ct, cand)
        breaks += _assert_kernels_match(ct, queries, members, rows, cand,
                                        state.bounds[qc], k)
    return breaks


class TestKernelTraceParity:
    def test_scans_match_reference_per_query(self):
        rng = np.random.default_rng(31)
        centres = rng.normal(scale=8.0, size=(12, 6))
        targets = centres[rng.integers(0, 12, size=600)] + \
            rng.normal(size=(600, 6))
        queries = centres[rng.integers(0, 12, size=80)] + \
            rng.normal(size=(80, 6))
        # The plan prunes: clusters rejected at their first member occur.
        assert _assert_plan_matches(queries, targets, 5, plan_seed=3) > 0

    def test_near_tie_bounds_on_decimal_grids(self):
        # On a 1-D grid of decimal multiples, ``d(q, c) - d(t, c)`` and
        # θ are often the same real number rounded along different
        # paths, so the comparison slack decides the head test.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            for scale in (0.1, 0.7):
                targets = rng.integers(0, 30, size=(60, 1)) * scale
                queries = rng.integers(0, 30, size=(20, 1)) * scale
                _assert_plan_matches(queries, targets, 3, plan_seed=0)

    def test_empty_clusters_and_unbounded_theta(self):
        # Level 1 never passes an empty cluster, and through the driver
        # the bound stays finite even at k = |T|; the kernels must
        # still agree when handed every cluster and an infinite bound.
        targets = rounded_mixture(21, 400)
        queries = rounded_mixture(22, 30)
        k = 4
        plan = prepare_clusters(queries, targets, np.random.default_rng(0))
        ct = plan.target_clusters
        assert (flat_targets(ct).sizes() == 0).any()
        every = np.arange(ct.n_clusters)
        rows = center_distance_rows(queries, ct, every)
        ubs = plan.level1_for(TopKPredicate(k)).bounds
        for qc in range(plan.query_clusters.n_clusters):
            for q in plan.query_clusters.members[qc]:
                cand = every[np.argsort(rows[q], kind="stable")]
                for ub in (ubs[qc], np.inf):
                    _assert_kernels_match(ct, queries, [q], rows[q:q + 1],
                                          cand, ub, k)


class TestKernelTraceParityNumpy(NumpyBackend, TestKernelTraceParity):
    pass


@pytest.mark.usefixtures("pin_ti_route")
class TestShardedParity:
    @pytest.mark.parametrize("method,ref_options", PAIRS)
    @pytest.mark.parametrize("workers,pool", [
        (1, None), (2, "thread"), (2, "process"), (4, "thread"),
        (4, "process")])
    def test_pools_match_serial_reference(self, clustered_points, rng,
                                          method, ref_options, workers,
                                          pool):
        queries = rng.normal(size=(50, clustered_points.shape[1]))
        reference = knn_join(queries, clustered_points, 6, method="ti-cpu",
                             seed=3, **ref_options)
        kwargs = {} if workers == 1 else {"workers": workers, "pool": pool}
        result = knn_join(queries, clustered_points, 6, method=method,
                          seed=3, **kwargs)
        _assert_identical(result, reference)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_kernel_tier_survives_shard_merge(self, clustered_points,
                                              method):
        result = knn_join(clustered_points, clustered_points, 4,
                          method=method, workers=2, pool="thread")
        assert result.stats.extra["kernel_tier"] == loaded_tier()

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_kernel_tier_of_process_workers(self, clustered_points, method):
        result = knn_join(clustered_points, clustered_points, 4,
                          method=method, workers=2, pool="process")
        assert result.stats.extra["kernel_tier"] == loaded_tier()


class TestShardedParityNumpy(NumpyBackend, TestShardedParity):
    pass


#: ``JoinStats.summary()`` keys of the work counters (the rest of the
#: summary carries engine-specific ``extra`` entries).
SUMMARY_COUNTERS = ("level2_distances", "candidate_cluster_pairs",
                    "level1_survivor_pairs", "examined_points",
                    "predicate_accepted_pairs")


@pytest.mark.usefixtures("pin_ti_route")
class TestRoundTrips:
    @pytest.mark.parametrize("method,ref_options", PAIRS)
    def test_mmap_index_round_trip(self, tmp_path, clustered_points, rng,
                                   method, ref_options):
        path = str(tmp_path / "idx")
        Index(clustered_points, seed=3).save(path)
        queries = rng.normal(size=(40, clustered_points.shape[1]))
        fresh = SweetKNN.from_index(Index(clustered_points, seed=3),
                                    method=method)
        loaded = SweetKNN.from_index(Index.load(path, mmap=True),
                                     method=method)
        reference = SweetKNN.from_index(Index(clustered_points, seed=3),
                                        method="ti-cpu")
        expected = reference.query(queries, 6, **ref_options)
        _assert_identical(loaded.query(queries, 6), expected)
        _assert_identical(fresh.query(queries, 6), expected)

    @pytest.mark.parametrize("method,ref_options", PAIRS)
    def test_serve_path_round_trip(self, clustered_points, rng, method,
                                   ref_options):
        from repro.serve import KNNServer

        queries = rng.normal(size=(20, clustered_points.shape[1]))
        responses = {}
        # explain keeps each request in its own tile, so its audit holds
        # exactly that request's counters.
        for engine, options in ((method, {}), ("ti-cpu", ref_options)):
            with KNNServer(method=engine, seed=0) as server:
                responses[engine] = server.query(
                    queries, clustered_points, 5, explain=True, **options)
        result, reference = responses[method], responses["ti-cpu"]
        assert result.engine == method
        assert np.array_equal(result.indices, reference.indices)
        assert np.array_equal(result.distances, reference.distances)
        for name in SUMMARY_COUNTERS:
            assert result.audit.counters[name] == \
                reference.audit.counters[name], name
        assert result.audit.funnel == reference.audit.funnel
        brute = knn_join(queries, clustered_points, 5, method="brute")
        assert np.array_equal(result.indices, brute.indices)


class TestRoundTripsNumpy(NumpyBackend, TestRoundTrips):
    pass


def weak_points(seed, n, dim):
    """Weakly clustered points: level 2 prunes almost nothing."""
    return synthetic.high_dim_weakly_clustered(
        n, dim, np.random.default_rng(seed), intrinsic_dim=min(dim, 16))


def _assert_same_answers(result, reference):
    assert np.array_equal(result.indices, reference.indices)
    assert np.array_equal(result.distances, reference.distances)


def _ti_and_dense(monkeypatch, queries, targets, k, method, **options):
    """The same join on the TI route and on the dense route."""
    runs = []
    for crossover in (float("inf"), 0.0):
        monkeypatch.setattr(engine, "DENSE_CROSSOVER", crossover)
        runs.append(knn_join(queries, targets, k, method=method, seed=3,
                             **options))
    return runs


class TestDenseRoute:
    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_default_crossover_routes_unprunable_queries(self, method):
        points = weak_points(1, 700, 128)
        queries, targets = points[:100], points[100:]
        result = knn_join(queries, targets, 10, method=method, seed=3)
        assert result.stats.extra["dense_rows"] == len(queries)
        assert result.stats.extra["dense_reranked"] >= 10 * len(queries)
        brute = knn_join(queries, targets, 10, method="brute")
        assert np.array_equal(result.indices, brute.indices)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_default_crossover_keeps_pruned_queries_on_ti(
            self, clustered_points, method):
        result = knn_join(clustered_points, clustered_points, 5,
                          method=method, seed=3)
        assert result.stats.extra["dense_rows"] == 0

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_distances_equal_the_ti_route_ids_equal_brute(
            self, monkeypatch, method):
        points = weak_points(2, 500, 64)
        queries, targets = points[:80], points[80:]
        ti, dense = _ti_and_dense(monkeypatch, queries, targets, 7, method)
        assert ti.stats.extra["dense_rows"] == 0
        assert dense.stats.extra["dense_rows"] == len(queries)
        _assert_same_answers(dense, ti)
        brute = knn_join(queries, targets, 7, method="brute")
        assert np.array_equal(dense.indices, brute.indices)

    @pytest.mark.usefixtures("force_dense")
    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_ties_at_the_kth_place_follow_distance_then_index(self, method):
        # Integer grids: exact, tied distances in every row, and the
        # same bits in every distance form.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            dim = int(rng.integers(1, 4))
            targets = rng.integers(0, 6, size=(80, dim)).astype(float)
            queries = rng.integers(0, 6, size=(12, dim)).astype(float)
            k = int(rng.integers(1, 30))
            result = knn_join(queries, targets, k, method=method, seed=seed)
            assert result.stats.extra["dense_rows"] == len(queries)
            _assert_same_answers(
                result, knn_join(queries, targets, k, method="brute"))

    @pytest.mark.usefixtures("force_dense")
    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_counters_rank_every_candidate_member(self, method):
        points = weak_points(3, 400, 32)
        result = knn_join(points[:60], points[60:], 6, method=method, seed=1)
        stats = result.stats
        assert stats.extra["dense_rows"] == 60
        assert stats.level2_distance_computations == \
            stats.level1_survivor_pairs == stats.examined_points
        assert stats.predicate_accepted_pairs == 60 * 6
        assert check_funnel(funnel_from_stats(stats)) == []

    @pytest.mark.usefixtures("force_dense")
    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_batched_pooled_and_mmap_runs_equal_serial(self, tmp_path,
                                                       method):
        points = weak_points(4, 600, 48)
        queries, targets = points[:90], points[90:]
        serial = knn_join(queries, targets, 8, method=method, seed=2)
        assert serial.stats.extra["dense_rows"] == len(queries)
        for options in ({"query_batch_size": 13},
                        {"workers": 2, "pool": "process"},
                        {"workers": 2, "pool": "thread"}):
            run = knn_join(queries, targets, 8, method=method, seed=2,
                           **options)
            _assert_same_answers(run, serial)
            assert run.stats.extra["dense_rows"] == len(queries), options
        path = str(tmp_path / "idx")
        Index(targets, seed=5).save(path)
        fresh = SweetKNN.from_index(Index(targets, seed=5), method=method)
        loaded = SweetKNN.from_index(Index.load(path, mmap=True),
                                     method=method)
        _assert_same_answers(loaded.query(queries, 8),
                             fresh.query(queries, 8))
        _assert_same_answers(fresh.query(queries, 8), serial)

    @pytest.mark.usefixtures("force_dense")
    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    def test_tombstoned_index_never_returns_removed_rows(self, monkeypatch,
                                                         method):
        points = weak_points(5, 500, 24)
        queries, targets = points[:50], points[50:]
        index = Index(targets, seed=0)
        removed = np.random.default_rng(0).choice(len(targets), 40,
                                                  replace=False)
        # Queries on top of removed rows: their own row would win.
        queries[:10] = targets[removed[:10]]
        index.remove(removed)
        assert index.n_tombstones == len(removed)
        knn = SweetKNN.from_index(index, method=method)
        result = knn.query(queries, 6)
        assert result.stats.extra["dense_rows"] == len(queries)
        assert not np.isin(result.indices, removed).any()
        live = index.active_ids()
        brute = knn_join(queries, targets[live], 6, method="brute")
        assert np.array_equal(result.indices, live[brute.indices])
        monkeypatch.setattr(engine, "DENSE_CROSSOVER", float("inf"))
        ti = knn.query(queries, 6)
        assert ti.stats.extra["dense_rows"] == 0
        _assert_same_answers(result, ti)

    @pytest.mark.parametrize("method", [m for m, _ in PAIRS])
    @pytest.mark.parametrize("case", ["k-all", "d-1", "d-far-above-n",
                                      "wide-magnitudes", "empty-clusters"])
    def test_edge_shapes(self, monkeypatch, method, case):
        rng = np.random.default_rng(8)
        if case == "k-all":
            targets = weak_points(6, 40, 16)
            queries, k = rng.normal(size=(9, 16)), len(targets)
        elif case == "d-1":
            targets, queries, k = rng.normal(size=(300, 1)), \
                rng.normal(size=(30, 1)), 5
        elif case == "d-far-above-n":
            targets, queries, k = rng.normal(size=(30, 1500)), \
                rng.normal(size=(8, 1500)), 4
        elif case == "wide-magnitudes":
            # Bands of points at scales 1e-150 .. 1e150, each band a
            # cloud off the origin, so no two distances tie.
            scale = 10.0 ** np.repeat([-150, -75, 0, 75, 150], 52)[:, None]
            points = (rng.normal(size=(260, 5)) + 4.0) * scale
            rng.shuffle(points)
            targets, queries, k = points[:200], points[200:], 6
        else:
            targets = rounded_mixture(21, 400)
            queries, k = rounded_mixture(22, 40), 4
        ti, dense = _ti_and_dense(monkeypatch, queries, targets, k, method)
        assert dense.stats.extra["dense_rows"] == len(queries)
        brute = knn_join(queries, targets, k, method="brute")
        assert np.array_equal(dense.indices, brute.indices)
        if case == "empty-clusters":
            # Integer distances: every form gives the same bits.
            assert np.array_equal(dense.distances, brute.distances)
        else:
            assert np.array_equal(dense.distances, ti.distances)
            assert np.array_equal(ti.indices, brute.indices)


class TestDenseRouteNumpy(NumpyBackend, TestDenseRoute):
    pass


#: A crossover at which some queries of one query cluster go dense and
#: the others stay on the TI route, on :func:`mixed_points`.
MIXED_CROSSOVER = 0.4


def mixed_points():
    """Overlapping clusters: the TI scan of some queries would enter
    most of the set, of others only a few clusters."""
    points = synthetic.gaussian_mixture(500, 8, np.random.default_rng(2),
                                        n_clusters=8, separation=3.0)
    return points[:80], points[80:]


def _routed_run(monkeypatch, crossover, queries, targets, k, **options):
    """``(result, counter row per query id, dense query ids, dense
    masks of the kernel calls)`` of one ``ti-flat`` join."""
    counters, dense_ids, masks = {}, set(), []
    scan, entry = engine.FlatScan.scan, engine.scan_query_full

    def spy_scan(self, join, work):
        for local, values, block in scan(self, join, work):
            for q, row in zip(join.active[local].tolist(), block.tolist()):
                if q in counters:
                    dense_ids.add(q)   # a dense block rewrites the row
                counters[q] = row
            yield local, values, block

    def spy_entry(backend, *args):
        out = entry(backend, *args)
        masks.append(out[3])
        return out

    monkeypatch.setattr(engine, "DENSE_CROSSOVER", crossover)
    monkeypatch.setattr(engine.FlatScan, "scan", spy_scan)
    monkeypatch.setattr(engine, "scan_query_full", spy_entry)
    try:
        result = knn_join(queries, targets, k, method="ti-flat", seed=3,
                          **options)
    finally:
        monkeypatch.setattr(engine.FlatScan, "scan", scan)
        monkeypatch.setattr(engine, "scan_query_full", entry)
    return result, counters, dense_ids, masks


#: JoinStats counters summed from the scan's counter block.
BLOCK_COUNTERS = {"level2_distance_computations": "distance_computations",
                  "center_distance_computations":
                      "center_distance_computations",
                  "examined_points": "examined",
                  "heap_updates": "heap_updates",
                  "predicate_accepted_pairs": "accepted"}


class TestMixedRoutes:
    """One call on both routes: answers equal the all-TI run's; each
    query's counters are the all-TI run's on the TI route and the
    all-dense run's on the dense route, and the join's counters are
    their sums."""

    @pytest.mark.parametrize("options", [{}, {"query_batch_size": 13}],
                             ids=["serial", "batched"])
    def test_both_routes_in_one_query_cluster(self, monkeypatch, options):
        queries, targets = mixed_points()
        k = 6
        mixed, rows, dense_ids, masks = _routed_run(
            monkeypatch, MIXED_CROSSOVER, queries, targets, k, **options)
        ti, ti_rows, ti_dense, _ = _routed_run(
            monkeypatch, float("inf"), queries, targets, k, **options)
        _, dense_rows, all_dense, _ = _routed_run(
            monkeypatch, 0.0, queries, targets, k, **options)
        assert 0 < mixed.stats.extra["dense_rows"] == len(dense_ids) \
            < len(queries)
        assert any(m is not None and 0 < m.sum() < m.size for m in masks)
        assert not ti_dense and ti.stats.extra["dense_rows"] == 0
        assert all_dense == set(range(len(queries)))

        _assert_same_answers(mixed, ti)
        for q in range(len(queries)):
            assert rows[q] == (dense_rows if q in dense_ids
                               else ti_rows)[q], q
        for name, column in BLOCK_COUNTERS.items():
            at = SCAN_COUNTERS.index(column)
            assert getattr(mixed.stats, name) == \
                sum(row[at] for row in rows.values()), name
        for name in ("candidate_cluster_pairs", "level1_survivor_pairs",
                     "init_distance_computations"):
            assert getattr(mixed.stats, name) == getattr(ti.stats, name)
        assert check_funnel(funnel_from_stats(mixed.stats)) == []


class TestMixedRoutesNumpy(NumpyBackend, TestMixedRoutes):
    pass


class TestDensePick:
    """The C kernel replays :func:`scan_numpy.dense_pick` exactly."""

    @pytest.mark.parametrize("data", ["weak", "rounded-ties"])
    def test_c_pick_equals_numpy_pick(self, data):
        kernel = cscan.load()
        if kernel is None:
            pytest.skip("no C kernel on this host")
        if data == "weak":
            points = weak_points(9, 600, 16)
            queries, targets = points[:100], points[100:]
        else:
            targets = rounded_mixture(21, 400)
            queries = rounded_mixture(22, 60)
        plan = prepare_clusters(queries, targets, np.random.default_rng(1))
        ct, cq = plan.target_clusters, plan.query_clusters
        flat = flat_targets(ct)
        live = flat.member_idx.size
        picked = set()
        for k in (1, 5, 40):
            state = plan.level1_for(TopKPredicate(k))
            for share in (0.0, 0.1, 0.5, 0.9, 1.0):
                dense_min = int(np.ceil(share * live))
                backend = cscan.BoundScan(kernel, flat, dense_min)
                for qc in range(cq.n_clusters):
                    members = cq.members[qc]
                    if not members.size:
                        continue
                    cand = state.candidates[qc]
                    rows = center_distance_rows(queries[members], ct, cand)
                    expected = scan_numpy.dense_pick(flat, rows, cand, k,
                                                     dense_min)
                    *_, dense = backend.scan(queries[members], rows, cand,
                                             state.bounds[qc], k)
                    if dense is None:
                        dense = np.zeros(members.size, dtype=bool)
                    assert np.array_equal(dense, expected)
                    picked.update(expected.tolist())
        assert picked == {True, False}
