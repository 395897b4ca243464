"""Integration tests: the GPU pipelines against the exact oracle."""

import numpy as np
import pytest

from repro.baselines.brute_force import brute_force_knn
from repro.core.basic_gpu import basic_ti_knn
from repro.core.sweet import sweet_knn
from repro.core.ti_knn import ti_knn_join
from repro.gpu.device import tesla_k20c


class TestBasicGpuPipeline:
    def test_exact_on_clustered(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = basic_ti_knn(clustered_points, clustered_points, 8,
                           np.random.default_rng(0))
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_counters_match_cpu_reference(self, clustered_points):
        """One thread per query, same candidate order, same bound
        policy: the GPU kernel must compute exactly the same number of
        distances as the sequential Fig. 4 algorithm."""
        cpu = ti_knn_join(clustered_points, clustered_points, 8,
                          np.random.default_rng(0))
        gpu = basic_ti_knn(clustered_points, clustered_points, 8,
                           np.random.default_rng(0))
        assert (gpu.stats.level2_distance_computations
                == cpu.stats.level2_distance_computations)
        assert gpu.stats.candidate_cluster_pairs \
            == cpu.stats.candidate_cluster_pairs

    def test_profile_structure(self, clustered_points):
        res = basic_ti_knn(clustered_points, clustered_points, 8,
                           np.random.default_rng(0))
        names = [k.name for k in res.profile.kernels]
        assert "level2_filter" in names
        assert any("init" in n for n in names)
        assert any("level1" in n for n in names)
        assert res.sim_time_s > 0

    def test_basic_config_recorded(self, clustered_points):
        res = basic_ti_knn(clustered_points, clustered_points, 8,
                           np.random.default_rng(0))
        assert res.stats.extra["layout"] == "col"
        assert res.stats.extra["placement"] == "global"
        assert res.stats.extra["remap"] is False
        assert res.stats.extra["threads_per_query"] == 1


class TestSweetPipeline:
    def test_exact_on_clustered(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0))
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_exact_on_uniform(self, uniform_points):
        ref = brute_force_knn(uniform_points, uniform_points, 5)
        res = sweet_knn(uniform_points, uniform_points, 5,
                        np.random.default_rng(0))
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_exact_with_partial_filter(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0), force_filter="partial")
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)
        assert res.stats.extra["filter"] == "partial"

    @pytest.mark.parametrize("tpq", [2, 4, 8])
    def test_exact_multi_thread_per_query(self, clustered_points, tpq):
        ref = brute_force_knn(clustered_points, clustered_points, 6)
        res = sweet_knn(clustered_points, clustered_points, 6,
                        np.random.default_rng(0), threads_per_query=tpq)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)
        assert res.stats.extra["threads_per_query"] == tpq

    def test_exact_multi_thread_partial(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 6)
        res = sweet_knn(clustered_points, clustered_points, 6,
                        np.random.default_rng(0), threads_per_query=4,
                        force_filter="partial")
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    @pytest.mark.parametrize("placement", ["global", "shared", "registers"])
    def test_exact_under_forced_placement(self, clustered_points, placement):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0), force_placement=placement)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)
        assert res.stats.extra["placement"] == placement

    @pytest.mark.parametrize("layout", ["row", "col"])
    def test_exact_under_forced_layout(self, clustered_points, layout):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0), force_layout=layout)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_exact_without_remap(self, clustered_points):
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0), remap=False)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_disjoint_query_target_sets(self, rng):
        queries = rng.normal(size=(60, 6))
        targets = rng.normal(size=(300, 6))
        ref = brute_force_knn(queries, targets, 9)
        res = sweet_knn(queries, targets, 9, np.random.default_rng(1))
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_remap_improves_warp_efficiency(self, rng):
        """Thread-data remapping must raise level-2 warp efficiency on
        shuffled clustered data (Tables I/II of the paper)."""
        blobs = [rng.normal(size=(60, 6)) + c
                 for c in rng.uniform(-40, 40, size=(8, 6))]
        points = np.concatenate(blobs)
        rng.shuffle(points)
        on = sweet_knn(points, points, 6, np.random.default_rng(0),
                       remap=True)
        off = sweet_knn(points, points, 6, np.random.default_rng(0),
                        remap=False)
        assert (on.profile.filter_warp_efficiency()
                > off.profile.filter_warp_efficiency())

    def test_memory_pressure_forces_partitions(self, clustered_points):
        tiny = tesla_k20c(global_mem_bytes=64 * 1024)
        res = sweet_knn(clustered_points, clustered_points, 8,
                        np.random.default_rng(0), device=tiny)
        assert res.stats.extra["partitions"] > 1
        ref = brute_force_knn(clustered_points, clustered_points, 8)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_small_query_set_goes_multi_thread(self, rng):
        points = rng.normal(size=(64, 10))
        res = sweet_knn(points, points, 4, np.random.default_rng(0))
        assert res.stats.extra["threads_per_query"] > 1
        ref = brute_force_knn(points, points, 4)
        np.testing.assert_array_equal(res.indices, ref.indices)
        np.testing.assert_array_equal(res.distances, ref.distances)

    def test_large_k_small_d_picks_partial(self, rng):
        points = rng.normal(size=(400, 3))
        res = sweet_knn(points, points, 64, np.random.default_rng(0))
        assert res.stats.extra["filter"] == "partial"

    def test_invalid_k(self, clustered_points):
        with pytest.raises(ValueError):
            sweet_knn(clustered_points, clustered_points, 0,
                      np.random.default_rng(0))
        with pytest.raises(ValueError):
            sweet_knn(clustered_points, clustered_points, 10 ** 7,
                      np.random.default_rng(0))

    def test_deterministic_given_seed(self, clustered_points):
        a = sweet_knn(clustered_points, clustered_points, 5,
                      np.random.default_rng(3))
        b = sweet_knn(clustered_points, clustered_points, 5,
                      np.random.default_rng(3))
        np.testing.assert_array_equal(a.distances, b.distances)
        assert a.sim_time_s == b.sim_time_s
