"""End-to-end property tests: exactness on arbitrary inputs.

The single most important invariant of the whole system: every TI
engine returns exactly the brute-force neighbours, whatever the input
geometry — duplicates, collinear points, degenerate clusters, constant
dimensions, extreme scales.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import knn_join


def assert_same_answer(result, oracle):
    """Bit for bit: distances and ids, ties included."""
    np.testing.assert_array_equal(result.indices, oracle.indices)
    np.testing.assert_array_equal(result.distances, oracle.distances)

_points = hnp.arrays(
    np.float64,
    st.tuples(st.integers(10, 60), st.integers(1, 6)),
    elements=st.floats(min_value=-1e4, max_value=1e4, allow_nan=False))


@given(points=_points, k=st.integers(1, 8),
       method=st.sampled_from(["sweet", "ti-gpu", "ti-cpu", "ti-flat",
                               "kdtree", "cublas"]))
@settings(max_examples=60, deadline=None)
def test_ti_engines_exact_on_arbitrary_inputs(points, k, method):
    k = min(k, points.shape[0])
    oracle = knn_join(points, points, k, method="brute")
    result = knn_join(points, points, k, method=method, seed=0)
    assert_same_answer(result, oracle)


@given(points=_points, k=st.integers(1, 8))
@settings(max_examples=30, deadline=None)
def test_sweet_partial_filter_exact_on_arbitrary_inputs(points, k):
    k = min(k, points.shape[0])
    oracle = knn_join(points, points, k, method="brute")
    result = knn_join(points, points, k, method="sweet", seed=0,
                      force_filter="partial")
    assert_same_answer(result, oracle)


@given(points=_points, k=st.integers(1, 6),
       tpq=st.sampled_from([2, 4, 6]))
@settings(max_examples=30, deadline=None)
def test_sweet_multithread_exact_on_arbitrary_inputs(points, k, tpq):
    k = min(k, points.shape[0])
    oracle = knn_join(points, points, k, method="brute")
    result = knn_join(points, points, k, method="sweet", seed=0,
                      threads_per_query=tpq)
    assert_same_answer(result, oracle)


@given(queries=_points, k=st.integers(1, 5), seed=st.integers(0, 10))
@settings(max_examples=30, deadline=None)
def test_landmark_seed_never_changes_the_answer(queries, k, seed):
    """Exactness must be independent of landmark randomness."""
    k = min(k, queries.shape[0])
    a = knn_join(queries, queries, k, method="sweet", seed=0)
    b = knn_join(queries, queries, k, method="sweet", seed=seed)
    assert_same_answer(a, b)


@given(scale=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
@settings(max_examples=25, deadline=None)
def test_scale_invariance_of_filtering(scale):
    """Rescaling the data rescales distances but not neighbours or
    the number of computed distances (TI bounds are homogeneous)."""
    rng = np.random.default_rng(0)
    base = rng.normal(size=(80, 4))
    a = knn_join(base, base, 5, method="sweet", seed=0)
    b = knn_join(base * scale, base * scale, 5, method="sweet", seed=0)
    np.testing.assert_array_equal(
        np.sort(a.indices, axis=1), np.sort(b.indices, axis=1))
    assert (a.stats.level2_distance_computations
            == b.stats.level2_distance_computations)
