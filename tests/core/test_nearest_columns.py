"""The GEMM shortlist against test-only copies of the direct forms.

Every "nearest" use in Step 1 and ``brute`` goes through
:func:`repro.core.bounds.nearest_columns`; its answers must be exactly
those of computing every distance as one dot product per pair (the
form of :func:`repro.core.bounds.pair_distances`), and the landmark
spread pick's those of summing every distance in the ``einsum`` form.
The generators aim at the bound's edges: exact ties and duplicates,
d = 1, d >> n, k = |T|, magnitudes from 1e-150 to 1e150 (and at and
past the overflow of ``‖x‖²``), and spread trials that tie or nearly
tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.bounds as bounds
from repro.baselines.brute_force import brute_force_knn
from repro.core.bounds import expanded_sq_distances, nearest_columns
from repro.core.clustering import cluster_points
from repro.core.landmarks import select_landmarks_random_spread
from repro.index import Index


@pytest.fixture(autouse=True, scope="module")
def shortlist_every_size():
    """Inputs this small would take the dense direct path; force the
    shortlist so the bound is what gets tested."""
    saved = bounds._DIRECT_MAX_ELEMS
    bounds._DIRECT_MAX_ELEMS = 0
    yield
    bounds._DIRECT_MAX_ELEMS = saved


def direct_squares(a, b):
    diff = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def direct_matrix(a, b):
    return np.sqrt(direct_squares(a, b))


def dot_squares(a, b):
    """Every squared distance as one BLAS dot product per pair."""
    return np.array([[np.dot(t - q, t - q) for t in b]
                     for q in a]).reshape(len(a), len(b))


def dot_matrix(a, b):
    return np.sqrt(dot_squares(a, b))


def direct_nearest(a, b, k):
    """Every distance, then the (distance, index) order."""
    dists = dot_matrix(a, b)
    cols = np.broadcast_to(np.arange(b.shape[0]), dists.shape)
    order = np.lexsort((cols, dists), axis=1)[:, :k]
    return np.take_along_axis(dists, order, axis=1), order


def direct_spread_pick(points, m, rng, trials=10):
    """The paper's random-spread rule with every sum in the direct form."""
    best, best_sum = None, -np.inf
    for _ in range(trials):
        draw = rng.choice(len(points), size=m, replace=False)
        spread = float(direct_matrix(points[draw], points[draw]).sum() / 2.0)
        if spread > best_sum:
            best, best_sum = draw, spread
    return best


SCALES = [1e-150, 1e-75, 1e-8, 1.0, 1e8, 1e75, 1e150, 1e154, 1e160]


@st.composite
def point_sets(draw, max_n=24, max_d=6):
    """(n, d) points: integer grids (ties), duplicated rows, or floats,
    at one scale; sometimes d >> n."""
    seed = draw(st.integers(0, 2 ** 32 - 1))
    rng = np.random.default_rng(seed)
    wide = draw(st.booleans())
    n = draw(st.integers(1, 6 if wide else max_n))
    d = draw(st.integers(40, 80)) if wide else draw(st.integers(1, max_d))
    kind = draw(st.sampled_from(["grid", "dup", "float", "offset"]))
    if kind == "grid":
        pts = rng.integers(-2, 3, size=(n, d)).astype(float)
    elif kind == "dup":
        base = rng.normal(size=(max(1, n // 4), d))
        pts = base[rng.integers(0, len(base), size=n)]
    elif kind == "float":
        pts = rng.normal(size=(n, d))
    else:
        # Far from the origin: the expanded form cancels badly.
        pts = rng.normal(size=(n, d)) * 1e-3 + 1e6
    return pts * draw(st.sampled_from(SCALES))


class TestNearestColumns:
    @settings(max_examples=60, deadline=None)
    @given(a=point_sets(max_n=8), b=point_sets(), data=st.data())
    def test_equals_direct_form(self, a, b, data):
        if a.shape[1] != b.shape[1]:
            b = np.resize(b, (b.shape[0], a.shape[1]))
        k = data.draw(st.integers(1, b.shape[0]))
        dists, idx = nearest_columns(a, b, k)
        ref_d, ref_i = direct_nearest(a, b, k)
        assert np.array_equal(idx, ref_i)
        assert np.array_equal(dists, ref_d, equal_nan=True)

    @pytest.mark.parametrize("direct_max", [0, 2 ** 15])
    def test_ties_at_the_boundary(self, direct_max, monkeypatch):
        """1-D integer grids: the k-th place splits a run of equal
        distances, and the lower target ids must win it, on the
        shortlist and when every pair is ranked."""
        monkeypatch.setattr(bounds, "_DIRECT_MAX_ELEMS", direct_max)
        rng = np.random.default_rng(0)
        for _ in range(200):
            targets = rng.integers(0, 6, size=(rng.integers(2, 30), 1))
            targets = targets.astype(float)
            query = rng.integers(0, 6, size=(1, 1)).astype(float)
            k = int(rng.integers(1, len(targets) + 1))
            res = brute_force_knn(query, targets, k)
            ref_d, ref_i = direct_nearest(query, targets, k)
            assert np.array_equal(res.indices, ref_i)
            assert np.array_equal(res.distances, ref_d)

    def test_bound_covers_both_forms(self):
        rng = np.random.default_rng(1)
        for scale in (1e-150, 1e-3, 1.0, 1e150):
            a = rng.normal(size=(30, 17)) * scale + scale
            b = rng.normal(size=(40, 17)) * scale
            g, err = expanded_sq_distances(a, b)
            for squares in (direct_squares(a, b), dot_squares(a, b)):
                assert np.all(np.abs(g - squares) <= err[:, None])

    def test_cancellation_far_from_origin(self):
        """Gaps far below the expanded form's rounding: the shortlist
        must widen to the bound, and the direct form must rank."""
        rng = np.random.default_rng(5)
        b = rng.normal(size=(300, 4)) * 1e-3 + 1e6
        a = b[:20] + rng.normal(size=(20, 4)) * 1e-4
        for k in (1, 3, 50):
            dists, idx = nearest_columns(a, b, k)
            ref_d, ref_i = direct_nearest(a, b, k)
            assert np.array_equal(idx, ref_i)
            assert np.array_equal(dists, ref_d)

    def test_untrusted_norms_fall_back(self):
        a = np.full((3, 2), 1e160)
        g, err = expanded_sq_distances(a, a)
        assert g is None and err is None
        # Finite norms whose -2a·b overflows: only the fall-back ranks
        # the farther target second.
        q, t = np.array([[9e153]]), np.array([[9e153], [1.2e154]])
        assert np.array_equal(nearest_columns(q, t, 1)[1], [[0]])
        a[1, 1] = np.inf
        dists, idx = nearest_columns(a, a, 2)
        ref_d, ref_i = direct_nearest(a, a, 2)
        assert np.array_equal(idx, ref_i)
        assert np.array_equal(dists, ref_d, equal_nan=True)

    def test_row_blocks(self, monkeypatch):
        monkeypatch.setattr(bounds, "_BLOCK_ELEMS", 64)
        rng = np.random.default_rng(2)
        a, b = rng.normal(size=(50, 3)), rng.normal(size=(20, 3))
        dists, idx = nearest_columns(a, b, 4)
        ref_d, ref_i = direct_nearest(a, b, 4)
        assert np.array_equal(idx, ref_i)
        assert np.array_equal(dists, ref_d)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            nearest_columns(np.zeros((2, 2)), np.zeros((3, 2)), 4)


class TestStepOneOps:
    @settings(max_examples=40, deadline=None)
    @given(points=point_sets(), data=st.data())
    def test_cluster_points(self, points, data):
        m = data.draw(st.integers(1, len(points)))
        centers = data.draw(st.permutations(range(len(points))))[:m]
        cs = cluster_points(points, centers, sort_descending=True)
        block = dot_matrix(points, points[centers])
        assignment = np.argmin(block, axis=1)
        assert np.array_equal(cs.assignment, assignment)
        assert np.array_equal(
            cs.dist_to_center, block[np.arange(len(points)), assignment])

    @settings(max_examples=40, deadline=None)
    @given(points=point_sets(max_n=30), data=st.data())
    def test_spread_pick(self, points, data):
        m = data.draw(st.integers(1, len(points)))
        seed = data.draw(st.integers(0, 1000))
        picked = select_landmarks_random_spread(
            points, m, np.random.default_rng(seed))
        if m == len(points):
            assert np.array_equal(picked, np.arange(m))
        else:
            ref = direct_spread_pick(points, m, np.random.default_rng(seed))
            assert np.array_equal(picked, ref)

    def test_spread_pick_on_equal_and_near_equal_trials(self):
        """Symmetric sets tie exactly; a 1e-13 jitter ties them nearly,
        inside the GEMM interval, so the direct sums must decide."""
        ring = np.stack([np.cos(np.arange(12) * np.pi / 6),
                         np.sin(np.arange(12) * np.pi / 6)], axis=1)
        jitter = np.random.default_rng(4).normal(size=ring.shape) * 1e-13
        for points in (ring, ring + jitter, np.repeat(ring, 3, axis=0)):
            for seed in range(20):
                picked = select_landmarks_random_spread(
                    points, 5, np.random.default_rng(seed))
                ref = direct_spread_pick(points, 5,
                                         np.random.default_rng(seed))
                assert np.array_equal(picked, ref)

    @settings(max_examples=25, deadline=None)
    @given(targets=point_sets(max_n=30), data=st.data())
    def test_index_add(self, targets, data):
        index = Index(targets, seed=0)
        centers = index.target_clusters.centers
        rows = data.draw(st.integers(1, 5))
        pick = data.draw(st.lists(st.integers(0, len(targets) - 1),
                                  min_size=rows, max_size=rows))
        points = targets[pick] * 0.5
        new_ids = index.add(points)
        if index.build_count > 1:     # the policy re-clustered
            return
        block = dot_matrix(points, centers)
        assignment = np.argmin(block, axis=1)
        ct = index.target_clusters
        assert np.array_equal(ct.assignment[new_ids], assignment)
        assert np.array_equal(ct.dist_to_center[new_ids],
                              block[np.arange(rows), assignment])

    @settings(max_examples=40, deadline=None)
    @given(queries=point_sets(max_n=6), targets=point_sets(), data=st.data())
    def test_brute(self, queries, targets, data):
        if queries.shape[1] != targets.shape[1]:
            targets = np.resize(targets, (len(targets), queries.shape[1]))
        k = data.draw(st.integers(1, len(targets)))
        res = brute_force_knn(queries, targets, k)
        ref_d, ref_i = direct_nearest(queries, targets, k)
        assert np.array_equal(res.indices, ref_i)
        assert np.array_equal(res.distances, ref_d, equal_nan=True)
