"""Content fingerprints: normalization equivalence and the O(1) memo."""

import numpy as np
import pytest

from repro.core.validate import as_points, check_points
from repro.errors import ValidationError
from repro.index import fingerprint_points
from repro.index import fingerprint as fp_module


@pytest.fixture
def points(rng):
    return rng.normal(size=(60, 5))


class TestNormalization:
    """Satellite contract: float32, Fortran-ordered and list inputs give
    identical fingerprints (and therefore identical cache identity)."""

    def test_float32_input_matches_float64(self, points):
        assert fingerprint_points(points.astype(np.float32)) == \
            fingerprint_points(points.astype(np.float32).astype(np.float64))

    def test_fortran_order_matches_c_order(self, points):
        fortran = np.asfortranarray(points)
        assert not fortran.flags["C_CONTIGUOUS"]
        assert fingerprint_points(fortran) == fingerprint_points(points)

    def test_list_input_matches_array(self, points):
        assert fingerprint_points(points.tolist()) == \
            fingerprint_points(points)

    def test_strided_view_matches_copy(self, points):
        view = points[::2]
        assert fingerprint_points(view) == fingerprint_points(view.copy())

    def test_different_content_differs(self, points):
        other = points.copy()
        other[0, 0] += 1.0
        assert fingerprint_points(points) != fingerprint_points(other)

    def test_as_points_passthrough_keeps_identity(self, points):
        assert as_points(points) is points
        assert check_points(points) is points

    def test_as_points_rejects_non_2d(self):
        with pytest.raises(ValidationError):
            as_points(np.zeros(4))
        with pytest.raises(ValidationError):
            check_points(np.empty((0, 3)))
        with pytest.raises(ValidationError):
            check_points(np.array([[np.nan, 1.0]]), require_finite=True)


class TestFiniteCheck:
    """``check_points(require_finite=True)`` keeps the elementwise
    verdict of ``np.isfinite(arr).all()`` with its one-pass sum."""

    @pytest.mark.parametrize("bad", [
        [np.nan], [np.inf], [-np.inf], [np.inf, -np.inf],
        [np.nan, np.inf]])
    def test_non_finite_values_are_rejected(self, points, bad):
        for seed in range(5):
            spots = np.random.default_rng(seed).choice(
                points.size, len(bad), replace=False)
            arr = points.copy()
            arr.flat[spots] = bad
            with pytest.raises(ValidationError):
                check_points(arr, require_finite=True)

    @pytest.mark.parametrize("value", [1.7e308, -1.7e308])
    def test_finite_values_whose_sum_overflows_pass(self, value):
        arr = np.full((4, 3), value)
        with np.errstate(over="ignore"):
            assert not np.isfinite(arr.sum())
        assert check_points(arr, require_finite=True) is arr

    def test_overflowing_sum_with_one_infinity_is_rejected(self):
        arr = np.full((4, 3), 1.7e308)
        arr[2, 1] = np.inf
        with pytest.raises(ValidationError):
            check_points(arr, require_finite=True)

    def test_finite_points_pass_unchanged(self, points):
        assert check_points(points, require_finite=True) is points


class TestMemo:
    def test_repeat_lookup_skips_hashing(self, points, monkeypatch):
        computes = []
        real = fp_module._compute

        def counting(canonical):
            computes.append(canonical.shape)
            return real(canonical)

        monkeypatch.setattr(fp_module, "_compute", counting)
        first = fingerprint_points(points)
        for _ in range(10):
            assert fingerprint_points(points) == first
        assert len(computes) == 1

    def test_memo_entry_dies_with_the_array(self, rng):
        import gc

        before = fp_module.cached_fingerprints()
        array = rng.normal(size=(30, 4))
        fingerprint_points(array)
        assert fp_module.cached_fingerprints() > before
        del array
        gc.collect()
        assert fp_module.cached_fingerprints() <= before

    def test_index_store_lookup_is_memoized(self, clustered_points,
                                            monkeypatch):
        """The serving hot path: repeated key_for() calls must not
        re-hash the target bytes (the bug this satellite fixes)."""
        from repro.serve.store import IndexStore

        store = IndexStore()
        store.get(clustered_points, seed=0)
        computes = []
        real = fp_module._compute

        def counting(canonical):
            computes.append(canonical.shape)
            return real(canonical)

        monkeypatch.setattr(fp_module, "_compute", counting)
        for _ in range(20):
            index, hit = store.get(clustered_points, seed=0)
            assert hit
        assert computes == []
