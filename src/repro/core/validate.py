"""Input normalization at the library boundary.

Every entry point that accepts a point set — :func:`repro.knn_join`,
:class:`repro.SweetKNN`, :class:`repro.index.Index`, the serving
layer, the content fingerprint — must agree on one canonical form:
**C-contiguous float64**.  Before this helper existed the
``np.asarray(..., dtype=np.float64)`` normalization was repeated at
each boundary, and a float32 or Fortran-ordered input could reach one
code path un-normalized (e.g. the fingerprint) while another had
already converted it, producing different hashes for the same values.

:func:`as_points` is the single boundary: float32, Fortran-ordered,
strided and plain-list inputs all normalize to the same canonical
array, so they produce identical results *and* identical fingerprints
everywhere.  A point set that is already canonical is returned as the
same object — identity-keyed caches (:meth:`repro.SweetKNN.query`'s
join-plan cache, the fingerprint memo) keep working across calls.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError

__all__ = ["as_points", "check_points"]


def as_points(points, name="points"):
    """Normalize a point set to a C-contiguous float64 (n, d) array.

    Raises :class:`ValidationError` when the input is not 2-D.  An
    already-canonical ndarray passes through unchanged (same object).
    """
    arr = np.asarray(points, dtype=np.float64)
    if arr.ndim != 2:
        raise ValidationError("%s must be a 2-D array, got ndim=%d"
                              % (name, arr.ndim))
    return np.ascontiguousarray(arr)


def check_points(points, name="points", require_finite=False):
    """:func:`as_points` plus non-emptiness (and finiteness) checks."""
    arr = as_points(points, name=name)
    if arr.shape[0] == 0:
        raise ValidationError("%s must be non-empty" % name)
    if require_finite and not _all_finite(arr):
        raise ValidationError("%s contain NaN or infinite values" % name)
    return arr


def _all_finite(arr):
    """``np.isfinite(arr).all()`` in one pass when it holds.

    Any NaN or infinite element makes the sum NaN or infinite, so a
    finite sum proves every element finite; a sum that is not finite
    (which finite elements can also reach by overflow) falls back to
    the elementwise test.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.add.reduce(arr, axis=None)
    return bool(np.isfinite(total)) or bool(np.isfinite(arr).all())
