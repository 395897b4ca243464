"""Triangle-inequality distance bounds (Section II-B of the paper).

One landmark L (Eqs. 1-2)::

    LB(q, t) = |d(q, L) - d(t, L)|
    UB(q, t) =  d(q, L) + d(t, L)

Two landmarks L1 (near q) and L2 (near t) (Eqs. 3-4)::

    LB(q, t) = d(L1, L2) - d(q, L1) - d(L2, t)
    UB(q, t) = d(q, L1) + d(L1, L2) + d(L2, t)

The two-landmark lower bound can be negative (when the clusters
overlap); it is still a valid lower bound since distances are
non-negative.  All functions accept scalars or numpy arrays and
broadcast.

:func:`pair_distances` is the one distance form of every answer: each
distance an exact engine returns or ranks is the ``sqrt`` of the dot
product of ``t - q`` with itself (:func:`euclidean` is its one-pair
twin, bit for bit).  :func:`pairwise_distances` (an ``einsum``) only
feeds bounds.  :func:`nearest_columns` is the one "k nearest" routine
of Step 1 and of ``brute``: a GEMM-form shortlist, widened by a
forward-error bound (derived in ``docs/INDEX.md``), re-ranked by
:func:`pair_distances` and ordered by (distance, index).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "euclidean", "euclidean_many", "pairwise_distances", "pair_distances",
    "expanded_sq_distances", "banded_distances", "nearest_columns",
    "masked_nearest_columns",
    "lb_one_landmark", "ub_one_landmark",
    "lb_two_landmarks", "ub_two_landmarks",
    "distance_flops",
]


def euclidean(a, b):
    """Euclidean distance between two points (1-D arrays).

    The one-pair form of :func:`pair_distances`, bit for bit: the same
    difference (negated, which squares to the same bits) through the
    same BLAS dot product.
    """
    diff = np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)
    return float(np.sqrt(np.dot(diff, diff)))


def euclidean_many(points, point):
    """Distances from each row of ``points`` to a single ``point``.

    Computed directly as sqrt(sum((x - y)^2)) — not via the expanded
    |x|^2 + |y|^2 - 2xy GEMM form — so TI bound comparisons are not
    perturbed by catastrophic cancellation.
    """
    points = np.asarray(points, dtype=np.float64)
    diff = points - np.asarray(point, dtype=np.float64)
    return np.sqrt(np.einsum("ij,ij->i", diff, diff))


def pairwise_distances(a, b):
    """Dense |A| x |B| Euclidean distance matrix in the ``einsum``
    form, for bounds only (centre distances, the landmark pick): an
    answer's distances come from :func:`pair_distances`."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.einsum("ijk,ijk->ij", diff, diff))


_EPS = np.finfo(np.float64).eps
#: Largest squared norm the expanded form is trusted with: every
#: partial sum of ‖a‖² + ‖b‖² − 2a·b then stays below 2**1022.
_SQ_NORM_LIMIT = 2.0 ** 1019
#: Widest dimension the bound's second-order terms are absorbed for.
_DIM_LIMIT = 2 ** 25
#: Error one product or sum may take from underflow, flush-to-zero
#: included: the smallest normal float64.
_TINY = 2.0 ** -1022
#: Elements in one block of the expanded matrix, and in one block of
#: pair differences (16 MB each).
_BLOCK_ELEMS = 2 ** 21
#: At most this many |A| x |B| x d elements, ranking every pair costs
#: less than the GEMM shortlist's fixed numpy overhead.
_DIRECT_MAX_ELEMS = 2 ** 15


def _gamma(n):
    """Forward-error constant γ_n = nε / (1 − nε)."""
    return n * _EPS / (1.0 - n * _EPS)


def _sq_norms(x):
    return np.einsum("ij,ij->i", x, x)


def _expansion_trusted(a_sq, b_sq, dim):
    """Whether the expanded form's error bound holds for these norms."""
    return bool(a_sq.size and b_sq.size and dim < _DIM_LIMIT
                and np.isfinite(a_sq).all() and np.isfinite(b_sq).all()
                and max(a_sq.max(), b_sq.max()) <= _SQ_NORM_LIMIT)


def _expansion_error(a_sq, b_sq_max, dim):
    """Per-row bound on |expanded − direct| squared distance.

    ``4γ_(d+4)(‖a‖² + max‖b‖²)`` covers the rounding of both forms,
    ``(10d + 16)·2**-1022`` their underflow (``docs/INDEX.md``).
    """
    return (4.0 * _gamma(dim + 4) * (a_sq + b_sq_max)
            + (10 * dim + 16) * _TINY)


def _expanded_block(a, a_sq, b, b_sq):
    """ĝ = (‖a‖² − 2a·b) + ‖b‖², one GEMM for the whole block."""
    g = a @ b.T
    g *= -2.0
    g += a_sq[:, None]
    g += b_sq[None, :]
    return g


def expanded_sq_distances(a, b):
    """Squared distances in the expanded (GEMM) form, with their bound.

    Returns ``(g, err)``: the |A| x |B| matrix ‖a‖² + ‖b‖² − 2a·b and
    per-row ``err`` with ``|g - direct²| <= err[:, None]``, where
    ``direct²`` is the squared distance :func:`pair_distances` or
    :func:`pairwise_distances` takes the root of (the bound holds for
    any summation order).  ``(None, None)`` when the bound cannot be
    trusted (non-finite norms, or norms near overflow).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    a_sq = _sq_norms(a)
    b_sq = _sq_norms(b)
    if not _expansion_trusted(a_sq, b_sq, a.shape[1]):
        return None, None
    return (_expanded_block(a, a_sq, b, b_sq),
            _expansion_error(a_sq, b_sq.max(), a.shape[1]))


def banded_distances(a, b, b_sq, band):
    """Every ``(a, b)`` distance from one GEMM, each within
    ``band·(D + 1)`` of its direct form.

    ``D`` is the matrix's own entry and ``b_sq`` are ``b``'s squared
    norms (cached by the caller).  An entry is ``fl(√max(ĝ, 0))`` unless
    its forward-error half-width (``docs/INDEX.md``) exceeds
    ``band·(D + 1)``; such entries, and every entry when the bound
    cannot be trusted, are recomputed by :func:`pair_distances`.

    Returns ``(distances, recomputed)``: the ``(|A|, |B|)`` matrix and
    the number of recomputed entries.
    """
    a = np.asarray(a, dtype=np.float64)
    n_a, dim = a.shape
    n_b = b.shape[0]
    a_sq = _sq_norms(a)
    # A maximum of squared norms is finite only if every one is.
    a_max, b_max = a_sq.max(initial=0.0), b_sq.max(initial=0.0)
    if not (dim < _DIM_LIMIT and np.isfinite(a_max) and np.isfinite(b_max)
            and max(a_max, b_max) <= _SQ_NORM_LIMIT):
        rows, cols = np.divmod(np.arange(n_a * n_b), n_b)
        dists = pair_distances(a, b, rows, cols).reshape(n_a, n_b)
        return dists, n_a * n_b
    g = _expanded_block(a, a_sq, b, b_sq)
    err = _expansion_error(a_sq, b_max, dim)[:, None]
    np.maximum(g, 0.0, out=g)
    dists = np.sqrt(g)
    # |√ĝ − √ŝ| is at most √e, and at most e / (√ĝ + √(ĝ − e)); the two
    # roots' own roundings add ε·D, the bound's evaluation the factor.
    g -= err
    np.maximum(g, 0.0, out=g)
    np.sqrt(g, out=g)
    g += dists
    with np.errstate(divide="ignore"):
        half = np.minimum(np.sqrt(err), err / g)
    half += _EPS * dists
    half *= 1.0 + 8.0 * _EPS
    rows, cols = np.nonzero(~(half <= band * (dists + 1.0)))
    if rows.size:
        dists[rows, cols] = pair_distances(a, b, rows, cols)
    return dists, int(rows.size)


def nearest_columns(a, b, k):
    """Each row of ``a``'s ``k`` nearest rows of ``b``.

    Returns ``(distances, indices)``, both ``(|A|, k)``, each row
    ordered by (distance, index); every distance is bit-equal to the
    matching :func:`pair_distances` entry.  One GEMM per row block
    gives the expanded squared distances ``ĝ``; a pair survives when
    ``ĝ`` is within the error bound of the row's k-th smallest, and
    only survivors are re-ranked by :func:`pair_distances`.  When the
    bound cannot be trusted, ``k = |B|``, or the problem is too small
    for the GEMM to pay, every pair survives.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, dim = a.shape
    n_b = b.shape[0]
    k = int(k)
    if not 1 <= k <= n_b:
        raise ValueError("k must be in [1, %d]" % n_b)
    a_sq = b_sq = None
    if k < n_b and n_a * n_b * dim > _DIRECT_MAX_ELEMS:
        a_sq = _sq_norms(a)
        b_sq = _sq_norms(b)
        if not _expansion_trusted(a_sq, b_sq, dim):
            a_sq = b_sq = None
    return _shortlist(a, a_sq, b, b_sq, k)[:2]


def masked_nearest_columns(a, b, k, b_sq, allowed):
    """:func:`nearest_columns` over the ``allowed`` pairs only.

    ``b_sq`` are ``b``'s squared norms (cached by the caller), and
    ``allowed`` is an ``(|A|, |B|)`` boolean mask with at least ``k``
    true entries per row.  Rows the error bound does not cover (see
    :func:`expanded_sq_distances`) re-rank every allowed pair, so the
    result is exact for any finite input.

    Returns ``(distances, indices, reranked)``: the ``(|A|, k)`` pairs
    ordered by (distance, index), and the number of re-ranked pairs.
    """
    a = np.asarray(a, dtype=np.float64)
    return _shortlist(a, _sq_norms(a), b, b_sq, int(k), allowed)


def _shortlist(a, a_sq, b, b_sq, k, allowed=None):
    """The GEMM shortlist and its re-rank; ``(distances, indices,
    reranked)``.  Without norms (``a_sq is None``) every allowed pair
    is re-ranked."""
    n_a, dim = a.shape
    n_b = b.shape[0]
    if a_sq is not None:
        b_max = b_sq.max()
        err = _expansion_error(a_sq, b_max, dim)
        loose = ~(np.isfinite(a_sq) & (a_sq <= _SQ_NORM_LIMIT)) | (
            not (b_max <= _SQ_NORM_LIMIT and dim < _DIM_LIMIT))
    distances = np.empty((n_a, k), dtype=np.float64)
    indices = np.empty((n_a, k), dtype=np.int64)
    reranked = 0
    block = max(1, _BLOCK_ELEMS // n_b)
    for start in range(0, n_a, block):
        stop = min(start + block, n_a)
        mask = None if allowed is None else allowed[start:stop]
        if a_sq is None:
            keep = (np.ones((stop - start, n_b), dtype=bool) if mask is None
                    else mask)
            rows, cols = np.divmod(np.flatnonzero(keep), n_b)
        else:
            g = _expanded_block(a[start:stop], a_sq[start:stop], b, b_sq)
            if mask is not None:
                g[~mask] = np.inf
            kth = (g.min(axis=1) if k == 1
                   else np.partition(g, k - 1, axis=1)[:, k - 1])
            cutoff = (kth + 2.0 * err[start:stop]) * (1.0 + 8.0 * _EPS)
            rows, cols = _survivors(g, cutoff, loose[start:stop], mask)
        dists = pair_distances(a[start:stop], b, rows, cols)
        reranked += rows.size
        # Stable, and ``cols`` ascend within a row: ties keep index order.
        order = np.lexsort((dists, rows))
        first = np.searchsorted(rows, np.arange(stop - start))
        take = order[first[:, None] + np.arange(k)]
        distances[start:stop] = dists[take]
        indices[start:stop] = cols[take]
    return distances, indices, reranked


def _survivors(g, cutoff, loose, mask):
    """``(rows, cols)`` of the pairs within their row's cutoff; a loose
    row keeps every allowed pair."""
    keep = g <= cutoff[:, None]
    if loose.any():
        keep[loose] = True if mask is None else mask[loose]
    return np.divmod(np.flatnonzero(keep), g.shape[1])


def pair_distances(a, b, rows, cols):
    """Distances of the pairs ``(a[rows], b[cols])``: the one form of
    every distance an engine returns or ranks.

    Each is ``sqrt`` of the dot product of ``b[col] - a[row]`` with
    itself, through the same BLAS dot as :func:`euclidean` and the C
    kernel's ``ddot`` (the stacked ``(1, d) @ (d, 1)`` matmul reduces
    through it), so all three agree bit for bit.
    """
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, b.shape[1]))
    for start in range(0, rows.size, step):
        stop = min(start + step, rows.size)
        diffs = b[cols[start:stop]]
        diffs -= a[rows[start:stop]]
        out[start:stop] = np.sqrt(
            (diffs[:, None, :] @ diffs[:, :, None]).ravel())
    return out


def distance_flops(d):
    """Modelled arithmetic ops for one d-dimensional distance.

    One subtract, one multiply and one add per dimension, plus the
    square root.
    """
    return 3 * int(d) + 1


def lb_one_landmark(d_q_l, d_t_l):
    """Eq. 1: lower bound from one landmark."""
    return np.abs(np.asarray(d_q_l) - np.asarray(d_t_l))


def ub_one_landmark(d_q_l, d_t_l):
    """Eq. 2: upper bound from one landmark."""
    return np.asarray(d_q_l) + np.asarray(d_t_l)


def lb_two_landmarks(d_l1_l2, d_q_l1, d_l2_t):
    """Eq. 3: lower bound from two landmarks (may be negative)."""
    return np.asarray(d_l1_l2) - np.asarray(d_q_l1) - np.asarray(d_l2_t)


def ub_two_landmarks(d_l1_l2, d_q_l1, d_l2_t):
    """Eq. 4: upper bound from two landmarks."""
    return np.asarray(d_q_l1) + np.asarray(d_l1_l2) + np.asarray(d_l2_t)
