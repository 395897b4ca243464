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

:func:`nearest_columns` is the one "k nearest" routine of Step 1 and of
``brute``: a GEMM-form shortlist, widened by a forward-error bound
(derived in ``docs/INDEX.md``), re-ranked in the direct form.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "euclidean", "euclidean_many", "pairwise_distances",
    "expanded_sq_distances", "nearest_columns", "masked_nearest_columns",
    "lb_one_landmark", "ub_one_landmark",
    "lb_two_landmarks", "ub_two_landmarks",
    "distance_flops",
]


def euclidean(a, b):
    """Euclidean distance between two points (1-D arrays)."""
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
    """Dense |A| x |B| Euclidean distance matrix (direct form)."""
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
#: direct-form differences (16 MB each).
_BLOCK_ELEMS = 2 ** 21
#: At most this many |A| x |B| x d elements, the direct form costs less
#: than the GEMM shortlist's fixed numpy overhead.
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
    ``direct²`` is the squared distance :func:`pairwise_distances`
    takes the root of.  ``(None, None)`` when the bound cannot be
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


def nearest_columns(a, b, k):
    """Each row of ``a``'s ``k`` nearest rows of ``b``, as the direct
    form ranks them.

    Returns ``(distances, indices)``, both ``(|A|, k)``, each row
    ordered by (distance, index); every distance is bit-equal to the
    matching :func:`pairwise_distances` entry.  One GEMM per row block
    gives the expanded squared distances ``ĝ``; a pair survives when
    ``ĝ`` is within the error bound of the row's k-th smallest, and
    only survivors are re-ranked in the direct form.  When the bound
    cannot be trusted, ``k = |B|``, or the problem is too small for the
    GEMM to pay, every pair survives: the re-rank *is* the direct form.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n_a, dim = a.shape
    n_b = b.shape[0]
    k = int(k)
    if not 1 <= k <= n_b:
        raise ValueError("k must be in [1, %d]" % n_b)
    shortlist = k < n_b and n_a * n_b * dim > _DIRECT_MAX_ELEMS
    if shortlist:
        a_sq = _sq_norms(a)
        b_sq = _sq_norms(b)
        shortlist = _expansion_trusted(a_sq, b_sq, dim)
    if not shortlist:
        distances = np.empty((n_a, k), dtype=np.float64)
        indices = np.empty((n_a, k), dtype=np.int64)
        block = max(1, _BLOCK_ELEMS // max(1, n_b * dim))
        for start in range(0, n_a, block):
            stop = min(start + block, n_a)
            dense = pairwise_distances(a[start:stop], b)
            take = np.argsort(dense, axis=1, kind="stable")[:, :k]
            distances[start:stop] = dense[np.arange(stop - start)[:, None],
                                          take]
            indices[start:stop] = take
        return distances, indices

    return _shortlist(a, a_sq, b, b_sq, k)[:2]


def masked_nearest_columns(a, b, k, b_sq, allowed, pair_distances):
    """:func:`nearest_columns` over the ``allowed`` pairs only.

    ``b_sq`` are ``b``'s squared norms (cached by the caller),
    ``allowed`` is an ``(|A|, |B|)`` boolean mask with at least ``k``
    true entries per row, and ``pair_distances(a, b, rows, cols)`` is
    the direct form the survivors are re-ranked in.  Rows the error
    bound does not cover (see :func:`expanded_sq_distances`) re-rank
    every allowed pair, so the result is exact for any finite input.

    Returns ``(distances, indices, reranked)``: the ``(|A|, k)`` pairs
    ordered by (distance, index), and the number of re-ranked pairs.
    """
    a = np.asarray(a, dtype=np.float64)
    return _shortlist(a, _sq_norms(a), b, b_sq, int(k), allowed,
                      pair_distances)


def _shortlist(a, a_sq, b, b_sq, k, allowed=None, pair_distances=None):
    """The GEMM shortlist and its re-rank; ``(distances, indices,
    reranked)``."""
    pair_distances = pair_distances or _direct_pairs
    n_a, dim = a.shape
    n_b = b.shape[0]
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
        g = _expanded_block(a[start:stop], a_sq[start:stop], b, b_sq)
        mask = None if allowed is None else allowed[start:stop]
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


def _direct_pairs(a, b, rows, cols):
    """Direct-form distances of the pairs ``(a[rows], b[cols])``."""
    out = np.empty(rows.size, dtype=np.float64)
    step = max(1, _BLOCK_ELEMS // max(1, a.shape[1]))
    for start in range(0, rows.size, step):
        stop = min(start + step, rows.size)
        diff = a[rows[start:stop]] - b[cols[start:stop]]
        out[start:stop] = np.sqrt(np.einsum("ij,ij->i", diff, diff))
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
