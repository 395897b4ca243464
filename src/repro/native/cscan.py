"""Build, load and call the C level-2 kernel (``_scan.c``).

:func:`load` compiles ``_scan.c`` on first use with the system ``cc``
and returns a :class:`CKernel`, or ``None`` when the kernel cannot be
used; :class:`~repro.native.engine.FlatScan` then runs the numpy
kernels instead.  The reason of the last fallback is kept in
:data:`fallback_reason` for debugging.  Every step of the load can
fall back:

* no ``cc`` on ``PATH``, or it fails to compile the source;
* no BLAS ``ddot`` symbol in the libraries numpy loaded;
* that ``ddot`` disagrees with ``np.dot`` in any bit on a fixed probe
  (the kernel's distances must be the numpy kernels' distances);
* the built library cannot be opened even after one rebuild.

The library is cached under ``$XDG_CACHE_HOME/repro`` (default
``~/.cache/repro``; a per-user temp directory when that is not
writable, or writable by other users), named by a hash of the source,
the compiler flags and ``cc --version``.  A build is written to a temp file and moved into
place with ``os.replace``, so concurrent processes never see half a
library.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

from ..core.filters import BOUND_COMPARISON_RTOL, SCAN_COUNTERS
from ..core.memo import IdentityMemo

__all__ = ["CKernel", "BoundScan", "NEVER_DENSE", "load", "clear",
           "fallback_reason"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "_scan.c")
CFLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")

#: BLAS ``ddot`` entry points, most specific first: the 64-bit-integer
#: CBLAS interface of numpy's bundled OpenBLAS, then plain CBLAS.
DDOT_SYMBOLS = ("scipy_cblas_ddot64_", "cblas_ddot64_", "scipy_cblas_ddot",
                "cblas_ddot")

#: Vector lengths of the load-time ``ddot`` probe.
PROBE_DIMS = (1, 2, 7, 29, 64, 512)

_DDOT = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_int64, ctypes.c_void_p,
                         ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64)
_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_ARGTYPES = (_P, _P, _I, _P, _P, _P, _P, _P, _I, _I, _P, _I, _D, _I, _D, _I,
             _P, _P, _P, _P, _P, _P, _P)
#: A ``dense_min`` no candidate mass reaches: the dense route is off.
NEVER_DENSE = 2 ** 62

logger = logging.getLogger("repro.native")

#: Why the last :func:`load` fell back to the numpy kernels; ``None``
#: when the C kernel loaded (or before the first load).
fallback_reason = None

_lock = threading.Lock()
_loaded = False
_kernel = None


class _Fallback(Exception):
    """A load step failed; the message says which."""


def _ptr(array):
    return array.ctypes.data


_layouts = IdentityMemo()        # FlatTargets -> its pointer layout


def _pointer_layout(flat):
    """``(points, d, member_idx, member_dists, offsets)`` as the
    kernel's layout arguments, after checking the arrays are
    canonical."""
    arrays = ((flat.points, np.float64), (flat.member_idx, np.int64),
              (flat.member_dists, np.float64), (flat.offsets, np.int64))
    if any(a.dtype != dtype or not a.flags.c_contiguous
           for a, dtype in arrays):
        raise ValueError("flat layout arrays must be canonical")
    return (_ptr(flat.points), flat.points.shape[1], _ptr(flat.member_idx),
            _ptr(flat.member_dists), _ptr(flat.offsets))


class CKernel:
    """The library's ``scan`` function plus the probed ``ddot`` address."""

    def __init__(self, lib, ddot):
        self.fn = lib.scan
        self.fn.argtypes = _ARGTYPES
        self.fn.restype = ctypes.c_int64
        self.ddot = ddot


class BoundScan:
    """The kernel bound to one :class:`FlatTargets` for one scan call.

    Holds the layout's pointers and its own ``diff`` scratch, so the
    thread-pool shards that scan concurrently (ctypes releases the GIL)
    never share a buffer.  Built per :meth:`FlatScan.scan` call and
    never pickled; the checked pointer layout of a :class:`FlatTargets`
    is computed once per layout object.  ``dense_min`` is the dense
    route's pick threshold (:func:`repro.native.scan_numpy.dense_pick`);
    the default never picks it.
    """

    def __init__(self, kernel, flat, dense_min=NEVER_DENSE):
        self.flat = flat
        self.fn = kernel.fn
        self.dense_min = int(dense_min)
        self.diff = np.empty(flat.points.shape[1])
        self.layout = (kernel.ddot,
                       *_layouts.get(flat, lambda: _pointer_layout(flat)))

    def scan(self, points, rows, cand, ub, k):
        """``(dists, idx, counters, dense)``: the block of one query
        cluster.

        ``points`` (nq, d) and ``rows`` (nq, m) are the cluster's active
        queries and their centre-distance rows.  ``dists``/``idx`` are
        ``(nq, k)``, ascending and padded with ``inf`` / -1;
        ``counters`` is ``(nq, 7)`` in
        :data:`~repro.core.filters.SCAN_COUNTERS` order.  ``dense`` is
        ``None``, or the boolean mask of the queries the dense route
        picked, whose rows are padding and whose counters are 0.
        """
        points = np.ascontiguousarray(points, dtype=np.float64)
        rows = np.ascontiguousarray(rows, dtype=np.float64)
        cand = np.ascontiguousarray(cand, dtype=np.int64)
        nq = points.shape[0]
        m = self.flat.n_clusters
        if (points.shape != (nq, self.diff.size) or rows.shape != (nq, m)
                or k < 1 or (cand.size and not 0 <= cand.min() <= cand.max()
                             < m)):
            raise ValueError("scan inputs do not match the flat layout")
        out_d = np.empty((nq + 1, k))          # the last row is scratch
        out_i = np.empty((nq + 1, k), dtype=np.int64)
        counters = np.empty((nq, len(SCAN_COUNTERS)), dtype=np.int64)
        dense = np.empty(nq, dtype=np.bool_)
        n_dense = self.fn(
            *self.layout, _ptr(points), _ptr(rows), nq, rows.shape[1],
            _ptr(cand), cand.size, float(ub), k, BOUND_COMPARISON_RTOL,
            self.dense_min, _ptr(self.diff), _ptr(out_d[nq]),
            _ptr(out_i[nq]), _ptr(out_d), _ptr(out_i), _ptr(counters),
            _ptr(dense))
        return out_d[:nq], out_i[:nq], counters, dense if n_dense else None


# ----------------------------------------------------------------------
# Loading
# ----------------------------------------------------------------------
def load():
    """The :class:`CKernel`, or ``None`` to use the numpy kernels.

    Built, probed and opened once per process; thread-safe.  Never
    raises: any failure is recorded in :data:`fallback_reason`.
    """
    global _loaded, _kernel, fallback_reason
    if _loaded:
        return _kernel
    with _lock:
        if not _loaded:
            try:
                _kernel = _open()
                fallback_reason = None
            except Exception as exc:   # every failure means "use numpy"
                _kernel = None
                fallback_reason = "%s: %s" % (type(exc).__name__, exc)
                logger.info("C level-2 kernel unavailable, using numpy: %s",
                            fallback_reason,
                            exc_info=not isinstance(exc, _Fallback))
            _loaded = True
    return _kernel


def clear():
    """Forget the loaded kernel, so the next :func:`load` starts over
    (tests)."""
    global _loaded, _kernel, fallback_reason
    with _lock:
        _loaded = False
        _kernel = None
        fallback_reason = None


def _open():
    ddot = find_ddot()
    probe(ddot)
    path = build()
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        # A damaged cache entry (say, a truncated file): rebuild once.
        lib = ctypes.CDLL(build(force=True))
    return CKernel(lib, ctypes.cast(ddot, ctypes.c_void_p).value)


def _blas_libraries():
    """Mapped shared libraries of this process that look like a BLAS
    (numpy is imported, so its BLAS is among them)."""
    paths = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                if "blas" in os.path.basename(path) and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def find_ddot():
    """numpy's BLAS ``ddot`` as a ctypes function."""
    for path in _blas_libraries():
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in DDOT_SYMBOLS:
            try:
                return _DDOT((name, lib))
            except AttributeError:
                continue
    raise _Fallback("no BLAS ddot symbol (%s) in numpy's libraries"
                    % ", ".join(DDOT_SYMBOLS))


def probe(ddot):
    """Raise unless ``ddot`` equals ``np.dot`` bit for bit on the probe."""
    rng = np.random.default_rng(20170419)
    for d in PROBE_DIMS:
        x = rng.normal(size=d) * 10.0 ** rng.integers(-3, 4, size=d)
        got = ddot(d, _ptr(x), 1, _ptr(x), 1)
        if np.float64(got).tobytes() != np.dot(x, x).tobytes():
            raise _Fallback("ddot disagrees with np.dot at d=%d" % d)


def cache_dirs():
    """Candidate cache directories, preferred first."""
    base = (os.environ.get("XDG_CACHE_HOME")
            or os.path.join(os.path.expanduser("~"), ".cache"))
    uid = os.getuid() if hasattr(os, "getuid") else 0
    return (os.path.join(base, "repro"),
            os.path.join(tempfile.gettempdir(), "repro-%d" % uid))


def _private_dir(directory):
    """Create ``directory``; raise OSError unless only this user can
    write to it (a library loaded from it runs as this user)."""
    os.makedirs(directory, mode=0o700, exist_ok=True)
    st = os.stat(directory)
    if (hasattr(os, "getuid") and st.st_uid != os.getuid()) \
            or st.st_mode & 0o022:
        raise OSError("writable by other users")


def build(force=False):
    """Path of the compiled library, compiling it if not cached."""
    cc = shutil.which("cc")
    if cc is None:
        raise _Fallback("no C compiler: cc is not on PATH")
    version = subprocess.run([cc, "--version"], capture_output=True,
                             check=True, timeout=60).stdout
    with open(SOURCE, "rb") as source:
        key = hashlib.sha256(source.read() + b"\0" + " ".join(CFLAGS).encode()
                             + b"\0" + version).hexdigest()[:16]
    name = "_scan-%s.so" % key
    errors = []
    for directory in cache_dirs():
        path = os.path.join(directory, name)
        try:
            _private_dir(directory)
            if os.path.exists(path) and not force:
                return path
            fd, tmp = tempfile.mkstemp(prefix=name + ".", dir=directory)
        except OSError as exc:
            errors.append("%s: %s" % (directory, exc))
            continue
        os.close(fd)
        try:
            proc = subprocess.run([cc, *CFLAGS, "-o", tmp, SOURCE, "-lm"],
                                  capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                raise _Fallback("cc failed (exit %d): %s" % (
                    proc.returncode, proc.stderr.strip()[-500:]))
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
        return path
    raise _Fallback("no usable cache directory: " + "; ".join(errors))
