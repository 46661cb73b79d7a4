"""Dense linear-algebra kernel.

Input coercion, the pseudo-reciprocal, induced norms, row-pivoted solves
certified by a condition estimate, and the top-eigenpair kernel behind every
2-norm value and top singular triplet. Everything operates on float64 numpy
arrays and is pure, apart from the thread pin the command line wraps around
each command.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import os
import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SingularMatrix, ZeroMatrix


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a finite float64 2-D array."""
    m = np.asarray(a, dtype=float)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got ndim={m.ndim}")
    if m.size and not np.all(np.isfinite(m)):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite float64 1-D array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.size and not np.all(np.isfinite(v)):
        raise ValueError(f"{name} has non-finite entries")
    return v


def ddagger(z) -> np.ndarray:
    """Pseudo-reciprocal: 1/z_i where z_i is nonzero, exactly 1 elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = 1.0 / z[nz]
    return out


def top_eig(s) -> tuple[float, np.ndarray]:
    """Top eigenpair ``(lam, v)`` of the symmetric part of a positive semidefinite
    ``s``, from one LAPACK call for that pair only: lam clamped at 0 (rounding
    may leave it slightly negative), v of unit 2-norm."""
    k = s.shape[0]
    sym = s + s.T
    sym *= 0.5
    # sym.T is sym in Fortran order, so LAPACK works in place: no second copy.
    lam, v = scipy.linalg.eigh(sym.T, subset_by_index=[k - 1, k - 1], overwrite_a=True)
    return float(max(lam[0], 0.0)), v[:, 0]


def induced_norm(m, kind: str) -> float:
    """Induced matrix norm: ``"two"`` (spectral) or ``"inf"`` (max row sum).

    The spectral norm is the sigma of :func:`spectral_top` of m or m^T,
    whichever has the smaller Gram.
    """
    m = as_matrix(m)
    if kind not in ("two", "inf"):
        raise ValueError(f"unknown norm kind {kind!r}")
    if not np.any(m):
        return 0.0
    if kind == "inf":
        return float(np.abs(m).sum(axis=1).max())
    return spectral_top(m if m.shape[0] <= m.shape[1] else m.T)[0]


class LuSolver:
    """Row-pivoted LU factorization with a singularity certificate.

    After factoring, LAPACK ``dgecon`` estimates the reciprocal 1-norm
    condition number ``rcond`` from the LU factors in O(l^2). Factoring raises
    :class:`SingularMatrix` when ``rcond`` falls below the floor l * eps (a
    zero matrix is rejected outright), so a constructed instance certifies
    that M is numerically nonsingular: cond_1(M) <= 1 / (l * eps).
    """

    def __init__(self, m):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"square matrix required, got {m.shape}")
        # Both norms from one |M|, dropped before lu_factor copies M.
        a = np.abs(m)
        self.norm_inf = float(a.sum(axis=1).max(initial=0.0))
        norm_one = float(a.sum(axis=0).max(initial=0.0))
        del a
        if self.norm_inf == 0.0:
            raise SingularMatrix("zero matrix")
        with warnings.catch_warnings():
            # The rcond check below turns exact singularity into
            # SingularMatrix; scipy's advisory warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
        self.rcond = float(scipy.linalg.lapack.dgecon(lu, norm_one, norm="1")[0])
        floor = m.shape[0] * np.finfo(float).eps
        if not self.rcond >= floor:  # a NaN estimate fails too
            raise SingularMatrix(f"rcond estimate {self.rcond:.3e} below {floor:.3e}")
        self._lu = (lu, piv)
        self.shape = m.shape

    def solve(self, rhs, transpose: bool = False) -> np.ndarray:
        """Solve ``M x = rhs`` (or ``M^T x = rhs``); rhs may be 1-D or 2-D."""
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, matrix is {self.shape[0]}x{self.shape[1]}"
            )
        return scipy.linalg.lu_solve(self._lu, rhs, trans=1 if transpose else 0, check_finite=False)


def spectral_top(m) -> tuple[float, np.ndarray, np.ndarray]:
    """Largest singular value with its left/right singular vectors.

    Returns ``(sigma, u, v)`` with ``M v = sigma u`` up to roundoff: sigma^2
    and u are the top eigenpair of M M^T, and v = M^T u / sigma. Raises
    :class:`ZeroMatrix` for an all-zero input.
    """
    m = as_matrix(m)
    if not np.any(m):
        raise ZeroMatrix("spectral_top of a zero matrix")
    # Scaled by c = max |m_ij|, the Gram neither overflows nor underflows.
    c = float(np.abs(m).max())
    t = m / c
    lam, u = top_eig(t @ t.T)
    sigma = c * float(np.sqrt(lam))
    return sigma, u, m.T @ u / sigma


def _numpy_openblas_threads():
    """``(get, set)`` for the thread count of numpy's bundled OpenBLAS, or
    None when numpy has none (a build on MKL or Accelerate, say)."""
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        get = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        set_ = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def _numpy_blas_single_thread():
    """Run numpy's OpenBLAS on one thread inside the block, then restore its
    count, also on an exception.

    numpy and scipy each bundle their own OpenBLAS. After a threaded call a
    pool's workers keep spinning, so numpy products and scipy LAPACK calls
    in turn (LU, solves, dgecon, eigh) compete for the same cores. Pinned,
    numpy's products run in the calling thread and scipy's pool, still
    sized by OPENBLAS_NUM_THREADS, does all threaded work.
    """
    pool = _numpy_openblas_threads()
    if pool is None:
        yield
        return
    get, set_ = pool
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
