"""Dense linear-algebra kernel.

Column-stacking vec/Kronecker utilities, entrywise operations, induced norms,
row-pivoted solves certified by a condition estimate, and the top-eigenpair
kernel behind every 2-norm value and top singular triplet. Everything
operates on float64 numpy arrays and is pure.
"""

from __future__ import annotations

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


def vec(m) -> np.ndarray:
    """Stack the columns of ``m`` into one vector (column-major flatten)."""
    return as_matrix(m).flatten(order="F")


def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Inverse of :func:`vec`: rebuild a ``rows x cols`` matrix column-major."""
    v = as_vector(v)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {v.size} to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def kron(x, y) -> np.ndarray:
    """Kronecker product of two matrices: block (i, j) is x[i, j] * y."""
    x, y = as_matrix(x), as_matrix(y)
    out = x[:, None, :, None] * y[None, :, None, :]
    return out.reshape(x.shape[0] * y.shape[0], x.shape[1] * y.shape[1])


def ddagger(z) -> np.ndarray:
    """Pseudo-reciprocal: 1/z_i where z_i is nonzero, exactly 1 elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = 1.0 / z[nz]
    return out


def hadamard(x, y) -> np.ndarray:
    """Entrywise product, shapes must match exactly."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"hadamard shapes differ: {x.shape} vs {y.shape}")
    return x * y


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
        self.norm_inf = induced_norm(m, "inf")
        if self.norm_inf == 0.0:
            raise SingularMatrix("zero matrix")
        with warnings.catch_warnings():
            # The rcond check below turns exact singularity into
            # SingularMatrix; scipy's advisory warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
        norm_one = float(np.abs(m).sum(axis=0).max())
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


def solve(m, rhs) -> np.ndarray:
    """Solve ``M x = rhs`` by row-pivoted factorization.

    Raises :class:`SingularMatrix` when the rcond estimate of M falls below
    the floor l * eps (see :class:`LuSolver`).
    """
    return LuSolver(m).solve(rhs)


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
