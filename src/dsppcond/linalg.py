"""Dense linear-algebra kernel.

Column-stacking vec/Kronecker utilities, entrywise operations, induced norms,
row-pivoted solves certified by a condition estimate, and top singular
triplets. Everything operates on float64 numpy arrays and is pure.
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


def induced_norm(m, kind: str) -> float:
    """Induced matrix norm: ``"two"`` (spectral) or ``"inf"`` (max row sum)."""
    m = as_matrix(m)
    if kind == "two":
        if m.size == 0:
            return 0.0
        return float(np.linalg.svd(m, compute_uv=False)[0])
    if kind == "inf":
        if m.size == 0:
            return 0.0
        return float(np.abs(m).sum(axis=1).max())
    raise ValueError(f"unknown norm kind {kind!r}")


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

    Returns ``(sigma, u, v)`` with ``M v = sigma u`` up to roundoff. Raises
    :class:`ZeroMatrix` for an all-zero input.
    """
    m = as_matrix(m)
    if not np.any(m):
        raise ZeroMatrix("spectral_top of a zero matrix")
    u_full, s, vt = np.linalg.svd(m)
    return float(s[0]), u_full[:, 0], vt[0, :]
