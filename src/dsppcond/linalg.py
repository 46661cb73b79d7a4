"""Dense linear-algebra kernel.

Input coercion, the pseudo-reciprocal, the infinity norm (LAPACK dlange),
row-pivoted solves certified by a condition estimate, and the one 2-norm
route: a deterministic Lanczos run on an operator v -> G v, whose Ritz
pair (:func:`top_eig`) gives the values and worst-case directions, and
whose top end, certified by a Cholesky factorization (:func:`_norm_upper`),
gives the bounds. Everything operates on float64 numpy arrays and is pure,
apart from the BLAS thread pins that the command line and each experiment
row wrap around their work.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import itertools
import os
import warnings

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, SingularMatrix, UncertifiedBound


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


# Seed of the Lanczos start vector. Fixed, so every run takes the same steps
# and prints the same digits.
_LANCZOS_SEED = 0


def _lanczos(apply, k: int):
    """Lanczos with full reorthogonalization on a symmetric positive
    semidefinite operator on R^k; ``apply(v)`` returns G v as a new array.

    Starts from a fixed seeded Gaussian vector. After step j the top
    eigenpair (theta, s) of the j x j tridiagonal T_j comes from
    ``eigh_tridiagonal``, and the Ritz pair (theta, Q_j s) has residual norm
    beta_j |s_j|. Yields that pair at every step where beta_j |s_j| <= k eps
    theta, where the Krylov space is invariant (beta_j = 0), and at step k,
    where Q_k spans R^k and T_k is G in that basis: the run is exact for
    small k. A caller that needs more than the first pair continues the run.
    """
    eps = np.finfo(float).eps
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(k)
    basis = np.empty((min(k, 32), k))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(k), np.empty(k)
    for j in range(k):
        span = basis[: j + 1]
        w = apply(span[j])
        # Projecting out the whole basis twice keeps it orthonormal to rounding.
        h = span @ w
        alpha[j] = h[j]
        w -= h @ span
        w -= (span @ w) @ span
        b = float(np.linalg.norm(w))
        lam, s = scipy.linalg.eigh_tridiagonal(
            alpha[: j + 1], beta[:j], select="i", select_range=(j, j), check_finite=False
        )
        theta, s = float(lam[0]), s[:, 0]
        last = j + 1 == k or b == 0.0
        if last or b * abs(s[-1]) <= k * eps * theta:
            yield theta, s @ span
        if last:
            return
        beta[j] = b
        if j + 1 == basis.shape[0]:
            basis = np.concatenate([basis, np.empty((min(j + 1, k - j - 1), k))])
        np.divide(w, b, out=basis[j + 1])


def top_eig(apply, k: int) -> tuple[float, np.ndarray]:
    """Top eigenpair ``(lam, u)`` of a symmetric positive semidefinite
    operator ``apply(v) = G v`` on R^k: the first Ritz pair of
    :func:`_lanczos`, lam clamped at 0 (rounding may leave it slightly
    negative), u of unit 2-norm. A Ritz value never exceeds lam_max(G) beyond
    rounding, so lam is a lower end; a bound takes :func:`_norm_upper`."""
    theta, u = next(_lanczos(apply, k))
    return max(theta, 0.0), u


def _norm_upper(m) -> float:
    """A certified upper end for ||M||_2, for the bounds.

    M (or M^T, whichever has the smaller Gram) is scaled by a power of two,
    exactly, to T with max |t_ij| in [1/2, 1); T is k x n with k <= n. The
    explicit Gram Gh = fl(T T^T) runs :func:`_lanczos`, and for each Ritz
    value theta it yields, tau = theta + 2 (k + 2) eps ||Gh||_inf is
    accepted once the Cholesky factorization of Ah = fl(tau I - Gh)
    succeeds. The shift only lets that test pass: converged to the top, the
    Ritz value is at most k eps theta below lam_max(Gh), and the rest leaves
    Ah room above the factorization's rounding. With R the computed
    Cholesky factor and rho = || |R|^T |R| 1 ||_inf, the end returned is
    2^e sqrt(tau + (k + 2) eps rho + (n + 1) eps tr(Gh)), rounded up, and
    dominates ||M||_2 = 2^e lam_max(T T^T)^{1/2}. With u = eps / 2 and
    gamma_j = j u / (1 - j u) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3 and 10):

    * forming Gh: |Gh - G| <= gamma_n |T| |T|^T entrywise, and
      || |T| |T|^T ||_2 <= ||T||_F^2 = tr(G) <= tr(Gh) / (1 - gamma_n), so
      lam_max(G) <= lam_max(Gh) + gamma_n tr(Gh) / (1 - gamma_n);
    * the factorization: if it succeeds, R^T R = Ah + dA with
      |dA| <= gamma_{k+1} |R^T| |R| (Higham, Thm 10.3). A symmetric
      nonnegative matrix has 2-norm at most its largest row sum, so
      ||dA||_2 <= gamma_{k+1} rho;
    * forming Ah: only the diagonal rounds, Ah = tau I - Gh + F with
      |F_ii| <= u |ah_ii| / (1 - u), and ah_ii <= (1 + gamma_{k+1}) rho by
      the line above, so ||F||_2 <= gamma_1 (1 + gamma_{k+1}) rho. As R^T R
      is semidefinite, lam_max(Gh) <= tau + ||dA||_2 + ||F||_2.

    Summed, lam_max(G) <= tau + 1.01 ((k + 2) u rho + n u tr(Gh)) for any
    k, n below 10^13; the two eps terms above are twice that, which also
    covers the rounding of rho and the trace. Underflow in Gh is
    negligible, since tr(Gh) >= 1/4. If no Ritz value of the run passes,
    raises :class:`UncertifiedBound`. Returns 0 for a zero matrix.
    """
    m = as_matrix(m)
    t = m if m.shape[0] <= m.shape[1] else m.T
    big = float(np.abs(t).max(initial=0.0))
    if big == 0.0:
        return 0.0
    e = int(np.frexp(big)[1])
    t = np.ldexp(t, -e)
    k, n = t.shape
    eps = np.finfo(float).eps
    g = t @ t.T
    shift = 2 * (k + 2) * eps * float(np.abs(g).sum(axis=1).max())
    rounding = (n + 1) * eps * float(np.trace(g))
    for theta, _ in _lanczos(g.__matmul__, k):
        tau = theta + shift
        a = -g
        a[np.diag_indices(k)] += tau
        # a.T is a in Fortran order, so LAPACK factors in place.
        r, info = scipy.linalg.lapack.dpotrf(a.T, overwrite_a=True)
        if info == 0:
            np.abs(r, out=r)
            rho = float((r.sum(axis=1) @ r).max())
            end = np.nextafter(tau + (k + 2) * eps * rho + rounding, np.inf)
            return float(np.ldexp(np.nextafter(np.sqrt(end), np.inf), e))
    raise UncertifiedBound(f"no Ritz value of the {k} x {k} Gram passed the Cholesky test")


def _norm_inf(m) -> float:
    """||M||_inf, the largest row sum of |M|: LAPACK dlange's 1-norm of the
    Fortran view M^T, with no |M| temporary."""
    return float(scipy.linalg.lapack.dlange("1", m.T))


class LuSolver:
    """Row-pivoted LU factorization with a singularity certificate.

    After factoring, LAPACK ``dgecon`` estimates the reciprocal 1-norm
    condition number ``rcond`` from the LU factors in O(l^2). Factoring raises
    :class:`SingularMatrix` when ``rcond`` falls below the floor l * eps (a
    zero matrix is rejected outright), so a constructed instance certifies
    that M is numerically nonsingular: cond_1(M) <= 1 / (l * eps). The
    norms ``norm_one`` and ``norm_inf`` of M are kept.
    """

    def __init__(self, m):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"square matrix required, got {m.shape}")
        # M's 1-norm is the infinity norm of the Fortran view M^T.
        self.norm_inf = _norm_inf(m)
        self.norm_one = float(scipy.linalg.lapack.dlange("I", m.T))
        if self.norm_inf == 0.0:
            raise SingularMatrix("zero matrix")
        with warnings.catch_warnings():
            # The rcond check below turns exact singularity into
            # SingularMatrix; scipy's advisory warning is redundant here.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            lu, piv = scipy.linalg.lu_factor(m, check_finite=False)
        self.rcond = float(scipy.linalg.lapack.dgecon(lu, self.norm_one, norm="1")[0])
        floor = m.shape[0] * np.finfo(float).eps
        if not self.rcond >= floor:  # a NaN estimate fails too
            raise SingularMatrix(f"rcond estimate {self.rcond:.3e} below {floor:.3e}")
        self._lu = (lu, piv)
        self.shape = m.shape

    def solve(self, rhs, transpose: bool = False, overwrite: bool = False) -> np.ndarray:
        """Solve ``M x = rhs`` (or ``M^T x = rhs``); rhs may be 1-D or 2-D.

        With ``overwrite``, the float64 array ``rhs`` receives the solution
        and is returned; LAPACK solves in place, with no copy, when ``rhs`` is
        Fortran-contiguous.
        """
        rhs = np.asarray(rhs, dtype=float)
        if rhs.shape[0] != self.shape[0]:
            raise DimensionMismatch(
                f"rhs has {rhs.shape[0]} rows, matrix is {self.shape[0]}x{self.shape[1]}"
            )
        x = scipy.linalg.lu_solve(
            self._lu, rhs, trans=1 if transpose else 0, overwrite_b=overwrite, check_finite=False
        )
        if overwrite and x is not rhs:
            rhs[...] = x
            return rhs
        return x


# Per package, an extension module that links its BLAS. dlsym on a loaded
# module also searches the libraries it links, wherever they are installed
# (a wheel's bundled copy, a distribution's or conda's libopenblas); Windows
# does not, so the wheel's own <name>.libs directory is searched as well.
_BLAS_EXTENSIONS = {"numpy": "numpy.linalg._umath_linalg", "scipy": "scipy.linalg._fblas"}


@functools.cache
def _openblas_threads(package):
    """``(get, set)`` for the thread count of the OpenBLAS that ``package``
    (the numpy or scipy module) calls, or None when it calls another BLAS
    (MKL or Accelerate, say).

    The wheels of numpy >= 2 and scipy >= 1.13 prefix the symbols with
    ``scipy_``, earlier wheels and system builds do not; a 64-bit-integer
    build suffixes them with ``64_``.
    """
    module = importlib.import_module(_BLAS_EXTENSIONS[package.__name__])
    libdir = os.path.join(os.path.dirname(package.__file__), os.pardir, f"{package.__name__}.libs")
    for path in (module.__file__, *glob.glob(os.path.join(libdir, "*openblas*"))):
        lib = ctypes.CDLL(path)
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _blas_single_thread(*packages):
    """Run the OpenBLAS of each of ``packages`` (numpy, scipy) on one thread
    inside the block, then restore each count, also on an exception. A
    package on another BLAS is left alone.

    numpy and scipy each bundle their own OpenBLAS. After a threaded call a
    pool's workers keep spinning, so numpy products and scipy LAPACK calls
    in turn (LU, solves, dgecon, Cholesky) compete for the same cores. The
    command line pins numpy's: its products run in the calling thread and
    scipy's pool, still sized by OPENBLAS_NUM_THREADS, does all threaded
    work. Experiment rows pin both, so their rounding does not depend on
    the thread count.
    """
    pools = [pool for pool in map(_openblas_threads, packages) if pool is not None]
    before = [get() for get, _ in pools]
    for _, set_ in pools:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(pools, before):
            set_(count)
