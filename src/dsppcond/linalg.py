"""Dense linear-algebra kernel.

Input coercion, the pseudo-reciprocal, the infinity norm (LAPACK dlange),
row-pivoted solves screened by a condition estimate, and the one 2-norm
route: a deterministic Lanczos run on an operator v -> G v, whose Ritz
value (:func:`top_eig`) gives the values, and whose top end, certified by a
Cholesky factorization (:func:`_norm_upper`), gives the bounds. Everything operates on float64 numpy arrays and is pure,
apart from the BLAS thread pins that the command line and each experiment
row wrap around their work.

The LAPACK and BLAS routines (dgetrf, dgetrs, dgecon, dlange, dpotrf,
dstebz, dstein, dger, dsyrk; contracts in Anderson et al., LAPACK Users'
Guide, SIAM 1999) are called through ctypes in the one OpenBLAS that
numpy links, so the package loads one BLAS with one thread pool. Their symbols
are found by name: prefixed ``scipy_`` (the numpy >= 2 wheels) or not, and
suffixed ``_64_`` (64-bit integer arguments) or ``_`` (32-bit). Where numpy's
library exports none of these namings, importing the package raises
ImportError.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import glob
import importlib
import itertools
import os

import numpy as np

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


# Entries per chunk buffer of the chunked kernels: the Gram of _norm_upper
# here, and the max-norm pair kernel and |L S^{-1}| products of
# :mod:`~dsppcond.partial_cn`. One float64 chunk takes at most 512 KiB, so
# their transients beside their inputs do not grow with the data, and the
# passes each kernel makes over a chunk stay in a 2 MiB L2 cache.
_CHUNK_ENTRY_LIMIT = 1 << 16

# The routines called in numpy's LAPACK and BLAS, with the number of their
# arguments; the CHARACTER ones among them (the second number) each take a
# hidden length, which gfortran appends after the listed arguments.
_ROUTINES = {
    "dgetrf": (6, 0), "dgetrs": (9, 1), "dgecon": (9, 1), "dlange": (6, 1),
    "dpotrf": (5, 1), "dstebz": (18, 2), "dstein": (13, 0), "dger": (9, 0),
    "dsyrk": (10, 2),
}
_NAMINGS = tuple(itertools.product(("scipy_", ""), ("_64_", "_")))


def _blas_libraries():
    """The loaded libraries to search for BLAS symbols: numpy's linalg
    extension, then, for Windows, the OpenBLAS in the wheel's numpy.libs.
    dlsym on a loaded module also searches the libraries it links, wherever
    they are installed (the wheel's bundled copy, a distribution's or
    conda's libopenblas); Windows does not."""
    module = importlib.import_module("numpy.linalg._umath_linalg")
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in (module.__file__, *glob.glob(os.path.join(libdir, "*openblas*"))):
        yield ctypes.CDLL(path)


def _bind():
    """``(routines, integer dtype)``: each routine of ``_ROUTINES`` as a
    ctypes function under the first naming that the library exports in
    full, and the numpy dtype of its INTEGER arguments."""
    for lib in _blas_libraries():
        for prefix, suffix in _NAMINGS:
            try:
                funcs = {name: lib[f"{prefix}{name}{suffix}"] for name in _ROUTINES}
            except AttributeError:
                continue
            for name, func in funcs.items():
                args, chars = _ROUTINES[name]
                func.argtypes = [ctypes.c_void_p] * args + [ctypes.c_size_t] * chars
                func.restype = ctypes.c_double if name == "dlange" else None
            return funcs, np.dtype(np.int64 if suffix == "_64_" else np.int32)
    names = ", ".join(f"{prefix}{name}{suffix}" for prefix, suffix in _NAMINGS for name in _ROUTINES)
    raise ImportError(f"numpy's BLAS/LAPACK library exports none of the namings tried: {names}")


_LAPACK, _INT = _bind()
_CINT = np.ctypeslib.as_ctypes_type(_INT)


def _call(name: str, *args):
    """Call the routine ``name``, every argument by reference as Fortran
    takes it: an ndarray by its data address, an int as an INTEGER, a float
    as a DOUBLE PRECISION, a str as a CHARACTER (its hidden length
    appended). The boxed scalars live in ``boxes`` until the call returns."""
    boxes, addresses, lengths = [], [], []
    for arg in args:
        if isinstance(arg, np.ndarray):
            addresses.append(arg.ctypes.data)
            continue
        if isinstance(arg, str):
            box = ctypes.c_char(arg.encode())
            lengths.append(len(arg))
        elif isinstance(arg, float):
            box = ctypes.c_double(arg)
        else:
            box = _CINT(arg)
        boxes.append(box)
        addresses.append(ctypes.addressof(box))
    return _LAPACK[name](*addresses, *lengths)


def _info(name: str, info) -> int:
    """The INFO output of ``name``; a negative one, an illegal argument, raises."""
    code = int(info[0])
    if code < 0:
        raise ValueError(f"illegal value in argument {-code} of LAPACK {name}")
    return code


def _lange(norm: str, m) -> float:
    """LAPACK dlange's ``norm`` ("1" or "I") of the Fortran view M^T. A
    Fortran-ordered M is read in place, as the Fortran matrix M under the
    other norm: both sum each row or column of M in the same order, so the
    value is bitwise the same."""
    if m.flags.f_contiguous and not m.flags.c_contiguous:
        return _lange("1" if norm == "I" else "I", m.T)
    a = np.ascontiguousarray(m, dtype=float)
    rows, cols = a.shape
    work = np.empty(max(1, cols))
    return _call("dlange", norm, cols, rows, a, max(1, cols), work)


class _TopTridiagonal:
    """The top eigenpair of the leading n x n block of the symmetric
    tridiagonal matrix with diagonal ``d`` and off-diagonal ``e``, for any n
    up to d.size: LAPACK dstebz by bisection for the largest eigenvalue, then
    dstein by inverse iteration for its unit eigenvector. A failure to
    converge raises LinAlgError.

    One workspace of size d.size serves every n, and its addresses, and
    those of d and e, are taken once, here, as :class:`RankOneUpdate` takes
    dger's: a call is two foreign calls with no array conversion. d and e
    are read at each call, so a Lanczos run fills them in between. The
    eigenvector returned is a view of the workspace, valid until the next
    call.
    """

    def __init__(self, d, e):
        for arr in (d, e):
            if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64 and arr.ndim == 1
                    and arr.flags.c_contiguous):
                raise ValueError("contiguous float64 vectors required")
        size = d.size
        if e.size < size - 1:
            raise DimensionMismatch(f"e needs at least {size - 1} entries")
        # Cells: n (also IL = IU = n and LDZ), found, nsplit, info, and
        # dstein's M = 1; then the doubles VL = VU = ABSTOL = 0.
        self._cells, self._zero = np.array([0, 0, 0, 0, 1], dtype=_INT), np.zeros(1)
        self._w, self._z, self._work = np.empty(size), np.empty(size), np.empty(5 * size)
        self._iblock, self._isplit = np.empty(size, _INT), np.empty(size, _INT)
        self._iwork, self._ifail = np.empty(3 * size, _INT), np.empty(1, _INT)
        self._chars = ctypes.create_string_buffer(b"IB")
        self._d, self._e, self._size = d, e, size
        cell = self._cells.ctypes.data
        n, found, nsplit, info, one = (cell + i * _INT.itemsize for i in range(5))
        zero, char = self._zero.ctypes.data, ctypes.addressof(self._chars)
        d_at, e_at, w, iblock, isplit, work, iwork = (
            a.ctypes.data for a in (d, e, self._w, self._iblock, self._isplit, self._work, self._iwork))
        self._stebz = (char, char + 1, n, zero, zero, n, n, zero, d_at, e_at, found, nsplit, w,
                       iblock, isplit, work, iwork, info, 1, 1)
        self._stein = (n, d_at, e_at, one, w, iblock, isplit, self._z.ctypes.data, n, work, iwork,
                       self._ifail.ctypes.data, info)

    def __call__(self, n: int) -> tuple[float, np.ndarray]:
        if not 1 <= n <= self._size:
            raise IndexError(f"block size {n} out of range")
        if n == 1:
            return float(self._d[0]), np.ones(1)
        cells = self._cells
        cells[0] = n
        _LAPACK["dstebz"](*self._stebz)
        if _info("dstebz", cells[3:]) or cells[1] != 1:
            raise np.linalg.LinAlgError("dstebz found no top eigenvalue")
        _LAPACK["dstein"](*self._stein)
        if _info("dstein", cells[3:]):
            raise np.linalg.LinAlgError("dstein: the top eigenvector did not converge")
        return float(self._w[0]), self._z[:n]


class RankOneUpdate:
    """In-place rank-one updates ``a[:, :n] += xs[:, r] y[:n]^T`` (BLAS dger)
    of one Fortran-ordered float64 buffer ``a``.

    The arrays are checked and their addresses taken once, here, so that an
    update (``update(r, n)``) is one foreign call with no array conversion;
    the updater keeps them alive. ``xs`` may be any float64 view whose
    columns have a positive element stride, such as the read-only rows of a
    :class:`~dsppcond.partial_cn.Factors` buffer. Each updater owns the cells
    its scalar arguments are passed in, so updaters share no state.
    """

    def __init__(self, a, xs, y):
        for arr, ndim in ((a, 2), (xs, 2), (y, 1)):
            if not (isinstance(arr, np.ndarray) and arr.dtype == np.float64
                    and arr.ndim == ndim and arr.flags.aligned):
                raise ValueError(f"float64 {ndim}-D arrays required")
        m = a.shape[0]
        if not (a.flags.f_contiguous and a.flags.writeable):
            raise ValueError("a must be a writeable Fortran-ordered array")
        if xs.shape[0] != m or not (y.flags.c_contiguous and y.size >= a.shape[1]):
            raise DimensionMismatch(f"xs needs {m} rows and y at least {a.shape[1]} contiguous entries")
        incx = xs.strides[0] // 8 if m > 1 else 1
        if incx <= 0:
            raise ValueError("the columns of xs need a positive stride")
        self._arrays = (a, xs, y)
        # Cells: m, n, incx, incy, lda; then alpha = 1.
        self._cells = np.array([m, 0, incx, 1, max(1, m)], dtype=_INT)
        self._alpha = np.ones(1)
        cell = self._cells.ctypes.data
        self._m, self._n, self._incx, self._incy, self._lda = (cell + i * _INT.itemsize for i in range(5))
        self._alpha_at = self._alpha.ctypes.data
        self._x, self._x_step, self._cols = xs.ctypes.data, xs.strides[1], xs.shape[1]
        self._y, self._a, self._capacity = y.ctypes.data, a.ctypes.data, a.shape[1]

    def update(self, r: int, n: int) -> None:
        if not (0 <= r < self._cols and 0 <= n <= self._capacity):
            raise IndexError(f"column {r} or width {n} out of range")
        self._cells[1] = n
        _LAPACK["dger"](self._m, self._n, self._alpha_at, self._x + r * self._x_step,
                        self._incx, self._y, self._incy, self._a, self._lda)


# Seed of the Lanczos start vector. Fixed, so every run takes the same steps
# and prints the same digits.
_LANCZOS_SEED = 0


def _lanczos(apply, k: int):
    """Lanczos with full reorthogonalization on a symmetric positive
    semidefinite operator on R^k; ``apply(v)`` returns G v as a new array.

    Starts from a fixed seeded Gaussian vector. After step j the top
    eigenpair (theta, s) of the j x j tridiagonal T_j comes from the run's
    one :class:`_TopTridiagonal` workspace, and the Ritz pair (theta, Q_j s)
    has residual norm beta_j |s_j|. Yields that pair at every step where
    beta_j |s_j| <= k eps theta, where the Krylov space is invariant
    (beta_j = 0), and at step k, where Q_k spans R^k and T_k is G in that
    basis: the run is exact for small k. A caller that needs more than the
    first pair continues the run.
    """
    eps = np.finfo(float).eps
    start = np.random.default_rng(_LANCZOS_SEED).standard_normal(k)
    basis = np.empty((min(k, 32), k))
    basis[0] = start / np.linalg.norm(start)
    alpha, beta = np.empty(k), np.empty(k)
    ritz = _TopTridiagonal(alpha, beta)
    for j in range(k):
        span = basis[: j + 1]
        w = apply(span[j])
        # Projecting out the whole basis twice keeps it orthonormal to rounding.
        h = span @ w
        alpha[j] = h[j]
        w -= h @ span
        w -= (span @ w) @ span
        b = float(np.linalg.norm(w))
        theta, s = ritz(j + 1)
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


# Rows of the diagonal blocks that _norm_upper's triangle copies walk: a
# block's transposed copy stays in the L1 cache, and a pass over a k x k
# matrix takes k / 128 Python steps.
_TILE = 128


def _triangles(g):
    """The strict triangles of the square C-ordered ``g`` by diagonal blocks:
    for rows lo:hi, ``(lower, upper, block, below)`` with lower =
    g[lo:hi, :lo], upper = g[:lo, lo:hi] (lower's mirror image), the
    diagonal block g[lo:hi, lo:hi] and the mask of its strict lower
    triangle."""
    below = np.tri(_TILE, _TILE, -1, dtype=bool)
    k = g.shape[0]
    for lo in range(0, k, _TILE):
        hi = min(lo + _TILE, k)
        yield g[lo:hi, :lo], g[:lo, lo:hi], g[lo:hi, lo:hi], below[: hi - lo, : hi - lo]


def _norm_upper(m) -> float:
    """A certified upper end for ||M||_2, for the bounds.

    M (or M^T, whichever has the smaller Gram) is scaled by a power of two,
    exactly, to T with max |t_ij| in [1/2, 1); T is k x n with k <= n. The
    Gram Gh = fl(T T^T) runs :func:`_lanczos`, and for each Ritz value theta
    it yields, tau = theta + 2 (k + 2) eps ||Gh||_inf is accepted once the
    Cholesky factorization of Ah = fl(tau I - Gh) succeeds. The shift only
    lets that test pass: converged to the top, the Ritz value is at most
    k eps theta below lam_max(Gh), and the rest leaves Ah room above the
    factorization's rounding. With R the computed Cholesky factor and
    rho = || |R|^T |R| 1 ||_inf, the end returned is
    2^e sqrt(tau + (k + 2) eps rho + (n + 1) eps tr(Gh)), rounded up, and
    dominates ||M||_2 = 2^e lam_max(T T^T)^{1/2}. With u = eps / 2 and
    gamma_j = j u / (1 - j u) (Higham, Accuracy and Stability of Numerical
    Algorithms, ch. 3 and 10):

    * forming Gh: each entry is a sum of n products, which BLAS dsyrk adds
      chunk by chunk (below) in an order of its own. The bound
      |Gh - G| <= gamma_n |T| |T|^T entrywise holds whatever the order of
      the summation (Higham, sec. 3.1), and
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

    Memory: one k x k array g and one chunk buffer. T is never copied
    whole: column chunks of at most max(64, ``_CHUNK_ENTRY_LIMIT`` / k)
    columns are scaled into the buffer and added by dsyrk (beta = 1) into
    g's lower triangle, which is mirrored into the upper one for the
    Lanczos products; Gh's diagonal is kept in a k-vector. Ah is formed in
    the lower triangle, its strict part negated and its diagonal
    tau - gh_ii from the saved vector, and LAPACK dpotrf factors it there in
    place. Neither step touches the upper triangle, so after a failed
    factorization copying it back, and the diagonal from the vector,
    restores bitwise the Gh that the Lanczos run continues on: both are
    exact copies of what the mirror copied from.
    """
    m = as_matrix(m)
    t = m if m.shape[0] <= m.shape[1] else m.T
    big = max(float(t.max(initial=0.0)), -float(t.min(initial=0.0)))
    if big == 0.0:
        return 0.0
    e = int(np.frexp(big)[1])
    k, n = t.shape
    eps = np.finfo(float).eps
    g = np.zeros((k, k))
    width = min(n, max(64, _CHUNK_ENTRY_LIMIT // k))
    chunk = np.empty((k, width))
    for lo in range(0, n, width):
        cols = min(width, n - lo)
        # BLAS reads the C-ordered chunk as the Fortran matrix chunk^T (with
        # leading dimension width), and g's lower triangle as the upper one
        # of the Fortran matrix g^T.
        np.ldexp(t[:, lo : lo + cols], -e, out=chunk[:, :cols])
        _call("dsyrk", "U", "T", k, cols, 1.0, chunk, width, 1.0, g, k)
    del chunk
    for lower, upper, block, below in _triangles(g):
        upper[...] = lower.T
        np.copyto(block, block.T, where=below.T)
    diagonal = g.reshape(-1)[:: k + 1]
    gh_diagonal = diagonal.copy()
    shift = 2 * (k + 2) * eps * _norm_inf(g)
    rounding = (n + 1) * eps * float(gh_diagonal.sum())
    for theta, _ in _lanczos(g.__matmul__, k):
        tau = theta + shift
        for lower, _, block, below in _triangles(g):
            np.negative(lower, out=lower)
            np.negative(block, out=block, where=below)
        np.subtract(tau, gh_diagonal, out=diagonal)
        # dpotrf factors the upper triangle of the Fortran matrix g^T in
        # place into R; its strict lower one, g's strict upper, holds Gh.
        info = np.zeros(1, _INT)
        _call("dpotrf", "U", k, g, k, info)
        if _info("dpotrf", info) == 0:
            for _, upper, block, below in _triangles(g):
                upper[...] = 0.0
                block[below.T] = 0.0
            r = g.T
            np.abs(r, out=r)
            rho = float((r.sum(axis=1) @ r).max())
            end = np.nextafter(tau + (k + 2) * eps * rho + rounding, np.inf)
            return float(np.ldexp(np.nextafter(np.sqrt(end), np.inf), e))
        for lower, upper, block, below in _triangles(g):
            lower[...] = upper.T
            np.copyto(block, block.T, where=below)
        diagonal[...] = gh_diagonal
    raise UncertifiedBound(f"no Ritz value of the {k} x {k} Gram passed the Cholesky test")


def _norm_inf(m) -> float:
    """||M||_inf, the largest row sum of |M|: LAPACK dlange's 1-norm of the
    Fortran view M^T, with no |M| temporary."""
    return _lange("1", m)


class LuSolver:
    """Row-pivoted LU factorization with a singularity test.

    After factoring, LAPACK ``dgecon`` estimates the reciprocal 1-norm
    condition number ``rcond`` from the LU factors in O(l^2). Factoring raises
    :class:`SingularMatrix` when ``rcond`` falls below the floor l * eps (a
    zero matrix is rejected outright), so a constructed instance has an
    estimated cond_1(M) <= 1 / (l * eps). The estimate is at least the true
    rcond, so this is no proof; the solves' residual tests are what accept
    a solution. The norms ``norm_one`` and ``norm_inf`` of M are kept.

    The factors take one l x l array: a copy of M or, with ``overwrite``,
    M itself where it is a writeable Fortran-ordered float64 array.
    """

    def __init__(self, m, overwrite: bool = False):
        m = as_matrix(m)
        if m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"square matrix required, got {m.shape}")
        # M's 1-norm is the infinity norm of the Fortran view M^T.
        self.norm_inf = _norm_inf(m)
        self.norm_one = _lange("I", m)
        if self.norm_inf == 0.0:
            raise SingularMatrix("zero matrix")
        n = m.shape[0]
        in_place = overwrite and m.flags.f_contiguous and m.flags.writeable
        lu, piv, info = m if in_place else np.array(m, order="F"), np.empty(n, _INT), np.zeros(1, _INT)
        _call("dgetrf", n, n, lu, n, piv, info)
        if _info("dgetrf", info):
            self.rcond = 0.0  # an exactly zero pivot
        else:
            rcond = np.zeros(1)
            _call("dgecon", "1", n, lu, n, self.norm_one, rcond, np.empty(4 * n), np.empty(n, _INT), info)
            self.rcond = float(rcond[0])
        floor = n * np.finfo(float).eps
        if not self.rcond >= floor:  # a NaN estimate fails too
            raise SingularMatrix(f"rcond estimate {self.rcond:.3e} below {floor:.3e}")
        self._lu, self._piv = lu, piv
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
        in_place = overwrite and rhs.flags.f_contiguous and rhs.flags.writeable
        x = rhs if in_place else np.array(rhs, order="F")
        n, info = self.shape[0], np.zeros(1, _INT)
        nrhs = 1 if x.ndim == 1 else x.shape[1]
        _call("dgetrs", "T" if transpose else "N", n, nrhs, self._lu, n, self._piv, x, n, info)
        _info("dgetrs", info)
        if overwrite and x is not rhs:
            rhs[...] = x
            return rhs
        return x


@functools.cache
def _openblas_threads():
    """``(get, set)`` for the thread count of the OpenBLAS that numpy calls,
    or None when it calls another BLAS (MKL or Accelerate, say).

    The numpy >= 2 wheels prefix the symbols with ``scipy_``, earlier wheels
    and system builds do not; a 64-bit-integer build suffixes them with
    ``64_``.
    """
    for lib in _blas_libraries():
        for prefix, suffix in itertools.product(("scipy_openblas", "openblas"), ("64_", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def _blas_single_thread():
    """Run numpy's OpenBLAS, which does all of the package's BLAS and LAPACK
    work, on one thread inside the block, then restore its count, also on
    an exception. Another BLAS is left alone.

    The command line pins it for each command: its products, factorizations
    and solves run in the calling thread. Experiment rows pin it too, so
    their rounding does not depend on the thread count.
    """
    pool = _openblas_threads()
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
