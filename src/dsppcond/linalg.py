"""Dense linear-algebra kernel.

Input coercion, the pseudo-reciprocal, the infinity norm (LAPACK dlange),
row-pivoted solves screened by a condition estimate, dense or banded, and
the one 2-norm route: a deterministic Lanczos run on an operator
v -> G v, whose Ritz value (:func:`top_eig`) gives the values, and whose
top end, certified by a Cholesky factorization (:func:`_norm_upper`),
gives the bounds. Everything operates on float64 numpy arrays and is pure,
apart from the BLAS thread pins that the command line and each experiment
row wrap around their work.

The twelve LAPACK and BLAS routines (dgetrf, dgetrs, dgetri, dgecon,
dgbtrf, dgbtrs, dgbcon, dlange, dpotrf, dger, dsyrk, dgemm; contracts in
Anderson et al., LAPACK Users' Guide, SIAM 1999) are called through ctypes
in the one OpenBLAS that numpy links, so the package loads one BLAS with one
thread pool. Their symbols are found by name: prefixed ``scipy_`` (the
numpy >= 2 wheels) or not, and suffixed ``_64_`` (64-bit integer arguments)
or ``_`` (32-bit). Where numpy's library exports none of these namings,
importing the package raises ImportError.
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
    if m.size and not _all_finite(m):
        raise ValueError(f"{name} has non-finite entries")
    return m


def as_vector(a, name: str = "vector") -> np.ndarray:
    """Coerce ``a`` to a finite float64 1-D array."""
    v = np.asarray(a, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got ndim={v.ndim}")
    if v.size and not _all_finite(v):
        raise ValueError(f"{name} has non-finite entries")
    return v


def _all_finite(a) -> bool:
    """Whether the nonempty float64 ``a`` has no inf or NaN: its largest and
    smallest entries are finite (both propagate a NaN). Two passes, and no
    mask of a's size."""
    return bool(np.isfinite(a.max()) and np.isfinite(a.min()))


def ddagger(z) -> np.ndarray:
    """Pseudo-reciprocal: 1/z_i where z_i is nonzero, exactly 1 elsewhere."""
    z = np.asarray(z, dtype=float)
    out = np.ones_like(z)
    nz = z != 0
    out[nz] = 1.0 / z[nz]
    return out


# Entries per chunk buffer of the chunked kernels: the band solves here, and
# the max-norm pair kernel and |L S^{-1}| products of
# :mod:`~dsppcond.partial_cn`. One float64 chunk takes at most 512 KiB, so
# their transients beside their inputs do not grow with the data, and the
# passes each kernel makes over a chunk stay in a 2 MiB L2 cache.
_CHUNK_ENTRY_LIMIT = 1 << 16

# The routines called in numpy's LAPACK and BLAS, with the number of their
# arguments; the CHARACTER ones among them (the second number) each take a
# hidden length, which gfortran appends after the listed arguments.
_ROUTINES = {
    "dgetrf": (6, 0), "dgetrs": (9, 1), "dgetri": (7, 0), "dgecon": (9, 1), "dlange": (6, 1),
    "dpotrf": (5, 1), "dger": (9, 0), "dsyrk": (10, 2), "dgemm": (13, 2),
    "dgbtrf": (8, 0), "dgbtrs": (11, 1), "dgbcon": (12, 1),
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


class RankOneUpdate:
    """In-place rank-one updates ``a[:, lo:hi] += xs[:, r] y[lo:hi]^T`` (BLAS
    dger) of one Fortran-ordered float64 buffer ``a``.

    The arrays are checked and their addresses taken once, here, so that an
    update (``update(r, lo, hi)``) is one foreign call with no array conversion;
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
        self._y, self._a, self._a_step, self._capacity = y.ctypes.data, a.ctypes.data, 8 * max(1, m), a.shape[1]

    def update(self, r: int, lo: int, hi: int) -> None:
        if not (0 <= r < self._cols and 0 <= lo <= hi <= self._capacity):
            raise IndexError(f"column {r} or range {lo}:{hi} out of range")
        self._cells[1] = hi - lo
        _LAPACK["dger"](self._m, self._n, self._alpha_at, self._x + r * self._x_step, self._incx,
                        self._y + 8 * lo, self._incy, self._a + lo * self._a_step, self._lda)


# Seed of the Lanczos start vector. Fixed, so every run takes the same steps
# and prints the same digits.
_LANCZOS_SEED = 0


def _start_vector(k: int) -> np.ndarray:
    """The fixed unit Lanczos start on R^k: entry i is the (i + 1)-th output
    of splitmix64 (Steele, Lea and Flood, OOPSLA 2014) from the state
    ``_LANCZOS_SEED``, an odd multiple of 2^-52 in (-1, 1) from its top 52
    bits, then normalized. Wrapping uint64 arithmetic in numpy core: the same
    on every platform, with no random number package loaded."""
    z = np.arange(1, k + 1, dtype=np.uint64) * 0x9E3779B97F4A7C15 + _LANCZOS_SEED
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> shift
        z *= mult
    v = ((z ^ (z >> 31)) >> 12).astype(float) * 2.0**-51 + (2.0**-52 - 1.0)
    return v / np.linalg.norm(v)


def _tridiagonal_top(d, e) -> tuple[float, np.ndarray]:
    """The top eigenpair of the symmetric tridiagonal matrix with diagonal
    ``d`` and off-diagonal ``e``: numpy's ``eigh`` of its dense lower
    triangle. A Lanczos run calls it once per step j, on T_j; over the
    ``perfbench`` inputs j reaches 20 at most, so the O(j^3) is negligible
    beside the products with G."""
    lam, z = np.linalg.eigh(np.diag(d) + np.diag(e, -1))
    return float(lam[-1]), z[:, -1]


def _lanczos(apply, k: int):
    """Lanczos with full reorthogonalization on a symmetric positive
    semidefinite operator on R^k; ``apply(v)`` returns G v as a new array.

    Starts from the fixed vector :func:`_start_vector`. After step j the top
    eigenpair (theta, s) of the j x j tridiagonal T_j comes from numpy's
    ``eigh`` (:func:`_tridiagonal_top`), and the Ritz pair (theta, Q_j s)
    has residual norm beta_j |s_j|. Yields that pair at every step where
    beta_j |s_j| <= k eps theta, where the Krylov space is invariant
    (beta_j = 0), and at step k, where Q_k spans R^k and T_k is G in that
    basis: the run is exact for small k. A caller that needs more than the
    first pair continues the run.
    """
    eps = np.finfo(float).eps
    basis = np.empty((min(k, 32), k))
    basis[0] = _start_vector(k)
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
        theta, s = _tridiagonal_top(alpha[: j + 1], beta[:j])
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

# Rows of T per panel of _norm_upper's Gram (1 MiB at n = 1024): 64-row
# panels took 15-20% longer to form the Gram at n = 1024 and 1600.
_PANEL_ROWS = 128


def _triangles(g):
    """The strict triangles of the square ``g``, its rows maybe strided, by
    diagonal blocks: for rows lo:hi, ``(lower, upper, block, below)`` with
    lower = g[lo:hi, :lo], upper = g[:lo, lo:hi] (lower's mirror image), the
    diagonal block g[lo:hi, lo:hi] and the mask of its strict lower
    triangle."""
    below = np.tri(_TILE, _TILE, -1, dtype=bool)
    k = g.shape[0]
    for lo in range(0, k, _TILE):
        hi = min(lo + _TILE, k)
        yield g[lo:hi, :lo], g[:lo, lo:hi], g[lo:hi, lo:hi], below[: hi - lo, : hi - lo]


def _copy_transposed(dst, src) -> None:
    """dst[...] = src.T by _TILE x _TILE blocks, whose rows stay in cache: a
    restore took 2.0 ms in one copy per tile row, 0.8 ms so (k = n = 1024)."""
    for i in range(0, dst.shape[0], _TILE):
        for j in range(0, dst.shape[1], _TILE):
            dst[i : i + _TILE, j : j + _TILE] = src[j : j + _TILE, i : i + _TILE].T


def _norm_upper(m, ranges=None, overwrite: bool = False) -> list[float]:
    """Certified upper ends for the 2-norms of row ranges of M, for the bounds.

    M (or M^T, whichever has the smaller Gram) is scaled by a power of two,
    exactly, to T with max |t_ij| in [1/2, 1); T is k x n with k <= n. Each
    range lo:hi of T's rows in ``ranges`` (default 0:k), now with k rows,
    runs :func:`_lanczos` on its diagonal block Gh of fl(T T^T); for each
    Ritz value theta it yields, tau = theta + 2 (k + 2) eps ||Gh||_inf +
    delta is accepted once the Cholesky factorization of Ah = fl(tau I - Gh)
    succeeds. The shift only lets that test pass: converged to the top, the
    Ritz value is at most k eps theta below lam_max(Gh), and the rest leaves
    Ah room above the factorization's rounding. With R the computed Cholesky
    factor and rho = || |R|^T |R| 1 ||_inf, the end returned is
    2^e sqrt(tau + (k + 2) eps rho + (n + 1) eps tr(Gh) + delta), rounded
    up, and dominates the range's 2^e lam_max(G)^{1/2}, G its T T^T. With
    u = eps / 2 and gamma_j = j u / (1 - j u) (Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3 and 10):

    * forming Gh: each entry is one sum of n products, by BLAS dgemm below
      the diagonal blocks and dsyrk in them (below), each in an order of
      its own. The bound |Gh - G| <= gamma_n |T| |T|^T entrywise holds
      whatever the order of each sum (Higham, sec. 3.1), and
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
    covers the rounding of rho and the trace. Underflow costs a product, a
    quotient or the scaling at most 2^-1075 and a sum nothing (Higham,
    ch. 2): through the scaling and the products of Gh and of the
    factorization (|r_ij| <= k + n), less than delta = 4 k (k + n)
    2^-1074 in all. A range whose top entry lies 2^-d below T's has
    tr(Gh) >= 4^-d / 4, so delta moves no end while d <= 400. If no Ritz
    value of a range's run passes, raises :class:`UncertifiedBound`. A zero
    M has ends 0.

    Memory: the Gram is formed in T's own storage, beside one panel of
    ``_PANEL_ROWS`` x n, the Lanczos run's O(steps k) basis and O(k)
    vectors. T is scaled in place and taken by block rows from the last to
    the first: each is copied into the panel, and dgemm against the rows
    above it (still T's) and dsyrk write its part of the Gram's lower
    triangle into the first k columns of its own rows. dlange, dpotrf and
    the diagonal take a range's block with leading dimension n. The lower
    triangle is mirrored into the upper one for the Lanczos products, and
    the diagonal is kept in a k-vector. Ah is formed in the lower triangle,
    its strict part negated and its diagonal tau - gh_ii from the saved
    vector, dpotrf factors it there in place, and rho reads it, made
    nonnegative. None of this touches the upper triangle, so after every
    test copying it back (by :func:`_copy_transposed`), and the diagonal
    from the vector, restores bitwise the Gram that the next test reads.
    With ``overwrite`` the caller hands M over, and a writeable C-ordered M
    with k <= n is T's storage; otherwise T is a private copy, with bitwise
    the same ends.
    """
    m = as_matrix(m)
    t = m if m.shape[0] <= m.shape[1] else m.T
    k, n = t.shape
    ranges = [(0, k)] if ranges is None else ranges
    big = max(float(t.max(initial=0.0)), -float(t.min(initial=0.0)))
    if big == 0.0:
        return [0.0] * len(ranges)
    e = int(np.frexp(big)[1])
    own = overwrite and t.flags.c_contiguous and t.flags.writeable
    t = np.ldexp(t, -e, out=t if own else np.empty((k, n)))
    panel = np.empty((min(k, _PANEL_ROWS), n))
    for lo in reversed(range(0, k, _PANEL_ROWS)):
        hi = min(lo + _PANEL_ROWS, k)
        rows = panel[: hi - lo]
        np.copyto(rows, t[lo:hi])
        # BLAS reads C-ordered arrays as their Fortran transposes: it writes
        # T[:lo] rows^T over t[lo:hi, :lo]^T, and the upper triangle of
        # rows rows^T over that of t[lo:hi, lo:hi]^T, Gh's lower one.
        if lo:
            _call("dgemm", "T", "N", lo, hi - lo, n, 1.0, t, n, rows, n, 0.0, t[lo:], n)
        _call("dsyrk", "U", "T", hi - lo, n, 1.0, rows, n, 0.0, t[lo:, lo:], n)
    del panel, rows
    for lower, upper, block, below in _triangles(t[:, :k]):
        upper[...] = lower.T  # reads lower's rows in turn; by blocks it took no less time
        np.copyto(block, block.T, where=below.T)
    gh_diagonal = t.reshape(-1)[:: n + 1].copy()
    return [_range_end(t, lo, hi, gh_diagonal[lo:hi], e) for lo, hi in ranges]


def _range_end(t, lo: int, hi: int, gh_diagonal, e: int) -> float:
    """:func:`_norm_upper`'s end for rows lo:hi of T, on their diagonal block of the Gram in t."""
    k, n = hi - lo, t.shape[1]
    g, diagonal = t[lo:hi, lo:hi], t[lo:hi].reshape(-1)[lo :: n + 1]
    eps, delta = np.finfo(float).eps, k * (k + n) * 2.0**-1072
    shift = 2 * (k + 2) * eps * _call("dlange", "1", k, k, g, n, np.empty(k)) + delta  # ||g^T||_1
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
        _call("dpotrf", "U", k, g, n, info)
        rho = None if _info("dpotrf", info) else _abs_rho(g)
        for lower, upper, block, below in _triangles(g):
            _copy_transposed(lower, upper)
            np.copyto(block, block.T, where=below)
        diagonal[...] = gh_diagonal
        if rho is not None:
            end = np.nextafter(tau + (k + 2) * eps * rho + rounding + delta, np.inf)
            return float(np.ldexp(np.nextafter(np.sqrt(end), np.inf), e))
    raise UncertifiedBound(f"no Ritz value of the {k} x {k} Gram passed the Cholesky test")


def _abs_rho(g) -> float:
    """|| |R|^T |R| 1 ||_inf for R^T in g's lower triangle, which is made
    nonnegative tile by tile: |R| 1 sums its columns, |R|^T |R| 1 its rows."""
    col, tiles = np.zeros(len(g)), [(lower.shape[1], lower, block) for lower, _, block, _ in _triangles(g)]
    for j, lower, block in tiles:
        col[:j] += np.abs(lower, out=lower).sum(axis=0)
        col[j : j + len(block)] += np.abs(np.tril(block)).sum(axis=0)
    return max(float((lower @ col[:j] + np.abs(np.tril(block)) @ col[j : j + len(block)]).max())
               for j, lower, block in tiles)


def _norm_inf(m) -> float:
    """||M||_inf, the largest row sum of |M|: LAPACK dlange's 1-norm of the
    Fortran view M^T, with no |M| temporary."""
    return _lange("1", m)


def _check_rcond(rcond: float, n: int) -> None:
    """Raise :class:`SingularMatrix` unless ``rcond`` clears the floor
    n * eps; a NaN estimate fails too."""
    floor = n * np.finfo(float).eps
    if not rcond >= floor:
        raise SingularMatrix(f"rcond estimate {rcond:.3e} below {floor:.3e}")


class LuSolver:
    """Row-pivoted LU factorization with a singularity test.

    After factoring, LAPACK ``dgecon`` estimates the reciprocal 1-norm
    condition number ``rcond`` from the LU factors in O(l^2). Factoring raises
    :class:`SingularMatrix` when ``rcond`` falls below the floor l * eps (a
    zero matrix is rejected outright), so a constructed instance has an
    estimated cond_1(M) <= 1 / (l * eps). The estimate is at least the true
    rcond, so this is no proof; the solves' residual tests are what accept
    a solution. The norms ``norm_one`` and ``norm_inf`` of M are kept.

    The factors take one l x l array, which :meth:`inverse_transpose` can
    turn into M^{-T}: a copy of M or, with ``overwrite``, M itself where it
    is a writeable Fortran-ordered float64 array.
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
        _check_rcond(self.rcond, n)
        self._lu, self._piv = lu, piv
        self.shape = m.shape

    def solve(self, rhs, transpose: bool = False, overwrite: bool = False) -> np.ndarray:
        """Solve ``M x = rhs`` (or ``M^T x = rhs``); rhs may be 1-D or 2-D.

        With ``overwrite``, the float64 array ``rhs`` receives the solution
        and is returned; LAPACK solves in place, with no copy, when ``rhs`` is
        Fortran-contiguous.
        """
        rhs = _checked_rhs(rhs, self.shape)
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

    def inverse_transpose(self) -> np.ndarray:
        """M^{-T}, Fortran-ordered (its C-ordered transpose holds M^{-1}), in
        the factors' own storage, which this consumes: LAPACK dgetri forms
        M^{-1} there in 4/3 l^3 flops (J. J. Du Croz and N. J. Higham, IMA J.
        Numer. Anal. 12, 1992), and :func:`_transpose_in_place` transposes it."""
        n, lu, piv, info, size = self.shape[0], self._lu, self._piv, np.zeros(1, _INT), np.zeros(1)
        self._lu = self._piv = None
        _call("dgetri", n, lu, n, piv, size, -1, info)  # a query of the work array's size
        _call("dgetri", n, lu, n, piv, np.empty(int(size[0])), int(size[0]), info)
        if _info("dgetri", info):
            raise SingularMatrix("exactly zero pivot")
        _transpose_in_place(lu)
        return lu


def _transpose_in_place(a) -> None:
    """a[...] = a.T for the square ``a``, by swapping each _TILE x _TILE
    tile with its mirror image through a copy of one of them."""
    for i, j in itertools.combinations_with_replacement(range(0, len(a), _TILE), 2):
        upper, lower = a[i : i + _TILE, j : j + _TILE], a[j : j + _TILE, i : i + _TILE]
        upper[...], lower[...] = lower.T, upper.copy().T


def _checked_rhs(rhs, shape) -> np.ndarray:
    rhs = np.asarray(rhs, dtype=float)
    if rhs.shape[0] != shape[0]:
        raise DimensionMismatch(f"rhs has {rhs.shape[0]} rows, matrix is {shape[0]}x{shape[1]}")
    return rhs


class BandLuSolver:
    """Row-pivoted LU factorization of a matrix M whose symmetric permutation
    P M P^T has bandwidth ``bw``, with :class:`LuSolver`'s interface and
    singularity test.

    ``band`` holds P M P^T in LAPACK band storage for dgbtrf, kl = ku = bw:
    a Fortran-ordered (3 bw + 1) x l array whose entry (2 bw + i - j, j) is
    (P M P^T)_ij, the top bw rows left for the pivoting's fill. It is
    factored in place (LAPACK ``dgbtrf``, O(l bw^2)), and ``dgbcon``
    estimates rcond from the factors; ||M||_1 and ||M||_inf are given, since
    a symmetric permutation keeps both. Row i of P M P^T is row ``perm[i]``
    of M.

    A solve permutes the right-hand sides, solves with ``dgbtrs`` and
    permutes back, in column chunks of at most ``_CHUNK_ENTRY_LIMIT``
    entries (one column, if longer), so no l x l temporary is made.
    """

    def __init__(self, band, bw: int, perm, norm_one: float, norm_inf: float):
        n = band.shape[1]
        if band.shape[0] != 3 * bw + 1 or perm.shape != (n,):
            raise DimensionMismatch(f"band storage {band.shape} does not fit bandwidth {bw} and order {n}")
        if not (band.dtype == np.float64 and band.flags.f_contiguous and band.flags.writeable):
            raise ValueError("band must be a writeable Fortran-ordered float64 array")
        self.norm_one, self.norm_inf = float(norm_one), float(norm_inf)
        if self.norm_inf == 0.0:
            raise SingularMatrix("zero matrix")
        ldab, piv, info = band.shape[0], np.empty(n, _INT), np.zeros(1, _INT)
        _call("dgbtrf", n, n, bw, bw, band, ldab, piv, info)
        if _info("dgbtrf", info):
            self.rcond = 0.0  # an exactly zero pivot
        else:
            rcond = np.zeros(1)
            _call("dgbcon", "1", n, bw, bw, band, ldab, piv, self.norm_one, rcond, np.empty(3 * n),
                  np.empty(n, _INT), info)
            self.rcond = float(rcond[0])
        _check_rcond(self.rcond, n)
        self._band, self._piv, self._bw, self._perm = band, piv, bw, perm
        self._inv = np.empty_like(perm)
        self._inv[perm] = np.arange(n)
        self.shape = (n, n)

    def solve(self, rhs, transpose: bool = False, overwrite: bool = False) -> np.ndarray:
        """Solve ``M x = rhs`` (or ``M^T x = rhs``); rhs may be 1-D or 2-D.

        With ``overwrite``, the float64 array ``rhs`` receives the solution
        and is returned; otherwise the solution is a new Fortran-ordered
        array."""
        rhs = _checked_rhs(rhs, self.shape)
        x = rhs if overwrite else np.empty(rhs.shape, order="F")
        # Row-major views whose rows are the columns of rhs and x.
        cols_in, cols_out = (a.reshape(a.shape[0], -1).T for a in (rhs, x))
        n, bw, info = self.shape[0], self._bw, np.zeros(1, _INT)
        step = max(1, _CHUNK_ENTRY_LIMIT // n)
        # Each chunk's columns of P rhs; its transpose is Fortran-ordered.
        buf = np.empty((min(step, cols_in.shape[0]), n))
        for lo in range(0, cols_in.shape[0], step):
            hi = min(lo + step, cols_in.shape[0])
            chunk = np.take(cols_in[lo:hi], self._perm, axis=1, out=buf[: hi - lo], mode="clip")
            _call("dgbtrs", "T" if transpose else "N", n, bw, bw, hi - lo, self._band, self._band.shape[0],
                  self._piv, chunk, n, info)
            _info("dgbtrs", info)
            np.take(chunk, self._inv, axis=1, out=cols_out[lo:hi], mode="clip")
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
