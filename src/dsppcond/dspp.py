"""Double saddle point systems.

A system couples three unknown parts x (length n), y (length m), z (length p)
through five data blocks A, B, C, D, E and a right-hand side b of length
l = n + m + p:

    [ A   B^T  0   ] [x]   [b1]
    [ B  -D    C^T ] [y] = [b2]
    [ 0   C    E   ] [z]   [b3]

Note the minus sign: D is stored as given and negated during assembly. This
module holds the block container, assembly, the pivoted factorization (dense,
or banded after a reverse Cuthill-McKee ordering, by one cost rule) and
solve, the selectors that project out parts of the solution, and the JSON
problem format. A block is an ndarray or a :class:`CsrMatrix`, kept as
given; the block operations below are the only code that reads a block's
storage, each with an ndarray and an O(nnz) CSR branch.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, IncompatibleZeroPattern, MalformedProblem, SingularMatrix
from .linalg import _CHUNK_ENTRY_LIMIT, BandLuSolver, LuSolver, _norm_inf, as_matrix, as_vector

SELECTOR_KINDS = ("full", "x", "y", "z", "custom")

# Acceptable relative residual for a certified solve.
RESIDUAL_RTOL = 1e-8


class CsrMatrix:
    """A matrix in compressed sparse row form (T. A. Davis, Direct Methods for
    Sparse Linear Systems, SIAM 2006): row i holds the finite values
    ``data[indptr[i]:indptr[i+1]]`` (zeros allowed) in the strictly rising
    columns ``indices[indptr[i]:indptr[i+1]]``. ``shape``, ``ndim`` and
    ``size`` mean what they mean for an ndarray; ``np.asarray`` densifies."""

    ndim = 2

    def __init__(self, data, indices, indptr, shape):
        self.shape = rows, cols = int(shape[0]), int(shape[1])
        self.size = rows * cols
        self.data = as_vector(data, "data")
        self.indices, self.indptr = np.asarray(indices, np.intp), np.asarray(indptr, np.intp)
        counts = np.diff(self.indptr)
        if self.indptr.shape != (rows + 1,) or self.indptr[0] != 0 or np.any(counts < 0) or (
                self.indices.shape != self.data.shape or self.indptr[-1] != self.data.size):
            raise DimensionMismatch(f"data, indices and indptr do not fit {rows} rows")
        self.row_ids = np.repeat(np.arange(rows), counts)  # each stored entry's row
        keys = self.row_ids * cols + self.indices
        if np.any((self.indices < 0) | (self.indices >= cols)) or np.any(keys[1:] <= keys[:-1]):
            raise DimensionMismatch("column indices must lie in range and rise within each row")

    @classmethod
    def from_entries(cls, rows, cols, vals, shape) -> "CsrMatrix":
        """The matrix of the entries (rows, cols, vals), in any order; a
        repeated position's values are summed in the order given."""
        key = np.asarray(rows, np.intp) * shape[1] + cols
        at = np.argsort(key, kind="stable")
        key, vals = key[at], np.asarray(vals, float)[at]
        first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]][: key.size])
        rows, cols = np.divmod(key[first], shape[1])
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=shape[0]))])
        return cls(np.add.reduceat(vals, first), cols, indptr, shape)

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.indices.nbytes + self.indptr.nbytes + self.row_ids.nbytes

    @property
    def T(self) -> "CsrMatrix":
        return CsrMatrix.from_entries(self.indices, self.row_ids, self.data, self.shape[::-1])

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=dtype or float)
        out[self.row_ids, self.indices] = self.data
        return out


def _as_block(a, name: str = "matrix"):
    """A block as given: a :class:`CsrMatrix`, or a finite float64 2-D array."""
    return a if isinstance(a, CsrMatrix) else as_matrix(a, name)


@dataclass(frozen=True)
class DsppBlocks:
    """The five data blocks plus the full right-hand side.

    Shapes: A is n x n, B is m x n, C is p x m, D is m x m, E is p x p and
    b has length n + m + p. All entries must be finite; n, m, p >= 1. Each
    block is an ndarray or a :class:`CsrMatrix`, and stays in that form.
    """

    A: np.ndarray | CsrMatrix
    B: np.ndarray | CsrMatrix
    C: np.ndarray | CsrMatrix
    D: np.ndarray | CsrMatrix
    E: np.ndarray | CsrMatrix
    b: np.ndarray

    def __post_init__(self):
        for name in "ABCDEb":
            coerce = as_vector if name == "b" else _as_block
            object.__setattr__(self, name, coerce(getattr(self, name), name))
        n, m, p = self.A.shape[0], self.B.shape[0], self.C.shape[0]
        if min(n, m, p) < 1:
            raise DimensionMismatch("all three parts must be nonempty")
        for name, want in zip("ABCDEb", ((n, n), (m, n), (p, m), (m, m), (p, p), (n + m + p,))):
            if getattr(self, name).shape != want:
                raise DimensionMismatch(f"block {name} has shape {getattr(self, name).shape}, expected {want}")

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[0]

    @property
    def p(self) -> int:
        return self.C.shape[0]

    @property
    def l(self) -> int:
        return self.n + self.m + self.p


@dataclass(frozen=True)
class Solution:
    """Solution parts of a double saddle point solve; w = [x; y; z]."""

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    @property
    def w(self) -> np.ndarray:
        return np.concatenate([self.x, self.y, self.z])


@dataclass(frozen=True)
class Selector:
    """Which part L w of a length-l solution w is observed: the entries lo:hi
    of w for "full", "x", "y" and "z" (L is those rows of I_l, never formed),
    or the rows of a dense k x l matrix ``custom`` (then lo:hi is 0:l)."""

    kind: str
    lo: int
    hi: int
    l: int
    custom: np.ndarray | None = None

    @property
    def k(self) -> int:
        return self.hi - self.lo if self.custom is None else self.custom.shape[0]

    def take(self, v: np.ndarray) -> np.ndarray:
        """L v for a length-l vector v: a slice of v, or the custom product."""
        return v[self.lo : self.hi] if self.custom is None else self.custom @ v


def _placements(blocks: DsppBlocks):
    """(block, first row, first column, sign, mirrored) of each block in S."""
    n, m = blocks.n, blocks.m
    return ((blocks.A, 0, 0, 1.0, False), (blocks.B, n, 0, 1.0, True), (blocks.C, n + m, n, 1.0, True),
            (blocks.D, n, n, -1.0, False), (blocks.E, n + m, n + m, 1.0, False))


def assemble(blocks: DsppBlocks) -> np.ndarray:
    """Assemble the full l x l system matrix (D enters negated), in Fortran
    order, as LAPACK factors it; a CSR block is written by its nonzeros."""
    l = blocks.l
    s = np.zeros((l, l), order="F")
    for mat, r0, c0, sign, mirrored in _placements(blocks):
        if isinstance(mat, CsrMatrix):
            r, c, v = _nonzeros(mat)
            s[r0 + r, c0 + c] = sign * v
            if mirrored:
                s[c0 + c, r0 + r] = v
            continue
        view = s[r0 : r0 + mat.shape[0], c0 : c0 + mat.shape[1]]
        if sign > 0:
            view[...] = mat
        else:  # -D a column at a time: a whole-block ufunc would take an m x m temporary
            for j in range(mat.shape[1]):
                np.negative(mat[:, j], out=view[:, j])
        if mirrored:
            s[c0 : c0 + mat.shape[1], r0 : r0 + mat.shape[0]] = mat.T
    return s


def _block_product(mats, x, y, z) -> np.ndarray:
    """The system assembled from ``mats`` = (A, B, C, D, E) times [x; y; z],
    without assembling it: [A x + B^T y; B x - D y + C^T z; C y + E z]."""
    a, b, c, d, e = mats
    xyz = _mul(a, x) + _mul(b, y, True), _mul(b, x) - _mul(d, y) + _mul(c, z, True), _mul(c, y) + _mul(e, z)
    return np.concatenate(xyz)


# Block operations: each takes an ndarray or a CsrMatrix block.

def _nonzeros(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rows, cols, values) of X's nonzero entries, row by row and by
    column within a row, as new arrays."""
    if isinstance(x, CsrMatrix):
        keep = x.data != 0.0
        return x.row_ids[keep], x.indices[keep], x.data[keep]
    r, c = np.nonzero(x)
    return r, c, x[r, c]


def _row_nonzeros(x, lo: int, hi: int, upper: bool = False):
    """|X| at the nonzeros of rows lo:hi, row by row, as (values, columns from
    c0, count per row); c0 = 0, or with ``upper`` c0 = lo and only columns
    c >= the row's index, the diagonal at half weight (exact)."""
    hi = min(hi, x.shape[0])
    if isinstance(x, CsrMatrix):
        a, b = x.indptr[lo], x.indptr[hi]
        rows, cols, vals = x.row_ids[a:b], x.indices[a:b], np.abs(x.data[a:b])
        keep = (vals != 0.0) & (cols >= rows) if upper else vals != 0.0
        rows, cols, vals = rows[keep], cols[keep], vals[keep]
        if upper:
            vals[cols == rows] /= 2.0
        return vals, cols - (lo if upper else 0), np.bincount(rows - lo, minlength=hi - lo)
    blk = np.abs(x[lo:hi, lo if upper else 0 :], order="C")
    if upper:
        blk[np.tri(*blk.shape, -1, dtype=bool)] = 0.0
        blk.reshape(-1)[:: blk.shape[1] + 1] /= 2.0
    flat, counts = np.flatnonzero(blk != 0.0), np.count_nonzero(blk, axis=1)
    return np.take(blk, flat), np.remainder(flat, blk.shape[1], out=flat), counts


def _mul(x, v, transpose: bool = False) -> np.ndarray:
    """X v, or X^T v with ``transpose``, for a vector v."""
    if isinstance(x, CsrMatrix):
        rows, cols = (x.indices, x.row_ids) if transpose else (x.row_ids, x.indices)
        return np.bincount(rows, x.data * v[cols], minlength=x.shape[1 if transpose else 0])
    return (x.T if transpose else x) @ v


def _abs_product(x, v, transpose: bool = False) -> np.ndarray:
    """|X| v, or |X|^T v with ``transpose``, for a vector v. A dense X^T takes
    |X| as a temporary; a dense X, row chunks of at most ``_CHUNK_ENTRY_LIMIT``
    entries, each a BLAS gemv, in multiples of 8 rows where 8 fit: OpenBLAS's
    gemv sums rows by 4s, so each row's sum is bitwise one product's."""
    if isinstance(x, CsrMatrix):
        return _mul(_entrywise(np.abs, x), v, transpose)
    if transpose:
        return np.abs(x).T @ v
    k, l = x.shape
    step = _CHUNK_ENTRY_LIMIT // max(1, l)
    step = step - step % 8 if step >= 8 else max(1, step)
    buf = np.empty((min(step, k), l))
    out = np.empty(k)
    for lo in range(0, k, step):
        hi = min(lo + step, k)
        np.matmul(np.abs(x[lo:hi], out=buf[: hi - lo]), v, out=out[lo:hi])
    return out


def _sumsq(x) -> float:
    """The sum of X's squared entries, by einsum: no temporary, no BLAS threads."""
    data = x.data[None] if isinstance(x, CsrMatrix) else x
    return float(np.einsum("ij,ij->", data, data))


def _abs_sums(x) -> tuple[np.ndarray, np.ndarray]:
    """The column and the row sums of |X|."""
    if isinstance(x, CsrMatrix):
        mag = _entrywise(np.abs, x)
        return _mul(mag, np.ones(x.shape[0]), True), _mul(mag, np.ones(x.shape[1]))
    mag = np.abs(x)
    return mag.sum(axis=0), mag.sum(axis=1)


def _entrywise(f, x):
    """f(X) entrywise, in X's form, for an f with f(0) = 0."""
    return CsrMatrix(f(x.data), x.indices, x.indptr, x.shape) if isinstance(x, CsrMatrix) else f(x)


def _diagonal(x, first_column: bool = False) -> np.ndarray:
    """The diagonal of X, or its first column."""
    if isinstance(x, CsrMatrix):
        out = np.zeros(x.shape[0] if first_column else min(x.shape))
        at = x.indices == (0 if first_column else x.row_ids)
        out[x.row_ids[at]] = x.data[at]
        return out
    return x[:, 0] if first_column else np.diag(x)


def _norm_inf_of(x) -> float:
    """||X||_inf, the largest row sum of |X|; a dense X's by LAPACK dlange,
    with no |X| temporary."""
    if isinstance(x, CsrMatrix):
        return float(_abs_sums(x)[1].max(initial=0.0))
    return _norm_inf(x)


def _membership_residual(kind: str, x) -> float:
    """max |X - P(X)| for the projection P onto the subspace of the structure
    ``kind``, which averages the entries of each generator's support and pins
    the others to 0. A dense X takes at most one dim x dim temporary."""
    if kind == "full":
        return 0.0
    if isinstance(x, CsrMatrix):
        r, c, v = _nonzeros(x)
        if kind == "diagonal":
            return float(np.abs(v[r != c]).max(initial=0.0))
        if kind == "symmetric":
            diff = CsrMatrix.from_entries(np.r_[r, c], np.r_[c, r], np.r_[v, -v], x.shape).data
            return float(np.abs(diff).max(initial=0.0)) / 2.0
        # toeplitz_sym: generator g covers the diagonals +g and -g, 2 (dim - g)
        # entries (dim for g = 0); the ones not stored are zeros.
        dim, g = x.shape[0], np.abs(c - r)
        counts = np.r_[dim, 2.0 * np.arange(dim - 1, 0, -1)]
        mean = np.bincount(g, v, minlength=dim) / counts
        unstored = np.bincount(g, minlength=dim) < counts
        return max(float(np.abs(v - mean[g]).max(initial=0.0)), float(np.abs(mean[unstored]).max(initial=0.0)))
    if kind == "diagonal":
        off = np.abs(x)
        np.fill_diagonal(off, 0.0)
        return float(off.max())
    if kind == "symmetric":
        diff = x - x.T
        np.abs(diff, out=diff)
        return float(diff.max()) / 2.0
    resid = 0.0
    for g in range(x.shape[0]):
        band = np.concatenate([np.diagonal(x, g), np.diagonal(x, -g)]) if g else np.diagonal(x)
        resid = max(resid, float(np.max(np.abs(band - band.mean()))))
    return resid


def _times_draws(x, rng, factor: float, width: int):
    """X times factor G entrywise, in X's form (for a CSR X, on its index
    arrays), for G standard normal from ``rng``, drawn column-major by
    chunks of ``width`` columns (a vector X is one column)."""
    if isinstance(x, CsrMatrix):
        at = np.argsort(x.indices, kind="stable")
        cols, rows = x.indices[at], x.row_ids[at]
        out = np.empty_like(x.data)
        for c0 in range(0, x.shape[1], width):
            a, b = np.searchsorted(cols, (c0, c0 + width))
            g = rng.standard_normal((min(width, x.shape[1] - c0), x.shape[0]))  # row j: column c0 + j
            g *= factor
            out[at[a:b]] = g[cols[a:b] - c0, rows[a:b]] * x.data[at[a:b]]
        return CsrMatrix(out, x.indices, x.indptr, x.shape)
    cols = x.reshape(len(x), -1)
    out = np.empty(cols.shape)
    for c0 in range(0, cols.shape[1], width):
        g = rng.standard_normal((min(width, cols.shape[1] - c0), len(cols)))
        g *= factor
        np.multiply(g.T, cols[:, c0 : c0 + width], out=out[:, c0 : c0 + width])
    return out.reshape(x.shape)


def _added(x, d):
    """X + D, a CSR matrix where either is one."""
    if isinstance(x, CsrMatrix) or isinstance(d, CsrMatrix):
        return CsrMatrix.from_entries(*map(np.concatenate, zip(_nonzeros(x), _nonzeros(d))), x.shape)
    return x + d


def _max_ratio(d, x) -> float:
    """max |d_ij| / |x_ij| over the nonzeros of X; :class:`IncompatibleZeroPattern`
    where D is nonzero at a zero of X. A dense pair is read by row chunks of at
    most ``_CHUNK_ENTRY_LIMIT`` entries; a maximum is exact in any order."""
    if isinstance(x, CsrMatrix) or isinstance(d, CsrMatrix):
        (xr, xc, xv), (dr, dc, dv) = _nonzeros(x), _nonzeros(d)
        keys, want = xr * x.shape[1] + xc, dr * x.shape[1] + dc  # both ascending
        at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
        if want.size and (not keys.size or np.any(keys[at] != want)):
            raise IncompatibleZeroPattern("perturbation hits an exactly zero data entry")
        return float(np.max(np.abs(dv) / np.abs(xv[at]), initial=0.0))
    out = 0.0
    step = max(1, _CHUNK_ENTRY_LIMIT // x[0].size)
    for lo in range(0, len(x), step):
        dd, xx = np.abs(d[lo : lo + step]), np.abs(x[lo : lo + step])
        if np.any(dd, where=xx == 0):
            raise IncompatibleZeroPattern("perturbation hits an exactly zero data entry")
        out = max(out, float(np.divide(dd, xx, out=dd, where=xx != 0).max()))
        del dd, xx  # before the next chunk's are made
    return out


# The cost rule of :func:`factorize`: the blocks' nonzero pattern is read
# only when S has at most this many nonzeros per row on average, so its
# index arrays stay O(l); the band is taken when BAND_COST l bw^2, about
# the flops of dgbtrf with kl = ku = bw and its fill, is at most l^3.
PATTERN_NNZ_PER_ROW = 32
BAND_COST = 8


def factorize(blocks: DsppBlocks) -> LuSolver | BandLuSolver:
    """Pivoted factorization of the assembled system S, rejecting a
    numerically singular one by its rcond estimate. One cost rule, read off
    the blocks, picks the backend:

    * with nnz(S) <= ``PATTERN_NNZ_PER_ROW`` l (counted blockwise, with no
      allocation), the pattern of S is read and ordered by reverse
      Cuthill-McKee (:func:`_rcm`); if the ordered bandwidth bw has
      ``BAND_COST`` l bw^2 <= l^3, S is written from the blocks' nonzeros
      straight into band storage and factored there
      (:class:`~dsppcond.linalg.BandLuSolver`): O(l bw) memory and
      O(l bw^2) time, and no l x l array;
    * otherwise S is assembled in Fortran order and factored in place
      (:class:`~dsppcond.linalg.LuSolver`): l^2 doubles.
    """
    mats = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)
    l = blocks.l
    nnz = sum(c * np.count_nonzero(mat.data if isinstance(mat, CsrMatrix) else mat)
              for c, mat in zip((1, 2, 2, 1, 1), mats))
    if nnz <= PATTERN_NNZ_PER_ROW * l:
        rows, cols, vals = _entries(blocks)
        perm = _rcm(rows, cols, l)
        at = np.empty_like(perm)
        at[perm] = np.arange(l)
        rows, cols = at[rows], at[cols]
        bw = int(np.abs(rows - cols).max(initial=0))
        if BAND_COST * bw * bw <= l * l:
            band = np.zeros((3 * bw + 1, l), order="F")
            band[2 * bw + rows - cols, cols] = vals
            np.abs(vals, out=vals)
            norm_one = float(np.bincount(cols, vals, minlength=l).max())
            norm_inf = float(np.bincount(rows, vals, minlength=l).max())
            return BandLuSolver(band, bw, perm, norm_one, norm_inf)
    return LuSolver(assemble(blocks), overwrite=True)


def _entries(blocks: DsppBlocks) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of the assembled system as (rows, cols, values) arrays,
    read blockwise (B and C twice, D negated), in no particular order."""
    parts = []
    for mat, r0, c0, sign, mirrored in _placements(blocks):
        r, c, v = _nonzeros(mat)
        v = v * sign
        r += r0
        c += c0
        parts.append((r, c, v))
        if mirrored:
            parts.append((c, r, v))
    return tuple(np.concatenate(part) for part in zip(*parts))


def _rcm(rows, cols, l: int) -> np.ndarray:
    """A reverse Cuthill-McKee ordering (E. Cuthill and J. McKee, Proc. ACM
    1969; A. George and J. W. H. Liu, Computer Solution of Large Sparse
    Positive Definite Systems, 1981) of the graph of |M| + |M|^T, for the
    nonzeros (rows, cols) of an l x l matrix M: ``perm`` with row i of the
    reordered matrix row perm[i] of M.

    Each connected component starts at an unvisited node of least degree
    (the smallest index among equals) and is searched breadth first, level
    by level: the next level takes the unvisited neighbours of the current
    one in the order of the first node that reaches them, then by
    increasing degree, then by index. The whole order is reversed at the
    end. The levels are vectorized, so the Python loop runs once per level
    and per component."""
    off = rows != cols
    keys, _ = _firsts(np.concatenate([rows[off] * l + cols[off], cols[off] * l + rows[off]]))
    nbrs = keys % l
    indptr = np.searchsorted(keys, np.arange(l + 1) * l)
    degree = np.diff(indptr)
    seeds = np.argsort(degree, kind="stable")
    visited = np.zeros(l, dtype=bool)
    order = np.empty(l, dtype=np.intp)
    done = next_seed = 0
    while done < l:
        while visited[seeds[next_seed]]:
            next_seed += 1
        level = seeds[next_seed : next_seed + 1]
        while level.size:
            visited[level] = True
            order[done : done + level.size] = level
            done += level.size
            counts = degree[level]
            first = indptr[level] - np.cumsum(counts) + counts
            reached = nbrs[np.repeat(first, counts) + np.arange(counts.sum())]
            parent = np.repeat(np.arange(level.size), counts)
            fresh = ~visited[reached]
            # A node's first occurrence is its earliest parent's.
            level, at = _firsts(reached[fresh])
            level = level[np.lexsort((level, degree[level], parent[fresh][at]))]
    return order[::-1].copy()


def _firsts(a) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of the integer array ``a``, ascending, and the
    index of each one's first occurrence: ``np.unique(a,
    return_index=True)`` by a stable sort, without the import of numpy.ma
    that np.unique makes on first use."""
    at = np.argsort(a, kind="stable")
    ordered = a[at]
    first = np.ones(ordered.size, dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first], at[first]


def _residual_bound(norm_inf: float, w: np.ndarray, b: np.ndarray) -> float:
    """The largest residual 2-norm ||b - M w|| that a solve of M w = b is
    accepted with, given ||M||_inf (or a lower end of it, which is stricter):
    RESIDUAL_RTOL (||M||_inf ||w|| + ||b||)."""
    return RESIDUAL_RTOL * (norm_inf * float(np.linalg.norm(w, 2)) + float(np.linalg.norm(b, 2)))


def solve_dspp(blocks: DsppBlocks, lu: LuSolver | None = None) -> Solution:
    """Solve the system and split the solution into its three parts.

    Raises :class:`SingularMatrix` when the assembled matrix is numerically
    singular or the residual exceeds :func:`_residual_bound` with ``lu``'s
    ||S||_inf.
    """
    if lu is None:
        lu = factorize(blocks)
    w = lu.solve(blocks.b)
    x, y, z = np.split(w, [blocks.n, blocks.n + blocks.m])
    sw = _block_product((blocks.A, blocks.B, blocks.C, blocks.D, blocks.E), x, y, z)
    resid = float(np.linalg.norm(sw - blocks.b, 2))
    bound = _residual_bound(lu.norm_inf, w, blocks.b)
    if resid > bound:
        raise SingularMatrix(f"solve residual {resid:.3e} exceeds {bound:.3e}")
    return Solution(x=x, y=y, z=z)


def selector(kind: str, n: int, m: int, p: int, custom_l=None) -> Selector:
    """Build a selector: full solution, one part, or a caller-supplied L with
    1 <= k <= l rows."""
    l = n + m + p
    ranges = {"full": (0, l), "x": (0, n), "y": (n, n + m), "z": (n + m, l)}
    if kind in ranges:
        return Selector(kind, *ranges[kind], l)
    if kind != "custom":
        raise ValueError(f"unknown selector kind {kind!r}")
    if custom_l is None:
        raise ValueError("custom selector needs an explicit matrix")
    mat = as_matrix(custom_l, "L")
    if mat.shape[1] != l:
        raise DimensionMismatch(f"L has {mat.shape[1]} columns, expected {l}")
    if not 1 <= mat.shape[0] <= l:
        raise DimensionMismatch(f"L has {mat.shape[0]} rows, expected 1 to {l}")
    return Selector(kind, 0, l, l, mat)


def _check_numbers(doc, keys) -> None:
    """Raise :class:`MalformedProblem` where the data value ``doc[key]`` of a
    key in ``keys`` holds an entry that is not a number: a string, a boolean,
    null or an object, which numpy would read as a number ("2.0" and true as
    2.0 and 1.0) or as NaN (null). Nested lists and tuples are walked; an
    array passes when its dtype is numeric."""
    for key in keys:
        stack = [doc[key]]
        while stack:
            value = stack.pop()
            if isinstance(value, (list, tuple)):
                stack.extend(value)
            elif isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
                continue
            elif isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise MalformedProblem(f"{key} has an entry that is not a number: {value!r:.40}")


def _sizes(doc, keys) -> list[int]:
    """The sizes ``doc[key]``: a string, a boolean or a float (even 1.0) is malformed."""
    bad = [key for key in keys if isinstance(doc[key], bool) or not isinstance(doc[key], numbers.Integral)]
    if bad:
        raise MalformedProblem(f"{bad[0]} must be an integer, got {doc[bad[0]]!r:.40}")
    return [int(doc[key]) for key in keys]


def problem_from_dict(doc) -> DsppBlocks:
    """Parse the JSON problem document into blocks.

    The document stores n, m, p and row-major dense arrays A, B, C, D, E plus
    the length-l vector b. D is stored un-negated; assembly applies the sign.
    Raises :class:`MalformedProblem` on any structural defect, on a size
    that is not an integer and on a data entry that is not a number.
    """
    if not isinstance(doc, dict):
        raise MalformedProblem("problem document must be a JSON object")
    missing = [k for k in ("n", "m", "p", "A", "B", "C", "D", "E", "b") if k not in doc]
    if missing:
        raise MalformedProblem(f"problem document missing keys: {', '.join(missing)}")
    _check_numbers(doc, "ABCDEb")
    n, m, p = _sizes(doc, "nmp")
    try:
        blocks = DsppBlocks(
            A=doc["A"], B=doc["B"], C=doc["C"], D=doc["D"], E=doc["E"], b=doc["b"]
        )
    except (DimensionMismatch, ValueError, TypeError, OverflowError) as exc:
        raise MalformedProblem(str(exc)) from exc
    if (blocks.n, blocks.m, blocks.p) != (n, m, p):
        raise MalformedProblem(
            f"declared sizes ({n}, {m}, {p}) disagree with arrays "
            f"({blocks.n}, {blocks.m}, {blocks.p})"
        )
    return blocks


def problem_to_dict(blocks: DsppBlocks) -> dict:
    """Serialize blocks to the JSON problem document (full fidelity floats);
    a CSR block is written dense, the one form the document has."""
    data = {k: np.asarray(getattr(blocks, k)).tolist() for k in "ABCDEb"}
    return {"n": blocks.n, "m": blocks.m, "p": blocks.p, **data}


def _system_sumsq(mats) -> float:
    """Squared Frobenius norm of the system assembled from ``mats`` =
    (A, B, C, D, E), without assembling it (B and C appear twice)."""
    a, b, c, d, e = map(_sumsq, mats)
    return a + 2.0 * b + 2.0 * c + d + e


def _system_norms(mats) -> tuple[float, float]:
    """||M||_1 and ||M||_inf of the system M assembled from ``mats`` =
    (A, B, C, D, E), without assembling it: the largest column and row sums
    of |M|, taken blockwise (B and C enter as themselves and transposed)."""
    (ca, cb, cc, cd, ce), (ra, rb, rc, rd, re) = zip(*map(_abs_sums, mats))
    one = max(float((ca + cb).max()), float((rb + cd + cc).max()), float((rc + ce).max()))
    inf = max(float((ra + cb).max()), float((rb + rd + cc).max()), float((rc + re).max()))
    return one, inf


def norm_fro_system(blocks: DsppBlocks) -> float:
    """Frobenius norm of the assembled system matrix."""
    return float(np.sqrt(_system_sumsq((blocks.A, blocks.B, blocks.C, blocks.D, blocks.E))))


__all__ = [
    "CsrMatrix",
    "DsppBlocks",
    "Solution",
    "Selector",
    "SELECTOR_KINDS",
    "assemble",
    "factorize",
    "solve_dspp",
    "selector",
    "problem_from_dict",
    "problem_to_dict",
    "norm_fro_system",
]
