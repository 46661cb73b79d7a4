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
problem format.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedProblem, SingularMatrix
from .linalg import BandLuSolver, LuSolver, as_matrix, as_vector

SELECTOR_KINDS = ("full", "x", "y", "z", "custom")

# Acceptable relative residual for a certified solve.
RESIDUAL_RTOL = 1e-8


@dataclass(frozen=True)
class DsppBlocks:
    """The five data blocks plus the full right-hand side.

    Shapes: A is n x n, B is m x n, C is p x m, D is m x m, E is p x p and
    b has length n + m + p. All entries must be finite; n, m, p >= 1.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray
    D: np.ndarray
    E: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name in "ABCDEb":
            coerce = as_vector if name == "b" else as_matrix
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


def assemble(blocks: DsppBlocks) -> np.ndarray:
    """Assemble the full l x l system matrix (D enters negated), in Fortran
    order, as LAPACK factors it."""
    n, m, p, l = blocks.n, blocks.m, blocks.p, blocks.l
    s = np.zeros((l, l), order="F")
    s[:n, :n] = blocks.A
    s[:n, n : n + m] = blocks.B.T
    s[n : n + m, :n] = blocks.B
    d = s[n : n + m, n : n + m]
    # -D a column at a time: a whole-block ufunc would take an m x m
    # temporary or numpy's buffers.
    for j in range(m):
        np.negative(blocks.D[:, j], out=d[:, j])
    s[n : n + m, n + m :] = blocks.C.T
    s[n + m :, n : n + m] = blocks.C
    s[n + m :, n + m :] = blocks.E
    return s


def _block_product(mats, x, y, z) -> np.ndarray:
    """The system assembled from ``mats`` = (A, B, C, D, E) times [x; y; z],
    without assembling it: [A x + B^T y; B x - D y + C^T z; C y + E z]."""
    a, b, c, d, e = mats
    return np.concatenate([a @ x + b.T @ y, b @ x - d @ y + c.T @ z, c @ y + e @ z])


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
    nnz = sum(c * np.count_nonzero(mat) for c, mat in zip((1, 2, 2, 1, 1), mats))
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
    n, m = blocks.n, blocks.m
    parts = []
    for mat, r0, c0, sign, mirrored in (
        (blocks.A, 0, 0, 1.0, False), (blocks.B, n, 0, 1.0, True), (blocks.C, n + m, n, 1.0, True),
        (blocks.D, n, n, -1.0, False), (blocks.E, n + m, n + m, 1.0, False),
    ):
        r, c = np.nonzero(mat)
        v = mat[r, c] * sign
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
    """Serialize blocks to the JSON problem document (full fidelity floats)."""
    return {"n": blocks.n, "m": blocks.m, "p": blocks.p, **{k: getattr(blocks, k).tolist() for k in "ABCDEb"}}


def _system_sumsq(mats) -> float:
    """Squared Frobenius norm of the system assembled from ``mats`` =
    (A, B, C, D, E), without assembling it (B and C appear twice). einsum
    forms no temporary and, unlike a BLAS dot, wakes no BLAS threads."""
    a, b, c, d, e = (float(np.einsum("ij,ij->", mat, mat)) for mat in mats)
    return a + 2.0 * b + 2.0 * c + d + e


def _system_norms(mats) -> tuple[float, float]:
    """||M||_1 and ||M||_inf of the system M assembled from ``mats`` =
    (A, B, C, D, E), without assembling it: the largest column and row sums
    of |M|, taken blockwise (B and C enter as themselves and transposed)."""
    (ca, cb, cc, cd, ce), (ra, rb, rc, rd, re) = zip(
        *((a.sum(axis=0), a.sum(axis=1)) for a in map(np.abs, mats))
    )
    one = max(float((ca + cb).max()), float((rb + cd + cc).max()), float((rc + ce).max()))
    inf = max(float((ra + cb).max()), float((rb + rd + cc).max()), float((rc + re).max()))
    return one, inf


def norm_fro_system(blocks: DsppBlocks) -> float:
    """Frobenius norm of the assembled system matrix."""
    return float(np.sqrt(_system_sumsq((blocks.A, blocks.B, blocks.C, blocks.D, blocks.E))))


__all__ = [
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
