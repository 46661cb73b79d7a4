"""Double saddle point systems.

A system couples three unknown parts x (length n), y (length m), z (length p)
through five data blocks A, B, C, D, E and a right-hand side b of length
l = n + m + p:

    [ A   B^T  0   ] [x]   [b1]
    [ B  -D    C^T ] [y] = [b2]
    [ 0   C    E   ] [z]   [b3]

Note the minus sign: D is stored as given and negated during assembly. This
module holds the block container, assembly, the pivoted solve, the selectors
that project out parts of the solution, and the JSON problem format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, MalformedProblem, SingularMatrix
from .linalg import LuSolver, as_matrix, as_vector

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
        object.__setattr__(self, "A", as_matrix(self.A, "A"))
        object.__setattr__(self, "B", as_matrix(self.B, "B"))
        object.__setattr__(self, "C", as_matrix(self.C, "C"))
        object.__setattr__(self, "D", as_matrix(self.D, "D"))
        object.__setattr__(self, "E", as_matrix(self.E, "E"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        n, m, p = self.A.shape[0], self.B.shape[0], self.C.shape[0]
        if min(n, m, p) < 1:
            raise DimensionMismatch("all three parts must be nonempty")
        checks = {
            "A": (self.A.shape, (n, n)),
            "B": (self.B.shape, (m, n)),
            "C": (self.C.shape, (p, m)),
            "D": (self.D.shape, (m, m)),
            "E": (self.E.shape, (p, p)),
            "b": (self.b.shape, (n + m + p,)),
        }
        for name, (got, want) in checks.items():
            if got != want:
                raise DimensionMismatch(f"block {name} has shape {got}, expected {want}")

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

    @property
    def b1(self) -> np.ndarray:
        return self.b[: self.n]

    @property
    def b2(self) -> np.ndarray:
        return self.b[self.n : self.n + self.m]

    @property
    def b3(self) -> np.ndarray:
        return self.b[self.n + self.m :]


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
    """Assemble the full l x l system matrix (D enters negated)."""
    n, m, p, l = blocks.n, blocks.m, blocks.p, blocks.l
    s = np.zeros((l, l))
    s[:n, :n] = blocks.A
    s[:n, n : n + m] = blocks.B.T
    s[n : n + m, :n] = blocks.B
    s[n : n + m, n : n + m] = -blocks.D
    s[n : n + m, n + m :] = blocks.C.T
    s[n + m :, n : n + m] = blocks.C
    s[n + m :, n + m :] = blocks.E
    return s


def _block_product(mats, x, y, z) -> np.ndarray:
    """The system assembled from ``mats`` = (A, B, C, D, E) times [x; y; z],
    without assembling it: [A x + B^T y; B x - D y + C^T z; C y + E z]."""
    a, b, c, d, e = mats
    return np.concatenate([a @ x + b.T @ y, b @ x - d @ y + c.T @ z, c @ y + e @ z])


def factorize(blocks: DsppBlocks) -> LuSolver:
    """Pivoted factorization of the assembled system (certifies nonsingularity)."""
    return LuSolver(assemble(blocks))


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


def problem_from_dict(doc) -> DsppBlocks:
    """Parse the JSON problem document into blocks.

    The document stores n, m, p and row-major dense arrays A, B, C, D, E plus
    the length-l vector b. D is stored un-negated; assembly applies the sign.
    Raises :class:`MalformedProblem` on any structural defect.
    """
    if not isinstance(doc, dict):
        raise MalformedProblem("problem document must be a JSON object")
    missing = [k for k in ("n", "m", "p", "A", "B", "C", "D", "E", "b") if k not in doc]
    if missing:
        raise MalformedProblem(f"problem document missing keys: {', '.join(missing)}")
    try:
        n, m, p = int(doc["n"]), int(doc["m"]), int(doc["p"])
        blocks = DsppBlocks(
            A=doc["A"], B=doc["B"], C=doc["C"], D=doc["D"], E=doc["E"], b=doc["b"]
        )
    except (DimensionMismatch, ValueError, TypeError) as exc:
        raise MalformedProblem(str(exc)) from exc
    if (blocks.n, blocks.m, blocks.p) != (n, m, p):
        raise MalformedProblem(
            f"declared sizes ({n}, {m}, {p}) disagree with arrays "
            f"({blocks.n}, {blocks.m}, {blocks.p})"
        )
    return blocks


def problem_to_dict(blocks: DsppBlocks) -> dict:
    """Serialize blocks to the JSON problem document (full fidelity floats)."""
    return {
        "n": blocks.n,
        "m": blocks.m,
        "p": blocks.p,
        "A": blocks.A.tolist(),
        "B": blocks.B.tolist(),
        "C": blocks.C.tolist(),
        "D": blocks.D.tolist(),
        "E": blocks.E.tolist(),
        "b": blocks.b.tolist(),
    }


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
