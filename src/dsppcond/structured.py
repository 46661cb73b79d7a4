"""Linear structure subspaces and structure-preserving condition numbers.

A structure kind (symmetric, symmetric Toeplitz, diagonal, or full) is encoded
by a 0/1 basis matrix Phi mapping a generator vector g to vec(M) = Phi g. Each
vec position belongs to at most one generator, so Phi^T Phi = diag(u^2) with
integer squared column norms, and membership/extraction are exact scatter and
gather operations.

Restricting the perturbations of A, D, E to such subspaces (B, C stay
unstructured) tightens the condition numbers; the 2-norm variant rescales the
generator columns by u so the structured and unstructured suprema are taken
over comparably normalized directions. Each kind contributes one closed-form
block to the weighted Gram and one term to the max-norm numerator, so the
generator-coordinate map is never formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse

from .dspp import DsppBlocks
from .errors import DimensionMismatch, NotInSubspace
from .linalg import induced_norm, unvec
from .partial_cn import (
    CnValue,
    PerturbationWeights,
    SolvedSystem,
    _as_xi,
    _gram_top,
    _inf_value,
    _pair_sum,
    build_j,
)

STRUCTURE_KINDS = ("symmetric", "toeplitz_sym", "diagonal", "full")

# Membership tolerance: residual vs 1e-12 * norm_inf of the matrix.
MEMBERSHIP_RTOL = 1e-12


@dataclass(eq=False)
class StructureBasis:
    """A 0/1 basis of a structure subspace of dim x dim matrices.

    ``rows[t]`` is the vec position (column-major) touched by generator
    ``cols[t]``; ``counts`` are the integer squared column norms and
    ``u = sqrt(counts)`` the column norms themselves.
    """

    kind: str
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray
    u: np.ndarray

    @property
    def generators(self) -> int:
        return self.counts.size

    @cached_property
    def phi(self) -> scipy.sparse.csc_array:
        data = np.ones(self.rows.size)
        return scipy.sparse.csc_array(
            (data, (self.rows, self.cols)), shape=(self.dim * self.dim, self.generators)
        )

    def extract(self, mat) -> np.ndarray:
        """Generator of ``mat``; raises :class:`NotInSubspace` if it has none."""
        mat = np.asarray(mat, dtype=float)
        if mat.shape != (self.dim, self.dim):
            raise DimensionMismatch(f"expected {self.dim}x{self.dim}, got {mat.shape}")
        v = mat.flatten(order="F")
        g = np.bincount(self.cols, weights=v[self.rows], minlength=self.generators)
        g = g / self.counts
        recon = np.zeros(v.size)
        recon[self.rows] = g[self.cols]
        resid = float(np.max(np.abs(v - recon))) if v.size else 0.0
        if resid > MEMBERSHIP_RTOL * induced_norm(mat, "inf"):
            raise NotInSubspace(
                f"matrix is not {self.kind} (residual {resid:.3e})"
            )
        return g

    def reconstruct(self, g) -> np.ndarray:
        """The matrix with generator ``g``."""
        g = np.asarray(g, dtype=float)
        if g.shape != (self.generators,):
            raise DimensionMismatch(f"generator length {g.size}, expected {self.generators}")
        v = np.zeros(self.dim * self.dim)
        v[self.rows] = g[self.cols]
        return unvec(v, self.dim, self.dim)

    def _shifted(self, v) -> np.ndarray:
        """Column g is T_g v for the symmetric Toeplitz generator T_g."""
        out = np.zeros((self.dim, self.dim))
        out[:, 0] = v
        for g in range(1, self.dim):
            out[g:, g] += v[:-g]
            out[:-g, g] += v[g:]
        return out

    def gram(self, w, v) -> np.ndarray:
        """Gram block sum_g (w_g^2 / c_g) (Phi_g v)(Phi_g v)^T of dM v over the
        subspace, for a weight matrix ``w`` constant on each generator's support.
        """
        w2, v2 = np.square(w), np.square(v)
        if self.kind == "full":
            return np.diag(w2 @ v2)
        if self.kind == "diagonal":
            return np.diag(np.diag(w2) * v2)
        if self.kind == "symmetric":
            return (np.diag(w2 @ v2) + w2 * np.outer(v, v)) / 2.0
        vmat = self._shifted(v)
        return (vmat * (w2[:, 0] / self.counts)) @ vmat.T

    def numerator(self, k, w, v) -> np.ndarray:
        """sum_g |K Phi_g v| w_g for a nonnegative weight matrix ``w`` constant on
        each generator's support; ``k`` holds the matching columns of L S^{-1}.
        """
        if self.kind == "full":
            return np.abs(k) @ (w @ np.abs(v))
        if self.kind == "diagonal":
            return np.abs(k) @ (np.diag(w) * np.abs(v))
        if self.kind == "symmetric":
            # The pair (r, c) and (c, r) share one generator; the diagonal
            # pair counts its single entry twice, hence the half weight.
            pair_w = np.triu(w, 1) + np.diag(np.diag(w)) / 2.0
            return _pair_sum(k, v, k, v, pair_w)
        return np.abs(k @ self._shifted(v)) @ w[:, 0]


def structure_basis(kind: str, dim: int) -> StructureBasis:
    """Build the basis for one structure kind.

    Generator orderings: symmetric walks the upper triangle row by row
    ((1,1),(1,2),...,(1,n),(2,2),...); toeplitz_sym uses diagonal offsets
    0..n-1; diagonal and full use entry order.
    """
    if dim < 1:
        raise DimensionMismatch("dimension must be >= 1")
    # gen[i, j]: the generator of entry (i, j), or -1 for an entry pinned to 0.
    i, j = np.indices((dim, dim), dtype=np.int64)
    if kind == "symmetric":
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        gen = lo * dim - lo * (lo - 1) // 2 + hi - lo
    elif kind == "toeplitz_sym":
        gen = np.abs(i - j)
    elif kind == "diagonal":
        gen = np.where(i == j, i, -1)
    elif kind == "full":
        gen = i + j * dim
    else:
        raise ValueError(f"unsupported structure kind {kind!r}")
    gen = gen.flatten(order="F")
    rows = np.flatnonzero(gen >= 0)
    cols = gen[rows]
    counts = np.bincount(cols, minlength=int(cols.max()) + 1)
    return StructureBasis(
        kind=kind, dim=dim, rows=rows, cols=cols,
        counts=counts, u=np.sqrt(counts.astype(float)),
    )


@dataclass(frozen=True)
class StructureTriple:
    """Structure kinds for the A, D, E blocks (B and C stay unstructured)."""

    a: StructureBasis
    d: StructureBasis
    e: StructureBasis

    @classmethod
    def from_kinds(cls, kind_a: str, kind_d: str, kind_e: str, n: int, m: int, p: int):
        return cls(
            a=structure_basis(kind_a, n),
            d=structure_basis(kind_d, m),
            e=structure_basis(kind_e, p),
        )

    @classmethod
    def full(cls, n: int, m: int, p: int):
        return cls.from_kinds("full", "full", "full", n, m, p)

    def kinds(self) -> dict:
        return {"A": self.a.kind, "D": self.d.kind, "E": self.e.kind}


def _check_dims(triple: StructureTriple, blocks: DsppBlocks):
    want = (blocks.n, blocks.m, blocks.p)
    got = (triple.a.dim, triple.d.dim, triple.e.dim)
    if want != got:
        raise DimensionMismatch(f"structure dims {got} do not match blocks {want}")


def _check_members(triple: StructureTriple, ma, md, me):
    """Membership of A, D, E (or their weights) in the declared subspaces."""
    for basis, mat in ((triple.a, ma), (triple.d, md), (triple.e, me)):
        basis.extract(mat)


def structured_ncn(
    system: SolvedSystem, weights: PerturbationWeights, xi, triple: StructureTriple
) -> CnValue:
    """2-norm condition number with A, D, E perturbations kept in-structure.

    A, D, E (and entrywise weight blocks for them) must lie in the declared
    subspaces. The Gram is :func:`build_j` with the A, D, E weights at zero
    plus one :meth:`StructureBasis.gram` block per kind. Never exceeds the
    unstructured value for the same weights.
    """
    blocks, sol = system.blocks, system.sol
    _check_dims(triple, blocks)
    _check_members(triple, blocks.A, blocks.D, blocks.E)
    wa, wb, wc, wd, we = weights.block_mats(blocks)
    if not weights.is_scalar:
        _check_members(triple, wa, wd, we)
    xivec = _as_xi(xi).resolve(system.lw)

    n, m = blocks.n, blocks.m
    j = build_j(sol, np.zeros_like(wa), wb, wc, np.zeros_like(wd), np.zeros_like(we))
    j[:n, :n] += triple.a.gram(wa, sol.x)
    j[n : n + m, n : n + m] += triple.d.gram(wd, sol.y)
    j[n + m :, n + m :] += triple.e.gram(we, sol.z)
    return CnValue(_gram_top(system, weights, xivec, j)[0], "structured2")


def structured_inf_cn(system: SolvedSystem, xi, triple: StructureTriple) -> CnValue:
    """Mixed or componentwise condition number with structured A, D, E.

    Weights are the data itself (Psi = H, chi = b) with the A, D, E parts
    expressed through their generators, so structured values never exceed the
    unstructured ones. The numerator is the system's shared ``bc_numerator``
    (the unstructured B, C and right-hand-side part) plus one
    :meth:`StructureBasis.numerator` term per kind.
    """
    blocks, sol, rows = system.blocks, system.sol, system.rows
    _check_dims(triple, blocks)
    xi = _as_xi(xi)
    if xi.kind not in ("mcn", "ccn"):
        raise ValueError(f"structured_inf_cn supports xi 'mcn' or 'ccn', got {xi.kind!r}")
    _check_members(triple, blocks.A, blocks.D, blocks.E)
    xivec = xi.resolve(system.lw)
    n, m = blocks.n, blocks.m
    u = system.bc_numerator + triple.a.numerator(rows[:, :n], np.abs(blocks.A), sol.x)
    u += triple.d.numerator(rows[:, n : n + m], np.abs(blocks.D), sol.y)
    u += triple.e.numerator(rows[:, n + m :], np.abs(blocks.E), sol.z)
    return CnValue(_inf_value(xivec, u), "structuredInf")


__all__ = [
    "STRUCTURE_KINDS",
    "StructureBasis",
    "StructureTriple",
    "structure_basis",
    "structured_ncn",
    "structured_inf_cn",
]
