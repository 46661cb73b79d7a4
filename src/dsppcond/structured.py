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
term to the weighted Gram and one to the max-norm numerator, so the
generator-coordinate map is never formed. Those terms live in
:mod:`dsppcond.partial_cn`, whose unstructured numbers are the case with every
kind "full"; this module holds the index map of each kind, the membership
check, and the structured entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dspp import DsppBlocks
from .errors import DimensionMismatch, NotInSubspace
from .linalg import _norm_inf
from .partial_cn import CnValue, PerturbationWeights, SolvedSystem, _as_xi, _data_inf_value, _gram_top

STRUCTURE_KINDS = ("symmetric", "toeplitz_sym", "diagonal", "full")

# Membership tolerance: residual vs 1e-12 * norm_inf of the matrix.
MEMBERSHIP_RTOL = 1e-12


@dataclass(eq=False)
class StructureBasis:
    """A 0/1 basis of a structure subspace of dim x dim matrices.

    ``rows[t]`` is the vec position (column-major) touched by generator
    ``cols[t]``; ``counts`` are the integer squared column norms.
    """

    kind: str
    dim: int
    rows: np.ndarray
    cols: np.ndarray
    counts: np.ndarray

    @property
    def generators(self) -> int:
        return self.counts.size

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
        if resid > MEMBERSHIP_RTOL * _norm_inf(mat):
            raise NotInSubspace(
                f"matrix is not {self.kind} (residual {resid:.3e})"
            )
        return g


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
    return StructureBasis(kind=kind, dim=dim, rows=rows, cols=cols, counts=counts)


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


def _checked_kinds(triple: StructureTriple, blocks: DsppBlocks) -> tuple:
    """The A, D, E kinds of ``triple``, once its dimensions match the blocks
    and A, D, E lie in its subspaces."""
    want = (blocks.n, blocks.m, blocks.p)
    got = (triple.a.dim, triple.d.dim, triple.e.dim)
    if want != got:
        raise DimensionMismatch(f"structure dims {got} do not match blocks {want}")
    _check_members(triple, blocks.A, blocks.D, blocks.E)
    return (triple.a.kind, triple.d.kind, triple.e.kind)


def _check_members(triple: StructureTriple, ma, md, me):
    """Membership of A, D, E (or their weights) in the declared subspaces."""
    for basis, mat in ((triple.a, ma), (triple.d, md), (triple.e, me)):
        basis.extract(mat)


def structured_ncn(
    system: SolvedSystem, weights: PerturbationWeights, xi, triple: StructureTriple
) -> CnValue:
    """2-norm condition number with A, D, E perturbations kept in-structure.

    A, D, E (and entrywise weight blocks for them) must lie in the declared
    subspaces. The Gram is the one of :func:`~dsppcond.partial_cn.ncn` and
    :func:`~dsppcond.partial_cn.unified_cn`, with the triple's kinds in
    place of "full" for A, D, E. Never exceeds the unstructured value for the
    same weights.
    """
    kinds = _checked_kinds(triple, system.blocks)
    if not weights.is_scalar:
        wa, _, _, wd, we = weights.block_mats(system.blocks)
        _check_members(triple, wa, wd, we)
    xivec = _as_xi(xi).resolve(system.lw)
    return CnValue(_gram_top(system, weights, xivec, kinds)[0], "structured2")


def structured_inf_cn(system: SolvedSystem, xi, triple: StructureTriple) -> CnValue:
    """Mixed or componentwise condition number with structured A, D, E.

    Weights are the data itself (Psi = H, chi = b) with the A, D, E parts
    expressed through their generators, so structured values never exceed the
    unstructured ones. The numerator is the one of
    :func:`~dsppcond.partial_cn.inf_cn`, with the triple's kinds in place of
    "full" for A, D, E.
    """
    kinds = _checked_kinds(triple, system.blocks)
    xi = _as_xi(xi)
    if xi.kind not in ("mcn", "ccn"):
        raise ValueError(f"structured_inf_cn supports xi 'mcn' or 'ccn', got {xi.kind!r}")
    return CnValue(_data_inf_value(system, xi, kinds), "structuredInf")


__all__ = [
    "STRUCTURE_KINDS",
    "StructureBasis",
    "StructureTriple",
    "structure_basis",
    "structured_ncn",
    "structured_inf_cn",
]
