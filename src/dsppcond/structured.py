"""Linear structure subspaces and structure-preserving condition numbers.

A structure kind (symmetric, symmetric Toeplitz, diagonal, or full) spans a
subspace of square matrices with a 0/1 basis Phi mapping a generator vector g
to vec(M) = Phi g. Each vec position belongs to at most one generator, so
Phi^T Phi = diag(u^2) with integer squared column norms.

Restricting the perturbations of A, D, E to such subspaces (B, C stay
unstructured) tightens the condition numbers; the 2-norm variant rescales the
generator columns by u so the structured and unstructured suprema are taken
over comparably normalized directions. Each kind contributes one closed-form
term to the weighted Gram and one to the max-norm numerator, so the
generator-coordinate map is never formed. Those terms live in
:mod:`dsppcond.partial_cn`, whose unstructured numbers are the case with every
kind "full". This module holds the structure triple (the kind names of A, D,
E), the membership check, read off each matrix without Phi, and the
structured entry points; Phi itself is never built.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from .errors import NotInSubspace
from .linalg import _norm_inf
from .partial_cn import CnValue, PerturbationWeights, SolvedSystem, _as_xi, _data_inf_value, _gram_top

STRUCTURE_KINDS = ("symmetric", "toeplitz_sym", "diagonal", "full")

# Membership tolerance: residual vs 1e-12 * norm_inf of the matrix.
MEMBERSHIP_RTOL = 1e-12


class StructureTriple(namedtuple("StructureTriple", ("a", "d", "e"))):
    """Structure kinds of the A, D, E blocks (B and C stay unstructured): the
    ``kinds`` tuple of :mod:`dsppcond.partial_cn`, for blocks of any size."""

    __slots__ = ()

    def __new__(cls, a: str, d: str, e: str):
        for kind in (a, d, e):
            if kind not in STRUCTURE_KINDS:
                raise ValueError(f"unknown structure kind {kind!r}, choose from {', '.join(STRUCTURE_KINDS)}")
        return super().__new__(cls, a, d, e)

    _make = classmethod(lambda cls, kinds: cls(*kinds))  # _replace builds through it

    @classmethod
    def full(cls):
        return cls("full", "full", "full")


def _membership_residual(kind: str, mat: np.ndarray) -> float:
    """max |M - P(M)| for the projection P onto the subspace of ``kind``,
    which averages the entries of each generator's support and pins the
    entries outside every support to 0. At most one dim x dim temporary.
    """
    if kind == "full":
        return 0.0
    if kind == "diagonal":
        off = np.abs(mat)
        np.fill_diagonal(off, 0.0)
        return float(off.max())
    if kind == "symmetric":
        diff = mat - mat.T
        np.abs(diff, out=diff)
        return float(diff.max()) / 2.0
    # toeplitz_sym: generator g > 0 covers the diagonals +g and -g together.
    resid = 0.0
    for g in range(mat.shape[0]):
        band = np.concatenate([np.diagonal(mat, g), np.diagonal(mat, -g)]) if g else np.diagonal(mat)
        resid = max(resid, float(np.max(np.abs(band - band.mean()))))
    return resid


def _checked_kinds(kinds, mats):
    """``kinds``, once each of ``mats`` lies in the subspace of its kind. The
    one accept rule: :class:`NotInSubspace` unless the residual is at most
    ``MEMBERSHIP_RTOL`` times the matrix's infinity norm."""
    for kind, mat in zip(kinds, mats):
        resid = _membership_residual(kind, mat)
        if resid > MEMBERSHIP_RTOL * _norm_inf(mat):
            raise NotInSubspace(f"matrix is not {kind} (residual {resid:.3e})")
    return kinds


def structured_ncn(
    system: SolvedSystem, weights: PerturbationWeights, xi, triple: StructureTriple
) -> CnValue:
    """2-norm condition number with A, D, E perturbations kept in-structure.

    A, D, E and their matrix weights must lie in the declared subspaces; a
    number weight is constant on every generator's support. The Gram is the
    one of :func:`~dsppcond.partial_cn.ncn` and
    :func:`~dsppcond.partial_cn.unified_cn`, with the triple's kinds in
    place of "full" for A, D, E. Never exceeds the unstructured value for the
    same weights.
    """
    blocks = system.blocks
    kinds = _checked_kinds(triple, (blocks.A, blocks.D, blocks.E))
    wa, _, _, wd, we = weights.for_blocks(blocks)[0]
    for kind, w in zip(kinds, (wa, wd, we)):
        if np.ndim(w):
            _checked_kinds((kind,), (w,))
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
    blocks = system.blocks
    kinds = _checked_kinds(triple, (blocks.A, blocks.D, blocks.E))
    xi = _as_xi(xi)
    if xi.kind not in ("mcn", "ccn"):
        raise ValueError(f"structured_inf_cn supports xi 'mcn' or 'ccn', got {xi.kind!r}")
    return CnValue(_data_inf_value(system, xi, kinds), "structuredInf")


__all__ = [
    "STRUCTURE_KINDS",
    "StructureTriple",
    "structured_ncn",
    "structured_inf_cn",
]
