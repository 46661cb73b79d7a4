"""Partial condition numbers of a projected solution L w.

For a double saddle point system S w = b and a selector L, the condition
number measures the worst first-order amplification from weighted data
perturbations (dA, dB, dC, dD, dE, db) to the observed part L w:

    sup  || xi^ddag . (L dw) ||_gamma  /  || [vec(Psi^ddag . dH); chi^ddag . db] ||_tau

over admissible perturbation directions, where dw is the first-order response
and the weights Psi (per data block) and chi (right-hand side) define what
"relative" means. Taking tau = gamma = 2 with the 2-norm of L w as normalizer
gives the normwise number; tau = gamma = inf with Psi = H, chi = b gives the
mixed (max-norm normalizer) and componentwise (entrywise normalizer) numbers.

The first-order response is dw = -S^{-1} [G, -I] [vec(dH); db] with G the
l x s sensitivity matrix assembled from x, y, z (s = n^2 + nm + mp + m^2 + p^2).
G itself is never formed: every 2-norm number goes through the l x l weighted
Gram G diag(w^2) G^T in closed form, and every max-norm number through one
exact numerator that visits only the nonzero weights, within a fixed chunk
budget. Both need only L S^{-1}, obtained from k transposed solves,
never an explicit inverse. A :class:`SolvedSystem` holds the factorization,
the solution and L S^{-1} of one (problem, selector) pair; every entry point
takes one, so the work is done once however many numbers are asked for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dspp import DsppBlocks, Selector, Solution, _block_product, factorize, solve_dspp
from .errors import DimensionMismatch, ZeroMatrix, ZeroXi
from .linalg import LuSolver, as_vector, ddagger, induced_norm, top_eig

# Entries per chunk of the max-norm pair kernel (k times some nonzero columns of
# one weight row). Its two float64 temporaries take at most 64 MB, so the memory
# beside its inputs and a copy of k_col^T stays under a 128 MB budget for every s.
_CHUNK_ENTRY_LIMIT = 1 << 22

_XI_KINDS = ("ncn", "mcn", "ccn", "custom")


@dataclass(frozen=True)
class CnValue:
    """A computed condition number: nonnegative finite value plus a label."""

    value: float
    flavor: str

    def __post_init__(self):
        v = float(self.value)
        if not np.isfinite(v) or v < 0:
            raise ValueError(f"condition number must be finite and >= 0, got {v!r}")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class PerturbationWeights:
    """Weights defining admissible perturbations and their size.

    Scalar mode: one positive Psi for all data blocks and one positive chi for
    the right-hand side. Entrywise mode: five matrices shaped like A, B, C, D,
    E plus a length-l vector; a zero weight entry pins the corresponding
    perturbation entry to zero.
    """

    mode: str
    psi_scalar: float | None = None
    chi_scalar: float | None = None
    psi_blocks: tuple | None = None
    chi_vector: np.ndarray | None = None

    @classmethod
    def scalar(cls, psi: float, chi: float) -> "PerturbationWeights":
        psi, chi = float(psi), float(chi)
        if not (psi > 0 and chi > 0):
            raise ValueError("scalar weights must be positive")
        return cls(mode="scalar", psi_scalar=psi, chi_scalar=chi)

    @classmethod
    def entrywise(cls, psi_a, psi_b, psi_c, psi_d, psi_e, chi) -> "PerturbationWeights":
        blocks = tuple(np.asarray(w, dtype=float) for w in (psi_a, psi_b, psi_c, psi_d, psi_e))
        return cls(mode="entrywise", psi_blocks=blocks, chi_vector=as_vector(chi, "chi"))

    @classmethod
    def from_problem(cls, blocks: DsppBlocks) -> "PerturbationWeights":
        """The relative-to-the-data choice Psi = H, chi = b."""
        return cls.entrywise(blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)

    @property
    def is_scalar(self) -> bool:
        return self.mode == "scalar"

    def block_mats(self, blocks: DsppBlocks) -> tuple:
        """The five weight matrices, expanding scalar mode to constant blocks."""
        shapes = [blocks.A, blocks.B, blocks.C, blocks.D, blocks.E]
        if self.is_scalar:
            return tuple(np.full(b.shape, self.psi_scalar) for b in shapes)
        for w, b, name in zip(self.psi_blocks, shapes, "ABCDE"):
            if w.shape != b.shape:
                raise DimensionMismatch(f"weight for {name} has shape {w.shape}, expected {b.shape}")
        return self.psi_blocks

    def chi_vec(self, l: int) -> np.ndarray:
        if self.is_scalar:
            return np.full(l, self.chi_scalar)
        if self.chi_vector.size != l:
            raise DimensionMismatch(f"chi has length {self.chi_vector.size}, expected {l}")
        return self.chi_vector


@dataclass(frozen=True)
class XiChoice:
    """How the observed part normalizes the response.

    ncn: constant ||L w||_2, mcn: constant ||L w||_inf, ccn: the vector L w
    itself (entrywise, with the pseudo-reciprocal convention for zeros),
    custom: a caller-supplied length-k vector.
    """

    kind: str
    custom: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in _XI_KINDS:
            raise ValueError(f"unknown xi kind {self.kind!r}")
        if (self.kind == "custom") != (self.custom is not None):
            raise ValueError("custom xi needs (exactly) an explicit vector")

    def resolve(self, lw: np.ndarray) -> np.ndarray:
        """The length-k normalizer vector for an observed part L w."""
        if self.kind == "ncn":
            nrm = float(np.linalg.norm(lw, 2))
            if nrm == 0.0:
                raise ZeroXi("L w is zero, the 2-norm normalizer vanishes")
            return np.full(lw.size, nrm)
        if self.kind == "mcn":
            nrm = float(np.max(np.abs(lw))) if lw.size else 0.0
            if nrm == 0.0:
                raise ZeroXi("L w is zero, the max-norm normalizer vanishes")
            return np.full(lw.size, nrm)
        if self.kind == "ccn":
            return lw
        xi = as_vector(self.custom, "xi")
        if xi.size != lw.size:
            raise DimensionMismatch(f"custom xi has length {xi.size}, expected {lw.size}")
        return xi


def _as_xi(xi) -> XiChoice:
    return xi if isinstance(xi, XiChoice) else XiChoice(kind=str(xi))


def _inf_value(xivec, u) -> float:
    """The max-norm value max_i |xi_i^ddag| u_i for a numerator ``u``."""
    return float(np.max(np.abs(ddagger(xivec)) * u))


def build_j(sol: Solution, wa, wb, wc, wd, we) -> np.ndarray:
    """The l x l weighted Gram G diag(w^2) G^T in closed form (no Kronecker).

    ``wa`` .. ``we`` are weight matrices shaped like A .. E; squares are taken
    entrywise (W2 = W * W):

        xx: diag(W2_A x^2 + W2_B^T y^2)
        yy: diag(W2_B x^2 + W2_D y^2 + W2_C^T z^2)
        zz: diag(W2_C y^2 + W2_E z^2)
        xy: (W2_B o y x^T)^T,   yz: (W2_C o z y^T)^T,   xz: 0

    Scalar weights enter as constant matrices (see
    :meth:`PerturbationWeights.block_mats`).
    """
    x, y, z = sol.x, sol.y, sol.z
    n, m = x.size, y.size
    wa, wb, wc, wd, we = (np.square(w) for w in (wa, wb, wc, wd, we))
    x2, y2, z2 = np.square(x), np.square(y), np.square(z)
    diag = np.concatenate([
        wa @ x2 + wb.T @ y2,
        wb @ x2 + wd @ y2 + wc.T @ z2,
        wc @ y2 + we @ z2,
    ])
    j = np.diag(diag)
    j[:n, n : n + m] = (wb * np.outer(y, x)).T
    j[n : n + m, :n] = j[:n, n : n + m].T
    j[n : n + m, n + m :] = (wc * np.outer(z, y)).T
    j[n + m :, n : n + m] = j[n : n + m, n + m :].T
    return j


def inv_rows(blocks: DsppBlocks, sel: Selector, lu: LuSolver | None = None) -> np.ndarray:
    """The k x l matrix L S^{-1}, via k transposed solves of the factorization."""
    if lu is None:
        lu = factorize(blocks)
    if sel.L.shape[1] != blocks.l:
        raise DimensionMismatch(f"selector has {sel.L.shape[1]} columns, system is {blocks.l}")
    return lu.solve(sel.L.T, transpose=True).T


def first_order_delta(
    blocks: DsppBlocks,
    sol: Solution,
    da, db_, dc, dd, de, drhs,
    lu: LuSolver | None = None,
) -> np.ndarray:
    """First-order solution response to a block perturbation.

    Returns -S^{-1} [G, -I] [vec(dH); drhs], evaluated without Kronecker
    products as S^{-1} (drhs - [dA x + dB^T y; dB x - dD y + dC^T z; dC y + dE z]).
    """
    if lu is None:
        lu = factorize(blocks)
    response = _block_product((da, db_, dc, dd, de), sol.x, sol.y, sol.z)
    return lu.solve(np.asarray(drhs, dtype=float) - response)


def _pair_sum(k_col, v_row, k_row, v_col, w) -> np.ndarray:
    """sum_{r,c} |k_col[:, c] v_row[r] + k_row[:, r] v_col[c]| w[r, c], exactly.

    Only pairs with a nonzero weight are evaluated: row r gathers the rows
    ``cols`` of a contiguous copy of k_col^T where w[r] is nonzero, in chunks
    of at most ``_CHUNK_ENTRY_LIMIT // k``, and adds
    w[r, cols] |k_col^T[cols] v_row[r] + v_col[cols] (x) k_row[:, r]|.
    """
    k = k_col.shape[0]
    k_col_t = np.ascontiguousarray(k_col.T)
    u = np.zeros(k)
    cb = max(1, _CHUNK_ENTRY_LIMIT // max(1, k))
    for r in range(w.shape[0]):
        nz = np.flatnonzero(w[r])
        for start in range(0, nz.size, cb):
            cols = nz[start : start + cb]
            t = k_col_t[cols]
            t *= v_row[r]
            t += np.multiply.outer(v_col[cols], k_row[:, r])
            np.abs(t, out=t)
            u += w[r, cols] @ t
    return u


def _ade_numerator(rows, sol, wa, wd, we) -> np.ndarray:
    """The A, D, E columns of |L S^{-1} G| [vec(W)] for nonnegative weights.

    These column blocks factor through Kronecker identities, so their
    absolute values reduce to small matrix products.
    """
    a1, a2, a3 = np.split(np.abs(rows), [sol.x.size, sol.x.size + sol.y.size], axis=1)
    return a1 @ (wa @ np.abs(sol.x)) + a2 @ (wd @ np.abs(sol.y)) + a3 @ (we @ np.abs(sol.z))


def _bc_numerator(rows, sol, wb, wc, chi_abs) -> np.ndarray:
    """The B, C and right-hand-side columns of |L S^{-1} [G, -I]| [vec(W); chi].

    The B and C blocks mix two terms before the absolute value; the pair
    kernel sums them over the nonzero weights only, within the chunk budget.
    """
    x, y, z = sol.x, sol.y, sol.z
    k1, k2, k3 = np.split(rows, [x.size, x.size + y.size], axis=1)
    u = np.abs(rows) @ chi_abs
    u += _pair_sum(k1, y, k2, x, wb)
    u += _pair_sum(k2, z, k3, y, wc)
    return u


def _inf_numerator(rows, sol, wa, wb, wc, wd, we, chi_abs) -> np.ndarray:
    """|L S^{-1} [G, -I]| [vec(W); chi] for nonnegative weights, exactly."""
    return _ade_numerator(rows, sol, wa, wd, we) + _bc_numerator(rows, sol, wb, wc, chi_abs)


@dataclass(frozen=True, eq=False)
class SolvedSystem:
    """One factorized and solved system with a selector: the work that every
    condition number of the pair (blocks, sel) shares.

    ``rows`` is the k x l matrix L S^{-1}. Build with :meth:`of`. Two values
    are computed on first use and kept: ``lw`` = L w, and ``bc_numerator``,
    the data-weighted B, C and right-hand-side part of the max-norm
    numerator, which the mixed, componentwise and structured max-norm numbers
    all add their A, D, E terms to.
    """

    blocks: DsppBlocks
    sel: Selector
    lu: LuSolver
    sol: Solution
    rows: np.ndarray

    @classmethod
    def of(cls, blocks: DsppBlocks, sel: Selector) -> "SolvedSystem":
        """Factorize and solve once, then form L S^{-1} from the same factors."""
        lu = factorize(blocks)
        return cls(blocks, sel, lu, solve_dspp(blocks, lu), inv_rows(blocks, sel, lu))

    @cached_property
    def lw(self) -> np.ndarray:
        return self.sel.L @ self.sol.w

    @cached_property
    def bc_numerator(self) -> np.ndarray:
        """|L S^{-1} [G_B, G_C, -I]| [vec|B|; vec|C|; |b|] (read-only)."""
        b = self.blocks
        u = _bc_numerator(self.rows, self.sol, np.abs(b.B), np.abs(b.C), np.abs(b.b))
        u.flags.writeable = False
        return u


def _scalar_j_norm(sol: Solution, psi: float) -> float:
    """||J||_2 for the constant weight psi, exactly. With sx = ||x||^2 (and so
    on), J / psi^2 acts as ``c`` on span{(x,0,0), (0,y,0), (0,0,z)} and as c's
    diagonal on the complement, which never exceeds c's top eigenvalue."""
    sx, sy, sz = (float(v @ v) for v in (sol.x, sol.y, sol.z))
    xy, yz = np.sqrt(sx) * np.sqrt(sy), np.sqrt(sy) * np.sqrt(sz)
    c = np.array([[sx + sy, xy, 0.0], [xy, sx + sy + sz, yz], [0.0, yz, sy + sz]])
    return psi * psi * top_eig(c)[0]


def _gram_top(system: SolvedSystem, weights: PerturbationWeights, xivec, j=None):
    """sigma = sqrt(lam) and u for the top eigenpair of the k x k Gram
    Xi L S^{-1} (J + diag chi^2) (L S^{-1})^T Xi; J defaults to :func:`build_j`
    of the weights, a given ``j`` is updated in place."""
    blocks = system.blocks
    if j is None:
        j = build_j(system.sol, *weights.block_mats(blocks))
    j[np.diag_indices_from(j)] += np.square(weights.chi_vec(blocks.l))
    t = ddagger(xivec)[:, None] * system.rows
    lam, u = top_eig(t @ j @ t.T)
    return float(np.sqrt(lam)), u


def unified_cn(system: SolvedSystem, weights: PerturbationWeights, xi, norm: str) -> CnValue:
    """The general weighted condition number for norm "two" or "inf".

    The 2-norm value is the square root of the top eigenvalue of the k x k
    Gram Xi L S^{-1} (J_W + diag chi^2) (L S^{-1})^T Xi, with J_W from
    :func:`build_j`; the max-norm value goes through the exact numerator
    over the nonzero weights. Both hold for scalar and entrywise weights alike.
    """
    if norm not in ("two", "inf"):
        raise ValueError(f"norm must be 'two' or 'inf', got {norm!r}")
    xivec = _as_xi(xi).resolve(system.lw)
    if norm == "two":
        return CnValue(_gram_top(system, weights, xivec)[0], "unified2")
    blocks = system.blocks
    wmats = tuple(np.abs(w) for w in weights.block_mats(blocks))
    u = _inf_numerator(system.rows, system.sol, *wmats, np.abs(weights.chi_vec(blocks.l)))
    return CnValue(_inf_value(xivec, u), "unifiedInf")


def ncn(system: SolvedSystem, psi: float, chi: float) -> CnValue:
    """Normwise condition number of L w under scalar weights, 2-norms.

    The square root of the top eigenvalue of
    L S^{-1} (psi^2 J + chi^2 I) (L S^{-1})^T / ||L w||_2^2, with J the
    closed-form Gram matrix. A zero L w raises :class:`ZeroXi` before the
    weights are checked, since weights taken from the data vanish with it.
    """
    xivec = XiChoice(kind="ncn").resolve(system.lw)
    weights = PerturbationWeights.scalar(psi, chi)
    return CnValue(_gram_top(system, weights, xivec)[0], "ncn")


def ncn_upper(system: SolvedSystem, psi: float, chi: float) -> CnValue:
    """Cheap upper bound dominating :func:`ncn`:
    ||L S^{-1}||_2 (||J_psi||_2^{1/2} + chi) / ||L w||_2 (see :func:`_scalar_j_norm`),
    ||L S^{-1}||_2 from a direct solve of its explicit k x k Gram (k <= l)."""
    xi_l = XiChoice(kind="ncn").resolve(system.lw)[0]
    weights = PerturbationWeights.scalar(psi, chi)
    j_top = np.sqrt(_scalar_j_norm(system.sol, weights.psi_scalar))
    return CnValue(induced_norm(system.rows, "two") * (j_top + weights.chi_scalar) / xi_l, "ncn_upper")


def inf_cn(system: SolvedSystem, xi) -> CnValue:
    """Mixed ("mcn") or componentwise ("ccn") condition number of L w.

    Both take the data-relative weights Psi = H, chi = b and differ only in
    the normalizer: the max norm of L w versus L w entrywise (zeros handled by
    the pseudo-reciprocal, so a zero component with zero numerator adds 0).
    The numerator is the system's shared ``bc_numerator`` plus the A, D, E
    terms.
    """
    xi = _as_xi(xi)
    if xi.kind not in ("mcn", "ccn"):
        raise ValueError(f"inf_cn supports xi 'mcn' or 'ccn', got {xi.kind!r}")
    xivec = xi.resolve(system.lw)
    blocks = system.blocks
    u = system.bc_numerator + _ade_numerator(
        system.rows, system.sol, np.abs(blocks.A), np.abs(blocks.D), np.abs(blocks.E)
    )
    return CnValue(_inf_value(xivec, u), xi.kind)


def inf_cn_upper(system: SolvedSystem) -> tuple[CnValue, CnValue]:
    """Upper bounds dominating the mixed and componentwise numbers.

    Uses |L S^{-1}| (h + |b|) with the blockwise magnitude vector
    h = [|A||x| + |B^T||y|; |B||x| + |D||y| + |C^T||z|; |C||y| + |E||z|],
    the block product of the magnitudes with D negated so every term adds.
    """
    blocks, sol = system.blocks, system.sol
    mags = (np.abs(blocks.A), np.abs(blocks.B), np.abs(blocks.C), -np.abs(blocks.D), np.abs(blocks.E))
    h = _block_product(mags, np.abs(sol.x), np.abs(sol.y), np.abs(sol.z))
    v = np.abs(system.rows) @ (h + np.abs(blocks.b))
    mcn_u = CnValue(_inf_value(XiChoice(kind="mcn").resolve(system.lw), v), "mcn_upper")
    ccn_u = CnValue(_inf_value(XiChoice(kind="ccn").resolve(system.lw), v), "ccn_upper")
    return mcn_u, ccn_u


def definition_ratio(
    system: SolvedSystem, weights: PerturbationWeights, xi, norm: str, deltas
) -> float:
    """The defining quotient for one admissible perturbation direction.

    Evaluates || xi^ddag . (L dw) || / || [vec(Psi^ddag . dH); chi^ddag . db] ||
    with dw the first-order response. Any admissible direction yields a value
    at most the corresponding condition number; callers must supply deltas
    that vanish wherever the weights do.
    """
    if norm not in ("two", "inf"):
        raise ValueError(f"norm must be 'two' or 'inf', got {norm!r}")
    blocks = system.blocks
    da, db_, dc, dd, de, drhs = [np.asarray(d, dtype=float) for d in deltas]
    dw = first_order_delta(blocks, system.sol, da, db_, dc, dd, de, drhs, lu=system.lu)
    num_vec = ddagger(_as_xi(xi).resolve(system.lw)) * (system.sel.L @ dw)

    wmats = weights.block_mats(blocks)
    den_parts = [
        (ddagger(w) * d).flatten(order="F")
        for w, d in zip(wmats, (da, db_, dc, dd, de))
    ]
    den_parts.append(ddagger(weights.chi_vec(blocks.l)) * drhs)
    den_vec = np.concatenate(den_parts)

    ords = {"two": 2, "inf": np.inf}[norm]
    den = float(np.linalg.norm(den_vec, ords))
    if den == 0.0:
        raise ValueError("zero perturbation direction")
    return float(np.linalg.norm(num_vec, ords)) / den


def extremal_direction(system: SolvedSystem, weights: PerturbationWeights, xi):
    """A 2-norm worst-case perturbation direction and the value it attains.

    Takes the top eigenvector u of the k x k Gram of :func:`unified_cn`, maps
    t = (L S^{-1})^T Xi u / sigma back through the adjoint of
    :func:`first_order_delta`, and scales by the squared weights, so the
    returned block deltas are admissible and their :func:`definition_ratio`
    equals the returned sigma (the 2-norm condition number for this xi).
    Raises :class:`ZeroMatrix` when the Gram has no positive eigenvalue.
    """
    blocks, sol = system.blocks, system.sol
    xivec = _as_xi(xi).resolve(system.lw)
    sigma, u = _gram_top(system, weights, xivec)
    if sigma == 0.0:
        raise ZeroMatrix("the weighted Gram matrix has top eigenvalue 0")
    t = system.rows.T @ (ddagger(xivec) * u) / sigma
    wmats = weights.block_mats(blocks)
    chi = weights.chi_vec(blocks.l)

    n, m = blocks.n, blocks.m
    t1, t2, t3 = t[:n], t[n : n + m], t[n + m :]
    x, y, z = sol.x, sol.y, sol.z
    wa, wb, wc, wd, we = (np.square(w) for w in wmats)
    deltas = (
        wa * np.outer(t1, x),
        wb * (np.outer(y, t1) + np.outer(t2, x)),
        wc * (np.outer(z, t2) + np.outer(t3, y)),
        -wd * np.outer(t2, y),
        we * np.outer(t3, z),
        -np.square(chi) * t,
    )
    return deltas, sigma


__all__ = [
    "CnValue",
    "PerturbationWeights",
    "XiChoice",
    "SolvedSystem",
    "build_j",
    "inv_rows",
    "first_order_delta",
    "unified_cn",
    "ncn",
    "ncn_upper",
    "inf_cn",
    "inf_cn_upper",
    "definition_ratio",
    "extremal_direction",
]
