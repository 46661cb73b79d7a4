"""Partial condition numbers of a projected solution L w.

For a double saddle point system S w = b and a selector L, the condition
number measures the worst first-order amplification from weighted data
perturbations (dA, dB, dC, dD, dE, db) to the observed part L w:

    sup  || xi^ddag . (L dw) ||_gamma  /  || [vec(Psi^ddag . dH); chi^ddag . db] ||_tau

over admissible perturbation directions, where dw is the first-order response
and the weights Psi (per data block) and chi (right-hand side) define what
"relative" means: each is a number or a matrix (chi: a vector), a number psi
standing for the constant matrix psi 11^T. Taking tau = gamma = 2 with the
2-norm of L w as normalizer and numbers Psi, chi gives the normwise number;
tau = gamma = inf with Psi = H, chi = b gives the mixed (max-norm
normalizer) and componentwise (entrywise normalizer) numbers.

The first-order response is dw = -S^{-1} [G, -I] [vec(dH); db] with G the
l x s sensitivity matrix assembled from x, y, z (s = n^2 + nm + mp + m^2 + p^2).
G itself is never formed. Every 2-norm number goes through the l x l weighted
Gram J = G diag(w^2) G^T, applied blockwise in closed form (a diagonal, the
xy and yz blocks and one term per structure kind, a number weight c as
c 11^T) and never assembled. Every max-norm number goes through one exact
numerator that visits only the nonzero weights, several weight rows per
chunk of at most 2^16 entries, with one BLAS dger call (through
:class:`~dsppcond.linalg.RankOneUpdate`) per run of one row. Both need only
L S^{-1}: rows lo:hi of S^{-1} for a range selector, from the part solves
of one :class:`Factors` buffer, or k transposed solves against a custom L.
Both take the structure kinds of dA, dD, dE (:mod:`dsppcond.structured`)
as a parameter; the unstructured numbers have every kind "full". A
:class:`SolvedSystem` holds the solution and L S^{-1} of one (problem,
selector) pair, so the work is done once however many numbers are asked
for; it holds no factorization: S's LU lives in a :class:`Factors` only
while something solves with it.
"""
from __future__ import annotations

import bisect
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dspp import (
    DsppBlocks, Selector, Solution, _abs_product, _as_block, _diagonal, _mul, _row_nonzeros, _entrywise,
    factorize, solve_dspp,
)
from .errors import DimensionMismatch, ZeroXi
from .linalg import _CHUNK_ENTRY_LIMIT, RankOneUpdate, _norm_upper, as_vector, ddagger, top_eig

_XI_KINDS = ("ncn", "mcn", "ccn", "custom")

# Relative slack of every dominance check (value <= bound, structured <=
# unstructured). Each side is a top eigenvalue whose stopping rule leaves a
# relative error of at most k eps (2.3e-13 at k = 1024), or a max-norm sum
# with a few roundings per term; the closest value/bound pair in the
# benchmark outputs has ratio 0.9968, so 1e-12 fires only on a real violation.
DOMINANCE_RTOL = 1e-12

# The structure kinds of A, D, E for the unstructured numbers.
_UNSTRUCTURED = ("full", "full", "full")


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


def _positive(v) -> float:
    """A scalar weight, which must be a positive finite number."""
    if not 0.0 < float(v) < np.inf:
        raise ValueError("scalar weight must be positive and finite")
    return float(v)


def _weight(w, name: str, coerce):
    """A block weight: a finite number as a float, an array through ``coerce``."""
    if np.ndim(w):
        return coerce(w, name)
    if not np.isfinite(float(w)):
        raise ValueError(f"{name} is not finite")
    return float(w)


@dataclass(frozen=True)
class PerturbationWeights:
    """Weights defining admissible perturbations and their size.

    ``psi`` holds the weights of A, B, C, D, E, each a finite number or a
    matrix shaped like its block (an ndarray, or a CsrMatrix kept as one),
    and ``chi`` that of b, a number or a length-l vector. A number stands
    for the constant matrix (vector) of that value; a zero weight entry pins
    its perturbation entry to zero.
    """

    psi: tuple
    chi: float | np.ndarray

    def __post_init__(self):
        named = zip(self.psi, "ABCDE", strict=True)
        object.__setattr__(self, "psi", tuple(_weight(w, f"weight for {n}", _as_block) for w, n in named))
        object.__setattr__(self, "chi", _weight(self.chi, "chi", as_vector))

    @classmethod
    def scalar(cls, psi: float, chi: float) -> "PerturbationWeights":
        """One positive number for all data blocks and one for the right-hand side."""
        return cls((_positive(psi),) * 5, _positive(chi))

    @classmethod
    def entrywise(cls, psi_a, psi_b, psi_c, psi_d, psi_e, chi) -> "PerturbationWeights":
        return cls((psi_a, psi_b, psi_c, psi_d, psi_e), chi)

    @classmethod
    def from_problem(cls, blocks: DsppBlocks) -> "PerturbationWeights":
        """The relative-to-the-data choice Psi = H, chi = b."""
        return cls.entrywise(blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)

    def for_blocks(self, blocks: DsppBlocks) -> tuple:
        """``(psi, chi)``, once every matrix weight has its block's shape and a
        vector chi length l; numbers are returned as numbers."""
        for w, b, name in zip(self.psi, (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E), "ABCDE"):
            if np.ndim(w) and w.shape != b.shape:
                raise DimensionMismatch(f"weight for {name} has shape {w.shape}, expected {b.shape}")
        if np.ndim(self.chi) and self.chi.size != blocks.l:
            raise DimensionMismatch(f"chi has length {self.chi.size}, expected {blocks.l}")
        return self.psi, self.chi


def _expand(psi, sol: Solution) -> tuple:
    """The five block weights as matrices shaped like A .. E; a number becomes a
    zero-stride view (``np.broadcast_to``), so no block-sized array holds it."""
    n, m, p = sol.x.size, sol.y.size, sol.z.size
    shapes = ((n, n), (m, n), (p, m), (m, m), (p, p))
    return tuple(w if np.ndim(w) else np.broadcast_to(w, s) for w, s in zip(psi, shapes))


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


def _shifted(v) -> np.ndarray:
    """Column g is T_g v for the symmetric Toeplitz generator T_g."""
    dim = v.size
    out = np.zeros((dim, dim))
    out[:, 0] = v
    for g in range(1, dim):
        out[g:, g] += v[:-g]
        out[:-g, g] += v[g:]
    return out


def _wprod(w, v, how: str = "@"):
    """A product in J of block weight W: W v ("@"), W^T v ("T@"), v times W's diagonal ("diag")
    or first column ("col"). A number c is c 11^T in closed form: c (1^T v), a scalar, or c v."""
    if how[-1] == "@":
        return _mul(w, v, how == "T@") if np.ndim(w) else w * v.sum()
    return _diagonal(w, how == "col") * v if np.ndim(w) else w * v


def _kind_op(kind: str, w2, v):
    """u -> K u for the Gram term K = sum_g (w_g^2 / c_g) (Phi_g v)(Phi_g v)^T
    of dM v over one structure kind, for squared weights ``w2`` constant on
    each generator's support (c_g: the generator's entry count).
    """
    v2 = np.square(v)
    if kind in ("full", "diagonal"):
        d = _wprod(w2, v2, "@" if kind == "full" else "diag")
        return lambda u: d * u
    if kind == "symmetric":
        d = _wprod(w2, v2)
        return lambda u: (d * u + v * _wprod(w2, v * u)) / 2.0
    # toeplitz_sym: generator 0 covers the dim diagonal entries, g > 0 the
    # 2 (dim - g) entries of two off-diagonals.
    counts = 2.0 * np.arange(v.size, 0, -1)
    counts[0] = v.size
    vmat = _shifted(v)
    c = _wprod(w2, 1.0, "col") / counts
    return lambda u: vmat @ (c * (u @ vmat))


def _j_operator(sol: Solution, psi, chi, kinds):
    """u -> J u for the l x l weighted Gram
    J = G diag(w) Phi U^{-2} Phi^T diag(w) G^T + diag(chi^2), applied
    blockwise in closed form (no Kronecker, no l x l array).

    Phi is the 0/1 basis of the perturbations, with dA, dD, dE in the
    structure ``kinds`` and dB, dC unstructured, and U its column norms;
    with ``kinds`` all "full", Phi = U = I and this is the unstructured J.
    ``psi`` are the block weights of :class:`PerturbationWeights`, squared
    once entrywise (W2 = W * W):

        xx: diag(W2_B^T y^2) + K_A(x),   zz: diag(W2_C y^2) + K_E(z),
        yy: diag(W2_B x^2 + W2_C^T z^2) + K_D(y),
        xy: (W2_B o y x^T)^T,   yz: (W2_C o z y^T)^T,   xz: 0

    with K_M the :func:`_kind_op` term of M's kind (diag(W2_M v^2) for
    "full"), each product with a weight one :func:`_wprod`. One product
    costs 2 (nm + mp) for the off-diagonal blocks (O(l) for numbers) plus
    the kind terms.
    """
    x, y, z = sol.x, sol.y, sol.z
    n, m = x.size, y.size
    wa, wb, wc, wd, we = (_entrywise(np.square, w) for w in psi)
    ka, kd, ke = (_kind_op(*args) for args in zip(kinds, (wa, wd, we), (x, y, z)))
    y2 = np.square(y)
    d = np.zeros(n + m + z.size) + np.square(chi)
    d[:n] += _wprod(wb, y2, "T@")
    d[n : n + m] += _wprod(wb, np.square(x)) + _wprod(wc, np.square(z), "T@")
    d[n + m :] += _wprod(wc, y2)
    dx, dy, dz = np.split(d, [n, n + m])

    def apply(u):
        ux, uy, uz = u[:n], u[n : n + m], u[n + m :]
        return np.concatenate([
            dx * ux + ka(ux) + x * _wprod(wb, y * uy, "T@"),
            dy * uy + kd(uy) + y * (_wprod(wb, x * ux) + _wprod(wc, z * uz, "T@")),
            dz * uz + ke(uz) + z * _wprod(wc, y * uy),
        ])

    return apply


def _pair_sum(k_col, v_row, k_row, v_col, w, upper: bool = False) -> np.ndarray:
    """sum_{r,c} |k_col[:, c] v_row[r] + k_row[:, r] v_col[c]| |w[r, c]|, exactly.

    |w| is taken as w's rows are read, so ``w`` may be a signed block. With
    ``upper`` the sum runs over c >= r only, the pair (r, r) at half weight
    (exact). Otherwise the roles (k_col, v_row, w) and (k_row, v_col, w^T)
    are swapped where k_col is the wider block, so that the copy below is
    of the narrower one; the sum then rounds in another order.

    Only nonzero weights are visited, listed by blocks of weight rows and
    taken in chunks of at most cb = ``_CHUNK_ENTRY_LIMIT // k`` pairs: as
    many whole rows as fit, or cb pairs of a longer row, as dense rows
    always were. A chunk gathers its rows c of a contiguous copy of k_col^T
    into one C-ordered buffer t; each run of one row r is scaled by v_row[r]
    and gets v_col[c] (x) k_row[:, r] from one BLAS ``dger`` call (a
    :class:`RankOneUpdate` on t^T, reading k_row's columns from a slab
    copied per block); then |w[r, c]| |t| is summed. The Python loop runs
    once per block, chunk and run. Beside its inputs the kernel holds the
    copy, the buffer, a slab and a listing (at most 1/2 and 5/8 of the
    buffer) and O(k + l) vectors, a budget that does not grow with s.
    """
    if not upper and k_col.shape[1] > k_row.shape[1]:
        k_col, v_row, k_row, v_col, w = k_row, v_col, k_col, v_row, w.T
    k, (rows, cols) = k_col.shape[0], w.shape
    k_col_t = np.empty((k_col.shape[1], k))
    for i in range(0, k, 64):  # 3x faster than one transposing copy at 1024 x 256
        k_col_t[:, i : i + 64] = k_col[i : i + 64].T
    cap = min(max(1, _CHUNK_ENTRY_LIMIT // max(1, k)), cols)
    u, buf, v_cols = np.zeros(k), np.empty((cap, k)), np.empty(cap)
    step = max(1, min(cap // 2, buf.size // 8 // max(1, cols)))
    slab = np.empty((k, min(step, rows)))
    rank_one = RankOneUpdate(buf.T, slab, v_cols)
    for r0 in range(0, rows, step):
        c0 = r0 if upper else 0
        w_nz, c_at, counts = _row_nonzeros(w, r0, r0 + step, upper)
        np.copyto(slab[:, : len(counts)], k_row[:, r0 : r0 + len(counts)])
        runs = np.flatnonzero(counts)
        ends, scales, runs = np.cumsum(counts[runs]).tolist(), v_row[r0 + runs].tolist(), runs.tolist()
        i = a = 0
        while a < len(w_nz):
            j = bisect.bisect_right(ends, a + cap)
            b = ends[j - 1] if j and ends[j - 1] > a else a + cap
            # mode="clip" writes straight into ``out``; "raise" would buffer.
            t = np.take(k_col_t[c0:], c_at[a:b], axis=0, out=buf[: b - a], mode="clip")
            np.take(v_col[c0:], c_at[a:b], out=v_cols[: b - a], mode="clip")
            lo = a
            while lo < b:
                hi = min(ends[i], b)
                t[lo - a : hi - a] *= scales[i]
                rank_one.update(runs[i], lo - a, hi - a)
                i += hi == ends[i]
                lo = hi
            np.abs(t, out=t)
            u += w_nz[a:b] @ t
            a = b
    return u


def _kind_numerator(kind: str, k, w, v) -> np.ndarray:
    """sum_g |K Phi_g v| |w_g| over the generators of one structure kind, for
    a weight matrix ``w`` whose magnitude is constant on each generator's
    support; ``k`` holds the matching columns of L S^{-1}. |w| is taken in
    row chunks or rows, so no array of w's size is formed.
    """
    if kind == "full":
        return _abs_product(k, _abs_product(w, np.abs(v)))
    if kind == "diagonal":
        return _abs_product(k, np.abs(_diagonal(w)) * np.abs(v))
    if kind == "symmetric":
        # The pair (r, c) and (c, r) share one generator; the diagonal
        # pair counts its single entry twice, hence the half weight.
        return _pair_sum(k, v, k, v, w, upper=True)
    return np.abs(k @ _shifted(v)) @ np.abs(_diagonal(w, first_column=True))


def _ade_numerator(rows, sol, wa, wd, we, kinds) -> np.ndarray:
    """The A, D, E columns of |L S^{-1} G Phi| [generators of |W|], with dA,
    dD, dE in the structure ``kinds`` (all "full": the unstructured
    |L S^{-1} G| [vec|W|] columns), for weights W of any sign. These column
    blocks factor through Kronecker identities, so each kind's term reduces
    to small matrix products.
    """
    n, m = sol.x.size, sol.y.size
    parts = zip(kinds, np.split(rows, [n, n + m], axis=1), (wa, wd, we), (sol.x, sol.y, sol.z))
    u = np.zeros(rows.shape[0])
    for kind, k, w, v in parts:
        u += _kind_numerator(kind, k, w, v)
    return u


def _bc_numerator(rows, sol, wb, wc, chi_abs) -> np.ndarray:
    """The B, C and right-hand-side columns of |L S^{-1} [G, -I]| [vec|W|; chi]
    for the nonnegative ``chi_abs``.

    The B and C blocks mix two terms before the absolute value; the pair
    kernel sums them over the nonzero weights only, within the chunk budget.
    """
    x, y, z = sol.x, sol.y, sol.z
    k1, k2, k3 = np.split(rows, [x.size, x.size + y.size], axis=1)
    u = _abs_product(rows, chi_abs)
    u += _pair_sum(k1, y, k2, x, wb)
    u += _pair_sum(k2, z, k3, y, wc)
    return u


class Factors:
    """The factorization of one system matrix and the rows of S^{-1} that
    selectors read: L S^{-1} of a range selector is rows lo:hi of S^{-1}.

    Each part x, y, z of those rows comes from one transposed solve, made at
    most once, on first use, and written in place into one Fortran-ordered
    l x l buffer that holds S^{-T}, allocated on the first range request; a
    range reads the parts it covers. A part is always solved by the same
    call, so its rows are bitwise the same whatever selectors share the
    factors. A custom L is solved against directly. The rows handed out are
    views of the buffer, so they outlive the factors: dropping a
    ``Factors`` releases the LU and keeps the rows.
    """

    def __init__(self, blocks: DsppBlocks):
        self.lu = factorize(blocks)
        self._cuts = (0, blocks.n, blocks.n + blocks.m, blocks.l)
        self._inv_t = None
        self._solved = set()

    def rows(self, sel: Selector) -> np.ndarray:
        """L S^{-1} (k x l) of the selector ``sel``, read-only."""
        if sel.custom is not None:
            out = self.lu.solve(sel.custom.T, transpose=True).T
        else:
            if self._inv_t is None:
                self._inv_t = np.zeros((self._cuts[-1],) * 2, order="F")
            for lo, hi in zip(self._cuts, self._cuts[1:]):
                if sel.lo <= lo and hi <= sel.hi and lo not in self._solved:
                    cols = self._inv_t[:, lo:hi]
                    cols[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
                    self.lu.solve(cols, transpose=True, overwrite=True)
                    self._solved.add(lo)
            out = self._inv_t.T[sel.lo : sel.hi]
        out.flags.writeable = False
        return out


@dataclass(frozen=True, eq=False)
class SolvedSystem:
    """One solved system with a selector: what every condition number of the
    pair (blocks, sel) reads, and no factorization.

    ``sol`` is the solution of S w = b and ``rows`` the read-only k x l
    matrix L S^{-1}, both made by :meth:`of`. Two values are computed on
    first use and kept: ``lw`` = L w, and ``bc_numerator``, the
    data-weighted B, C and right-hand-side part of the max-norm numerator,
    which the mixed, componentwise and structured max-norm numbers all add
    their A, D, E terms to.
    """

    blocks: DsppBlocks
    sel: Selector
    sol: Solution
    rows: np.ndarray

    @classmethod
    def of(cls, blocks: DsppBlocks, sel: Selector, factors: Factors | None = None) -> "SolvedSystem":
        """Solve with ``factors``, the factorization of this system matrix,
        and form L S^{-1} from its buffer of S^{-1} rows. Made here when
        None, the factors are released on return, before any number is
        computed; one ``Factors`` passed to several calls shares one
        factorization and one buffer among their selectors, and lives as
        long as the caller keeps it."""
        if sel.l != blocks.l:
            raise DimensionMismatch(f"selector has {sel.l} columns, system is {blocks.l}")
        factors = Factors(blocks) if factors is None else factors
        return cls(blocks, sel, solve_dspp(blocks, factors.lu), factors.rows(sel))

    @cached_property
    def lw(self) -> np.ndarray:
        return self.sel.take(self.sol.w)

    @cached_property
    def bc_numerator(self) -> np.ndarray:
        """|L S^{-1} [G_B, G_C, -I]| [vec|B|; vec|C|; |b|] (read-only)."""
        b = self.blocks
        u = _bc_numerator(self.rows, self.sol, b.B, b.C, np.abs(b.b))
        u.flags.writeable = False
        return u


def _scalar_j_norm(sol: Solution, psi: float) -> float:
    """||J||_2 for the constant weight psi, from a certified top end. With
    a = ||x|| (b = ||y||, d = ||z||), J / psi^2 acts as the 3 x 3 matrix
    c = F^T F on span{(x,0,0), (0,y,0), (0,0,z)} and as c's diagonal on the
    complement, which never exceeds c's top eigenvalue; F is the 5 x 3
    matrix below, so ||J||_2 = psi^2 ||F||_2^2."""
    a, b, d = (float(np.linalg.norm(v)) for v in (sol.x, sol.y, sol.z))
    f = np.array([[a, b, 0.0], [b, 0.0, 0.0], [0.0, a, 0.0], [0.0, d, b], [0.0, 0.0, d]])
    return (psi * _norm_upper(f)[0]) ** 2


def _gram_top(system: SolvedSystem, weights: PerturbationWeights, xivec, kinds=_UNSTRUCTURED):
    """sigma = sqrt(lam) and u for the top eigenpair of the k x k Gram
    Xi L S^{-1} J (L S^{-1})^T Xi, with J the :func:`_j_operator` of the
    A, D, E structure ``kinds``, applied as v -> Xi L S^{-1} J((L S^{-1})^T Xi v)
    on k-vectors, so neither the Gram, J, nor Xi L S^{-1} is ever formed."""
    j = _j_operator(system.sol, *weights.for_blocks(system.blocks), kinds)
    xd, rows = ddagger(xivec), system.rows
    lam, u = top_eig(lambda v: xd * (rows @ j((xd * v) @ rows)), rows.shape[0])
    return float(np.sqrt(lam)), u


def unified_cn(system: SolvedSystem, weights: PerturbationWeights, xi, norm: str) -> CnValue:
    """The general weighted condition number for norm "two" or "inf".

    The 2-norm value is the square root of the top eigenvalue of the k x k
    Gram Xi L S^{-1} J (L S^{-1})^T Xi, with J from :func:`_j_operator`; the
    max-norm value goes through the exact numerator over the nonzero
    weights, which takes their magnitudes, with a number weight expanded to
    a zero-stride view. Both are the all-"full" structured numbers.
    """
    if norm not in ("two", "inf"):
        raise ValueError(f"norm must be 'two' or 'inf', got {norm!r}")
    xivec = _as_xi(xi).resolve(system.lw)
    if norm == "two":
        return CnValue(_gram_top(system, weights, xivec)[0], "unified2")
    sol, rows = system.sol, system.rows
    psi, chi = weights.for_blocks(system.blocks)
    wa, wb, wc, wd, we = _expand(psi, sol)
    u = _ade_numerator(rows, sol, wa, wd, we, _UNSTRUCTURED)
    u += _bc_numerator(rows, sol, wb, wc, np.broadcast_to(np.abs(chi), rows.shape[1]))
    return CnValue(_inf_value(xivec, u), "unifiedInf")


def ncn(system: SolvedSystem, psi: float, chi: float) -> CnValue:
    """Normwise condition number of L w under scalar weights, 2-norms.

    The square root of the top eigenvalue of
    L S^{-1} (psi^2 J + chi^2 I) (L S^{-1})^T / ||L w||_2^2, with J the
    closed-form Gram of :func:`_j_operator`. A zero L w raises
    :class:`ZeroXi` before the weights are checked, since weights taken from
    the data vanish with it.
    """
    xivec = XiChoice(kind="ncn").resolve(system.lw)
    weights = PerturbationWeights.scalar(psi, chi)
    return CnValue(_gram_top(system, weights, xivec)[0], "ncn")


def ncn_upper(system: SolvedSystem, psi: float, chi: float) -> CnValue:
    """Cheap upper bound dominating :func:`ncn`:
    ||L S^{-1}||_2 (||J_psi||_2^{1/2} + chi) / ||L w||_2 (see :func:`_scalar_j_norm`),
    both norms from the Cholesky-certified top end of their explicit Grams
    (:func:`~dsppcond.linalg._norm_upper`), never below the exact norms."""
    return _ncn_upper(_norm_upper(system.rows)[0], system.sol, system.sel, psi, chi)


def _ncn_upper(norm: float, sol: Solution, sel: Selector, psi: float, chi: float) -> CnValue:
    """:func:`ncn_upper` from ``norm``, a certified end for ||L S^{-1}||_2,
    the solution and the selector alone, so a caller can certify several
    selectors' norms on one Gram, once the data blocks are released."""
    xi_l = XiChoice(kind="ncn").resolve(sel.take(sol.w))[0]
    j_top = np.sqrt(_scalar_j_norm(sol, _positive(psi)))
    return CnValue(norm * (j_top + _positive(chi)) / xi_l, "ncn_upper")


def _data_inf_value(system: SolvedSystem, xi: XiChoice, kinds) -> float:
    """The max-norm value for the data weights Psi = H, chi = b, with dA, dD,
    dE in the structure ``kinds``: the system's shared ``bc_numerator`` plus
    the A, D, E terms of :func:`_ade_numerator`. A zero L w raises
    :class:`ZeroXi` before any numerator is evaluated."""
    blocks = system.blocks
    xivec = xi.resolve(system.lw)
    u = system.bc_numerator + _ade_numerator(system.rows, system.sol, blocks.A, blocks.D, blocks.E, kinds)
    return _inf_value(xivec, u)


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
    return CnValue(_data_inf_value(system, xi, _UNSTRUCTURED), xi.kind)


def inf_cn_upper(system: SolvedSystem) -> tuple[CnValue, CnValue]:
    """Upper bounds dominating the mixed and componentwise numbers.

    Uses |L S^{-1}| (h + |b|) with the blockwise magnitude vector
    h = [|A||x| + |B^T||y|; |B||x| + |D||y| + |C^T||z|; |C||y| + |E||z|],
    each product one block operation, summed in the order written.
    """
    blocks, sol = system.blocks, system.sol
    a, b, c, d, e = blocks.A, blocks.B, blocks.C, blocks.D, blocks.E
    x, y, z = np.abs(sol.x), np.abs(sol.y), np.abs(sol.z)
    h = np.concatenate([
        _abs_product(a, x) + _abs_product(b, y, True),
        _abs_product(b, x) + _abs_product(d, y) + _abs_product(c, z, True),
        _abs_product(c, y) + _abs_product(e, z),
    ])
    v = _abs_product(system.rows, h + np.abs(blocks.b))
    mcn_u = CnValue(_inf_value(XiChoice(kind="mcn").resolve(system.lw), v), "mcn_upper")
    ccn_u = CnValue(_inf_value(XiChoice(kind="ccn").resolve(system.lw), v), "ccn_upper")
    return mcn_u, ccn_u


__all__ = [
    "CnValue",
    "PerturbationWeights",
    "XiChoice",
    "Factors",
    "SolvedSystem",
    "unified_cn",
    "ncn",
    "ncn_upper",
    "inf_cn",
    "inf_cn_upper",
]
