"""Reference formulas that materialize the Kronecker sensitivity maps.

The library never forms the l x s matrix G (s = n^2 + nm + mp + m^2 + p^2),
the 0/1 structure bases Phi, or any k x s product with them; these explicit
versions exist only so tests can compare the closed forms against the
definitions. Desk-scale sizes only. The unvec helper, the dense selector
matrix L with L S^{-1} from one solve against it, and the dense top
eigenpair that the Lanczos kernel is checked against live here too, since
only tests use them, and so does the certified 2-norm end with an explicit
Gram (a scaled copy of the matrix, the Gram and a separate Cholesky array)
that the one-buffer bound is checked against. So do the two solves with a
factorization of a perturbed system that the experiments' refined solution
change is checked against; the difference w~ - w of two solutions is
computed only here.

The definition-level evaluators live here as well: the first-order response
:func:`first_order_delta`, the defining quotient :func:`definition_ratio` of
one perturbation direction, the worst-case direction
:func:`extremal_direction` that attains the 2-norm number, and
:func:`first_order_residual`, the first-order prediction against the
experiments' measured solution change. So does :func:`structure_basis`, the
0/1 basis Phi of a structure kind as an index map, with generator
extraction; the library reads membership and generator terms off each matrix
without it.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from dsppcond.dspp import DsppBlocks, Solution, _block_product, assemble, factorize, solve_dspp
from dsppcond.eils import eils_reduce
from dsppcond.experiments import PerturbationSet, apply_perturbation, perturbed_change
from dsppcond.errors import DimensionMismatch, ZeroMatrix
from dsppcond import linalg
from dsppcond.linalg import LuSolver, as_matrix, as_vector, ddagger
from dsppcond.partial_cn import PerturbationWeights, SolvedSystem, XiChoice, _as_xi, _gram_top
from dsppcond.structured import _checked_kinds

def unvec(v, rows: int, cols: int) -> np.ndarray:
    """Rebuild a ``rows x cols`` matrix from its column-major flattening."""
    v = as_vector(v)
    if v.size != rows * cols:
        raise DimensionMismatch(f"cannot reshape length {v.size} to {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def selector_matrix(sel) -> np.ndarray:
    """The dense k x l matrix L of a selector: rows lo:hi of I_l for a range,
    the caller's matrix for "custom"."""
    return np.eye(sel.l)[sel.lo : sel.hi] if sel.custom is None else sel.custom


def inv_rows(blocks, sel) -> np.ndarray:
    """L S^{-1} from k transposed solves against the dense L^T."""
    return factorize(blocks).solve(selector_matrix(sel).T, transpose=True).T


def perturbed_resolve(blocks, pert) -> np.ndarray:
    """w~ - w from a factorization and solve of the perturbed system S + dS,
    with the cancellation of a difference of two nearby solutions."""
    return solve_dspp(apply_perturbation(blocks, pert)).w - solve_dspp(blocks).w


def perturbed_increment(blocks, sol, pert) -> np.ndarray:
    """(S + dS)^{-1} (db - dS w) from a factorization of S + dS: the change
    that refinement on S's factors converges to, with no cancellation."""
    rhs = pert.db - assemble(DsppBlocks(*pert.deltas[:5], b=pert.db)) @ sol.w
    return factorize(apply_perturbation(blocks, pert)).solve(rhs)


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
    dw = first_order_delta(blocks, system.sol, da, db_, dc, dd, de, drhs)
    num_vec = ddagger(_as_xi(xi).resolve(system.lw)) * system.sel.take(dw)

    psi, chi = weights.for_blocks(blocks)
    den_parts = [(ddagger(w) * d).flatten(order="F") for w, d in zip(psi, (da, db_, dc, dd, de))]
    den_vec = np.concatenate([*den_parts, ddagger(chi) * drhs])

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
    psi, chi = weights.for_blocks(blocks)

    n, m = blocks.n, blocks.m
    t1, t2, t3 = t[:n], t[n : n + m], t[n + m :]
    x, y, z = sol.x, sol.y, sol.z
    wa, wb, wc, wd, we = (np.square(w) for w in psi)
    deltas = (
        wa * np.outer(t1, x),
        wb * (np.outer(y, t1) + np.outer(t2, x)),
        wc * (np.outer(z, t2) + np.outer(t3, y)),
        -wd * np.outer(t2, y),
        we * np.outer(t3, z),
        -np.square(chi) * t,
    )
    return deltas, sigma


@dataclass(frozen=True)
class FirstOrderCheck:
    """Actual versus first-order-predicted solution change, with a scaling
    curve of remainder norms at perturbation scales t = 1, 1/2, 1/4."""

    actual: np.ndarray
    predicted: np.ndarray
    curve: tuple


def first_order_residual(blocks: DsppBlocks, pert: PerturbationSet) -> FirstOrderCheck:
    """Compare the true solution change against the first-order prediction.

    The true change at scale t is :func:`perturbed_change` for the deltas
    times t (exact, as t is a power of two), refined in increment form with
    no cancellation in w~ - w. The remainder ||actual(t) - t predicted||
    shrinks quadratically in t.
    """
    lu = factorize(blocks)
    sol = solve_dspp(blocks, lu)
    predicted = first_order_delta(blocks, sol, *pert.deltas, lu=lu)
    curve = []
    actual_full = None
    for t in (1.0, 0.5, 0.25):
        scaled = PerturbationSet(*(t * d for d in pert.deltas), s=pert.s)
        act = perturbed_change(blocks, sol, lu, scaled)
        if t == 1.0:
            actual_full = act
        curve.append((t, float(np.linalg.norm(act - t * predicted, 2))))
    return FirstOrderCheck(actual=actual_full, predicted=predicted, curve=tuple(curve))


def top_eig(s) -> tuple[float, np.ndarray]:
    """Top eigenpair ``(lam, v)`` of the symmetric part of a positive
    semidefinite ``s`` from a dense LAPACK ``eigh`` for that pair only: lam
    clamped at 0 (rounding may leave it slightly negative), v of unit 2-norm.
    The reference for the Lanczos kernel :func:`dsppcond.linalg.top_eig`."""
    k = s.shape[0]
    sym = (s + s.T) / 2.0
    lam, v = scipy.linalg.eigh(sym, subset_by_index=[k - 1, k - 1])
    return float(max(lam[0], 0.0)), v[:, 0]


def norm_upper(m) -> float:
    """The certified upper end for ||M||_2 of
    :func:`dsppcond.linalg._norm_upper` (same scaling, shift and end, and the
    same rounding argument) from an explicit Gram: T scaled as one copy,
    Gh = T T^T in one product, ||Gh||_inf from |Gh|, and each Cholesky of
    tau I - Gh run in a fresh k x k array."""
    m = as_matrix(m)
    t = m if m.shape[0] <= m.shape[1] else m.T
    big = float(np.abs(t).max(initial=0.0))
    if big == 0.0:
        return 0.0
    e = int(np.frexp(big)[1])
    t = np.ldexp(t, -e)
    k, n = t.shape
    eps = np.finfo(float).eps
    g = t @ t.T
    shift = 2 * (k + 2) * eps * float(np.abs(g).sum(axis=1).max())
    rounding = (n + 1) * eps * float(np.trace(g))
    for theta, _ in linalg._lanczos(g.__matmul__, k):
        tau = theta + shift
        a = -g
        a[np.diag_indices(k)] += tau
        # a.T is a in Fortran order, so LAPACK factors it in place into the
        # upper triangle R of r = a.T; the rest of r, a's strict upper
        # triangle, still holds -g and is cleared.
        info = np.zeros(1, linalg._INT)
        linalg._call("dpotrf", "U", k, a, k, info)
        if linalg._info("dpotrf", info) == 0:
            for i in range(k - 1):
                a[i, i + 1 :] = 0.0
            r = a.T
            np.abs(r, out=r)
            rho = float((r.sum(axis=1) @ r).max())
            end = np.nextafter(tau + (k + 2) * eps * rho + rounding, np.inf)
            return float(np.ldexp(np.nextafter(np.sqrt(end), np.inf), e))
    raise linalg.UncertifiedBound(f"no Ritz value of the {k} x {k} Gram passed the Cholesky test")


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
        _checked_kinds((self.kind,), (mat,))
        v = mat.flatten(order="F")
        g = np.bincount(self.cols, weights=v[self.rows], minlength=self.generators)
        return g / self.counts


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


def phi(basis) -> scipy.sparse.csc_array:
    """The dim^2 x generators 0/1 basis matrix Phi of a structure basis."""
    data = np.ones(basis.rows.size)
    return scipy.sparse.csc_array(
        (data, (basis.rows, basis.cols)), shape=(basis.dim * basis.dim, basis.generators)
    )


def column_norms(basis) -> np.ndarray:
    """The column 2-norms u of Phi."""
    return np.sqrt(np.asarray(phi(basis).power(2).sum(axis=0), dtype=float))


def projection_residual(basis, mat) -> np.ndarray:
    """M - P(M) for the orthogonal projection P onto the structure subspace:
    unvec(v - Phi ((Phi^T v) / counts)) with v = vec(M) and counts = Phi^T 1,
    the entry count of each generator's support."""
    ph = phi(basis)
    v = np.asarray(mat, dtype=float).flatten(order="F")
    counts = ph.T @ np.ones(v.size)
    return unvec(v - ph @ ((ph.T @ v) / counts), basis.dim, basis.dim)


def reconstruct(basis, g) -> np.ndarray:
    """The matrix with generator ``g``: unvec(Phi g)."""
    g = as_vector(g)
    if g.shape != (basis.generators,):
        raise DimensionMismatch(f"generator length {g.size}, expected {basis.generators}")
    return unvec(phi(basis) @ g, basis.dim, basis.dim)


def build_g(sol):
    """The l x s first-order sensitivity matrix in vec(dA..dE) coordinates.

    Row blocks (x, y, z parts) against column blocks (A, B, C, D, E):

        [ x^T kron I_n   I_n kron y^T   0              0              0            ]
        [ 0              x^T kron I_m   I_m kron z^T  -(y^T kron I_m) 0            ]
        [ 0              0              y^T kron I_p   0              z^T kron I_p ]
    """
    x, y, z = sol.x, sol.y, sol.z
    n, m, p = x.size, y.size, z.size
    widths = [n * n, n * m, m * p, m * m, p * p]
    offs = np.concatenate([[0], np.cumsum(widths)])
    g = np.zeros((n + m + p, offs[-1]))
    g[:n, offs[0] : offs[1]] = np.kron(x[None, :], np.eye(n))
    g[:n, offs[1] : offs[2]] = np.kron(np.eye(n), y[None, :])
    g[n : n + m, offs[1] : offs[2]] = np.kron(x[None, :], np.eye(m))
    g[n : n + m, offs[2] : offs[3]] = np.kron(np.eye(m), z[None, :])
    g[n : n + m, offs[3] : offs[4]] = -np.kron(y[None, :], np.eye(m))
    g[n + m :, offs[2] : offs[3]] = np.kron(y[None, :], np.eye(p))
    g[n + m :, offs[4] :] = np.kron(z[None, :], np.eye(p))
    return g


def build_j(sol, wa, wb, wc, wd, we):
    """The unstructured l x l weighted Gram G diag(w^2) G^T in closed form.

    ``wa`` .. ``we`` are weight matrices shaped like A .. E; squares are taken
    entrywise (W2 = W * W):

        xx: diag(W2_A x^2 + W2_B^T y^2)
        yy: diag(W2_B x^2 + W2_D y^2 + W2_C^T z^2)
        zz: diag(W2_C y^2 + W2_E z^2)
        xy: (W2_B o y x^T)^T,   yz: (W2_C o z y^T)^T,   xz: 0
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


def vec_psi(weights, blocks):
    """Column-stacked weight vector over all five blocks, in A,B,C,D,E order;
    a number weight is expanded to the constant block it stands for."""
    mats = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)
    return np.concatenate([np.full(b.shape, w).flatten(order="F") for w, b in zip(weights.psi, mats)])


def chi_vec(weights, blocks):
    """The right-hand-side weight as a length-l vector."""
    return np.full(blocks.l, weights.chi)


def _xi_dagger(blocks, sel, sol, xi):
    xi = xi if isinstance(xi, XiChoice) else XiChoice(kind=str(xi))
    return ddagger(xi.resolve(selector_matrix(sel) @ sol.w))


def unified_two(blocks, sel, weights, xi):
    """The 2-norm condition number as the spectral norm of the k x (s+l)
    matrix Xi L S^{-1} [G, -I] diag(vec(W); chi)."""
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    scale = np.concatenate([vec_psi(weights, blocks), chi_vec(weights, blocks)])
    mat = np.hstack([rows @ build_g(sol), -rows]) * scale[None, :]
    mat *= _xi_dagger(blocks, sel, sol, xi)[:, None]
    return np.linalg.svd(mat, compute_uv=False)[0] if np.any(mat) else 0.0


def ncn(blocks, sel, psi, chi):
    """Normwise number as ||[psi L S^{-1} G, -chi L S^{-1}]||_2 / ||L w||_2."""
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    mat = np.hstack([psi * (rows @ build_g(sol)), -chi * rows])
    return np.linalg.svd(mat, compute_uv=False)[0] / float(np.linalg.norm(selector_matrix(sel) @ sol.w, 2))


def inf_numerator(blocks, sel, weights):
    """|L S^{-1} G| |vec(W)| + |L S^{-1}| |chi|, from the materialized map."""
    rows = inv_rows(blocks, sel)
    sol = solve_dspp(blocks)
    g = build_g(sol)
    vec_w = np.abs(vec_psi(weights, blocks))
    chi = np.abs(chi_vec(weights, blocks))
    return np.abs(rows @ g) @ vec_w + np.abs(rows) @ chi


def _phi_s(triple, n, m, p):
    """Block-diagonal basis over vec(A..E): [Phi_A, I_{nm+mp}, Phi_D, Phi_E]."""
    eye_bc = scipy.sparse.identity(n * m + m * p, format="csc")
    return scipy.sparse.block_diag([
        phi(structure_basis(triple.a, n)), eye_bc,
        phi(structure_basis(triple.d, m)), phi(structure_basis(triple.e, p)),
    ], format="csc")


def _u_s(triple, n, m, p):
    """The column norms of :func:`_phi_s`."""
    return np.concatenate([
        column_norms(structure_basis(triple.a, n)), np.ones(n * m + m * p),
        column_norms(structure_basis(triple.d, m)), column_norms(structure_basis(triple.e, p)),
    ])


def structured_j(blocks, sol, weights, triple):
    """The structured weighted Gram G diag(w) Phi_s U^-2 Phi_s^T diag(w) G^T
    + diag(chi^2) from the materialized maps (all "full": build_j + diag(chi^2))."""
    n, m, p = blocks.n, blocks.m, blocks.p
    gw = build_g(sol) * vec_psi(weights, blocks)[None, :]
    gen = (_phi_s(triple, n, m, p).T @ gw.T).T / _u_s(triple, n, m, p)[None, :]
    return gen @ gen.T + np.diag(np.square(chi_vec(weights, blocks)))


def structured_two(blocks, sel, weights, xi, triple):
    """Structured 2-norm number from the generator-coordinate map
    Xi [L S^{-1} G diag(vec W) Phi U^{-1}, -L S^{-1} diag(chi)]."""
    n, m, p = blocks.n, blocks.m, blocks.p
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    t = (rows @ build_g(sol)) * vec_psi(weights, blocks)[None, :]
    gen_part = (_phi_s(triple, n, m, p).T @ t.T).T / _u_s(triple, n, m, p)[None, :]
    rhs_part = -rows * chi_vec(weights, blocks)[None, :]
    mat = np.hstack([gen_part, rhs_part]) * _xi_dagger(blocks, sel, sol, xi)[:, None]
    return np.linalg.svd(mat, compute_uv=False)[0] if np.any(mat) else 0.0


def structured_numerator(blocks, sel, triple):
    """|L S^{-1} G Phi| |generators of H| + |L S^{-1}| |b|."""
    gen_abs = np.concatenate([
        np.abs(structure_basis(triple.a, blocks.n).extract(blocks.A)),
        np.abs(blocks.B).flatten(order="F"),
        np.abs(blocks.C).flatten(order="F"),
        np.abs(structure_basis(triple.d, blocks.m).extract(blocks.D)),
        np.abs(structure_basis(triple.e, blocks.p).extract(blocks.E)),
    ])
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    gen_map = (_phi_s(triple, blocks.n, blocks.m, blocks.p).T @ (rows @ build_g(sol)).T).T
    return np.abs(gen_map) @ gen_abs + np.abs(rows) @ np.abs(blocks.b)


def structured_inf(blocks, sel, xi, triple):
    """Structured mixed ("mcn") or componentwise ("ccn") number."""
    lw = selector_matrix(sel) @ solve_dspp(blocks).w
    u = structured_numerator(blocks, sel, triple)
    if xi == "mcn":
        return float(np.max(u)) / float(np.max(np.abs(lw)))
    return float(np.max(np.abs(ddagger(lw)) * u))


def build_ghat(sol):
    """l x m(n+p) EILS sensitivity map in (vec dM, vec dC) coordinates:

        [ y^T kron I_n   0            ]
        [ I_m kron x^T   I_m kron z^T ]
        [ 0              y^T kron I_p ]
    """
    x, y, z = sol.x, sol.y, sol.z
    n, m, p = x.size, y.size, z.size
    ghat = np.zeros((n + m + p, n * m + p * m))
    nm = n * m
    ghat[:n, :nm] = np.kron(y[None, :], np.eye(n))
    ghat[n : n + m, :nm] = np.kron(np.eye(m), x[None, :])
    ghat[n : n + m, nm:] = np.kron(np.eye(m), z[None, :])
    ghat[n + m :, nm:] = np.kron(y[None, :], np.eye(p))
    return ghat


def eils_cn(prob, sel, psi, chi, xi, norm):
    """EILS condition number from the explicit map over (M, C) and (b, d).

    ``psi`` is a scalar or a pair of matrices shaped like (M, C); ``chi`` a
    scalar or a length n+p vector.
    """
    n, m, p = prob.n, prob.m, prob.p
    if np.isscalar(psi):
        vec_w = np.full(n * m + p * m, float(psi))
    else:
        vec_w = np.concatenate([np.asarray(w, dtype=float).flatten(order="F") for w in psi])
    vec_chi = np.full(n + p, float(chi)) if np.isscalar(chi) else np.asarray(chi, dtype=float)
    blocks = eils_reduce(prob)
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    ghat = rows @ build_ghat(sol)
    rows_sel = rows[:, np.concatenate([np.arange(n), np.arange(n + m, n + m + p)])]
    xi_dd = _xi_dagger(blocks, sel, sol, xi)
    if norm == "inf":
        u = np.abs(ghat) @ np.abs(vec_w) + np.abs(rows_sel) @ np.abs(vec_chi)
        return float(np.max(np.abs(xi_dd) * u))
    mat = np.hstack([ghat * vec_w[None, :], -rows_sel * vec_chi[None, :]]) * xi_dd[:, None]
    return np.linalg.svd(mat, compute_uv=False)[0] if np.any(mat) else 0.0


def structure_pairs(kind, dim):
    """The (vec position, generator) pairs of a structure basis, walked entry
    by entry: symmetric goes along the upper triangle row by row, toeplitz_sym
    by diagonal offset, diagonal and full in entry order."""
    pairs = []
    if kind == "symmetric":
        g = 0
        for i in range(dim):
            for j in range(i, dim):
                pairs.append((i + j * dim, g))
                if i != j:
                    pairs.append((j + i * dim, g))
                g += 1
    elif kind == "toeplitz_sym":
        for off in range(dim):
            for i in range(dim - off):
                pairs.append(((i + off) + i * dim, off))
                if off:
                    pairs.append((i + (i + off) * dim, off))
    elif kind == "diagonal":
        pairs = [(i + i * dim, i) for i in range(dim)]
    else:
        pairs = [(r, r) for r in range(dim * dim)]
    return sorted(pairs)
