"""Reference formulas that materialize the Kronecker sensitivity maps.

The library never forms the l x s matrix G (s = n^2 + nm + mp + m^2 + p^2),
the 0/1 structure bases Phi, or any k x s product with them; these explicit
versions exist only so tests can compare the closed forms against the
definitions. Desk-scale sizes only. The unvec helper, the dense selector
matrix L with L S^{-1} from one solve against it, and the dense top
eigenpair that the Lanczos kernel is checked against live here too, since
only tests use them. So do the two solves with a factorization of a
perturbed system that the experiments' refined solution change is checked
against; the difference w~ - w of two solutions is computed only here.
"""

import numpy as np
import scipy.linalg
import scipy.sparse

from dsppcond.dspp import DsppBlocks, assemble, factorize, solve_dspp
from dsppcond.eils import eils_reduce
from dsppcond.experiments import apply_perturbation
from dsppcond.errors import DimensionMismatch
from dsppcond.linalg import as_vector, ddagger
from dsppcond.partial_cn import XiChoice
from dsppcond.structured import structure_basis


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


def top_eig(s) -> tuple[float, np.ndarray]:
    """Top eigenpair ``(lam, v)`` of the symmetric part of a positive
    semidefinite ``s`` from a dense LAPACK ``eigh`` for that pair only: lam
    clamped at 0 (rounding may leave it slightly negative), v of unit 2-norm.
    The reference for the Lanczos kernel :func:`dsppcond.linalg.top_eig`."""
    k = s.shape[0]
    sym = (s + s.T) / 2.0
    lam, v = scipy.linalg.eigh(sym, subset_by_index=[k - 1, k - 1])
    return float(max(lam[0], 0.0)), v[:, 0]


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
