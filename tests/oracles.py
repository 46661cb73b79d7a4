"""Reference formulas that materialize the Kronecker sensitivity maps.

The library never forms the l x s matrix G (s = n^2 + nm + mp + m^2 + p^2)
or any k x s product with it; these explicit versions exist only so tests
can compare the closed forms against the definitions. Desk-scale sizes only.
"""

import numpy as np
import scipy.sparse

from dsppcond.dspp import solve_dspp
from dsppcond.eils import eils_reduce
from dsppcond.linalg import ddagger
from dsppcond.partial_cn import XiChoice, inv_rows


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


def vec_psi(weights, blocks):
    """Column-stacked weight vector over all five blocks, in A,B,C,D,E order."""
    return np.concatenate([w.flatten(order="F") for w in weights.block_mats(blocks)])


def _xi_dagger(blocks, sel, sol, xi):
    xi = xi if isinstance(xi, XiChoice) else XiChoice(kind=str(xi))
    return ddagger(xi.resolve(sel.L @ sol.w))


def unified_two(blocks, sel, weights, xi):
    """The 2-norm condition number as the spectral norm of the k x (s+l)
    matrix Xi L S^{-1} [G, -I] diag(vec(W); chi)."""
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    scale = np.concatenate([vec_psi(weights, blocks), weights.chi_vec(blocks.l)])
    mat = np.hstack([rows @ build_g(sol), -rows]) * scale[None, :]
    mat *= _xi_dagger(blocks, sel, sol, xi)[:, None]
    return np.linalg.svd(mat, compute_uv=False)[0] if np.any(mat) else 0.0


def ncn(blocks, sel, psi, chi):
    """Normwise number as ||[psi L S^{-1} G, -chi L S^{-1}]||_2 / ||L w||_2."""
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    mat = np.hstack([psi * (rows @ build_g(sol)), -chi * rows])
    return np.linalg.svd(mat, compute_uv=False)[0] / float(np.linalg.norm(sel.L @ sol.w, 2))


def inf_numerator(blocks, sel, weights):
    """|L S^{-1} G| |vec(W)| + |L S^{-1}| |chi|, from the materialized map."""
    rows = inv_rows(blocks, sel)
    sol = solve_dspp(blocks)
    g = build_g(sol)
    vec_w = np.abs(vec_psi(weights, blocks))
    chi = np.abs(weights.chi_vec(blocks.l))
    return np.abs(rows @ g) @ vec_w + np.abs(rows) @ chi


def _phi_s(triple, n, m, p):
    """Block-diagonal basis over vec(A..E): [Phi_A, I_{nm+mp}, Phi_D, Phi_E]."""
    eye_bc = scipy.sparse.identity(n * m + m * p, format="csc")
    return scipy.sparse.block_diag(
        [triple.a.phi, eye_bc, triple.d.phi, triple.e.phi], format="csc"
    )


def structured_two(blocks, sel, weights, xi, triple):
    """Structured 2-norm number from the generator-coordinate map
    Xi [L S^{-1} G diag(vec W) Phi U^{-1}, -L S^{-1} diag(chi)]."""
    n, m, p = blocks.n, blocks.m, blocks.p
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    t = (rows @ build_g(sol)) * vec_psi(weights, blocks)[None, :]
    u_s = np.concatenate([triple.a.u, np.ones(n * m + m * p), triple.d.u, triple.e.u])
    gen_part = (_phi_s(triple, n, m, p).T @ t.T).T / u_s[None, :]
    rhs_part = -rows * weights.chi_vec(blocks.l)[None, :]
    mat = np.hstack([gen_part, rhs_part]) * _xi_dagger(blocks, sel, sol, xi)[:, None]
    return np.linalg.svd(mat, compute_uv=False)[0] if np.any(mat) else 0.0


def structured_numerator(blocks, sel, triple):
    """|L S^{-1} G Phi| |generators of H| + |L S^{-1}| |b|."""
    gen_abs = np.concatenate([
        np.abs(triple.a.extract(blocks.A)),
        np.abs(blocks.B).flatten(order="F"),
        np.abs(blocks.C).flatten(order="F"),
        np.abs(triple.d.extract(blocks.D)),
        np.abs(triple.e.extract(blocks.E)),
    ])
    sol = solve_dspp(blocks)
    rows = inv_rows(blocks, sel)
    gen_map = (_phi_s(triple, blocks.n, blocks.m, blocks.p).T @ (rows @ build_g(sol)).T).T
    return np.abs(gen_map) @ gen_abs + np.abs(rows) @ np.abs(blocks.b)


def structured_inf(blocks, sel, xi, triple):
    """Structured mixed ("mcn") or componentwise ("ccn") number."""
    lw = sel.L @ solve_dspp(blocks).w
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
