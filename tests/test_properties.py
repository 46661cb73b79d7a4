"""Property tests: the closed forms against the materialized oracles.

Random shapes, selectors (ranges and random custom L), structure kinds on A, D, E, block weights that
are each a number (0 included) or a matrix inside its subspace, and
sparsity masks on B and C; the matrix entries come from a drawn numpy
seed. Values never exceed their upper bounds and do not change when all the
data are scaled by one factor. The experiments' refined solution change
agrees with the increment oracle on random shapes and magnitudes.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsppcond.partial_cn as pc
import oracles
from conftest import rel_err
from oracles import structure_basis
from dsppcond import linalg
from dsppcond.dspp import DsppBlocks, Solution, factorize, norm_fro_system, selector, solve_dspp
from dsppcond.eils import EilsProblem, eils_cn, eils_reduce
from dsppcond.errors import IndefiniteProblem, RankDeficientC, SingularMatrix
from dsppcond.experiments import apply_perturbation, perturb, perturbed_change
from dsppcond.linalg import _norm_inf, _norm_upper, top_eig
from dsppcond.partial_cn import (
    DOMINANCE_RTOL,
    PerturbationWeights,
    SolvedSystem,
    inf_cn,
    inf_cn_upper,
    ncn,
    ncn_upper,
    unified_cn,
)
from dsppcond.structured import (
    MEMBERSHIP_RTOL,
    STRUCTURE_KINDS,
    StructureTriple,
    _membership_residual,
    structured_inf_cn,
    structured_ncn,
)

RTOL = 1e-12
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

dims = st.integers(1, 6)
kinds = st.sampled_from(STRUCTURE_KINDS)
ranges = st.sampled_from(("full", "x", "y", "z"))
selectors = st.sampled_from(("full", "x", "y", "z", "custom"))
seeds = st.integers(0, 2**32 - 1)
densities = st.sampled_from((0.0, 0.2, 0.5, 1.0))
weight_forms = st.tuples(*[st.sampled_from(("matrix", "number", "zero"))] * 6)


def in_subspace(rng, kind, dim, nonnegative=False):
    basis = structure_basis(kind, dim)
    g = rng.standard_normal(basis.generators)
    return oracles.reconstruct(basis, np.abs(g) if nonnegative else g)


def draw_selector(rng, kind, n, m, p):
    """The selector ``kind``; "custom" is a random k x l L with 1 <= k <= l."""
    l = n + m + p
    custom = rng.standard_normal((int(rng.integers(1, l + 1)), l)) if kind == "custom" else None
    return selector(kind, n, m, p, custom)


def structured_instance(rng, n, m, p, triple):
    blocks = DsppBlocks(
        A=in_subspace(rng, triple.a, n),
        B=rng.standard_normal((m, n)),
        C=rng.standard_normal((p, m)),
        D=in_subspace(rng, triple.d, m),
        E=in_subspace(rng, triple.e, p),
        b=rng.standard_normal(n + m + p),
    )
    weights = PerturbationWeights.entrywise(
        in_subspace(rng, triple.a, n, True),
        np.abs(rng.standard_normal((m, n))),
        np.abs(rng.standard_normal((p, m))),
        in_subspace(rng, triple.d, m, True),
        in_subspace(rng, triple.e, p, True),
        np.abs(rng.standard_normal(n + m + p)),
    )
    return blocks, weights


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=selectors,
       xi=st.sampled_from(("ncn", "mcn", "ccn")), forms=weight_forms, seed=seeds)
def test_closed_forms_match_oracles(n, m, p, ka, kd, ke, kind, xi, forms, seed):
    rng = np.random.default_rng(seed)
    triple = StructureTriple(ka, kd, ke)
    blocks, weights = structured_instance(rng, n, m, p, triple)
    # Each of the six weights stays a matrix (a vector for chi) or becomes a
    # number; the oracles expand numbers themselves.
    numbers = {"number": rng.uniform(0.5, 2.0), "zero": 0.0}
    drawn = weights.psi + (weights.chi,)
    weights = PerturbationWeights.entrywise(*(numbers.get(f, w) for f, w in zip(forms, drawn)))
    sel = draw_selector(rng, kind, n, m, p)
    system = SolvedSystem.of(blocks, sel)
    sol, rows = system.sol, system.rows
    kinds = (ka, kd, ke)
    full = ("full", "full", "full")

    # The weighted Gram operator on the columns of I_l, unstructured and for
    # the drawn kinds, entry by entry, and the 2-norm values it yields.
    psi, chi = weights.for_blocks(blocks)
    g = oracles.build_g(sol)
    w2 = np.square(oracles.vec_psi(weights, blocks))
    j_ref = (g * w2[None, :]) @ g.T + np.diag(np.square(oracles.chi_vec(weights, blocks)))
    for ks, ref in ((full, j_ref), (kinds, oracles.structured_j(blocks, sol, weights, triple))):
        apply = pc._j_operator(sol, psi, chi, ks)
        j = np.column_stack([apply(e) for e in np.eye(blocks.l)])
        assert np.allclose(j, ref, rtol=RTOL, atol=RTOL * np.abs(ref).max())
    two = unified_cn(system, weights, xi, "two").value
    assert rel_err(two, oracles.unified_two(blocks, sel, weights, xi)) < RTOL
    s_two = structured_ncn(system, weights, xi, triple).value
    assert rel_err(s_two, oracles.structured_two(blocks, sel, weights, xi, triple)) < RTOL

    # The max-norm numerators, entry by entry.
    wa, wb, wc, wd, we = pc._expand([np.abs(w) for w in psi], sol)
    u = pc._ade_numerator(rows, sol, wa, wd, we, full)
    u += pc._bc_numerator(rows, sol, wb, wc, np.abs(oracles.chi_vec(weights, blocks)))
    assert np.allclose(u, oracles.inf_numerator(blocks, sel, weights), rtol=RTOL, atol=0)
    data = [np.abs(v) for v in (blocks.A, blocks.D, blocks.E)]
    u_s = system.bc_numerator + pc._ade_numerator(rows, sol, *data, kinds)
    assert np.allclose(u_s, oracles.structured_numerator(blocks, sel, triple), rtol=RTOL, atol=0)

    # Structured never exceeds unstructured.
    assert s_two <= two * (1 + DOMINANCE_RTOL)
    for flavor in ("mcn", "ccn"):
        s_inf = structured_inf_cn(system, flavor, triple).value
        assert s_inf <= inf_cn(system, flavor).value * (1 + DOMINANCE_RTOL)


def sparse_block(rng, shape, density, empty_rows):
    """A standard normal block keeping each entry with probability
    ``density``, and with about half its rows zeroed if ``empty_rows``."""
    mat = rng.standard_normal(shape) * (rng.random(shape) < density)
    if empty_rows:
        mat[rng.random(shape[0]) < 0.5] = 0.0
    return mat


def sparse_instance(rng, n, m, p, density_b, density_c, empty_rows):
    return DsppBlocks(
        A=rng.standard_normal((n, n)),
        B=sparse_block(rng, (m, n), density_b, empty_rows),
        C=sparse_block(rng, (p, m), density_c, empty_rows),
        D=rng.standard_normal((m, m)),
        E=rng.standard_normal((p, p)),
        b=rng.standard_normal(n + m + p),
    )


@SETTINGS
@given(n=dims, m=dims, p=dims, kind=ranges, density_b=densities,
       density_c=densities, empty_rows=st.booleans(), seed=seeds)
def test_numerator_over_sparse_data_matches_oracle(
    n, m, p, kind, density_b, density_c, empty_rows, seed
):
    rng = np.random.default_rng(seed)
    blocks = sparse_instance(rng, n, m, p, density_b, density_c, empty_rows)
    sel = selector(kind, n, m, p)
    system = SolvedSystem.of(blocks, sel)
    want = oracles.inf_numerator(blocks, sel, PerturbationWeights.from_problem(blocks))
    wa, wb, wc, wd, we = (np.abs(w) for w in (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E))
    full = ("full", "full", "full")
    u = pc._ade_numerator(system.rows, system.sol, wa, wd, we, full)
    u += pc._bc_numerator(system.rows, system.sol, wb, wc, np.abs(blocks.b))
    assert np.allclose(u, want, rtol=RTOL, atol=0)
    shared = system.bc_numerator + pc._ade_numerator(system.rows, system.sol, wa, wd, we, full)
    assert np.allclose(shared, want, rtol=RTOL, atol=0)


@SETTINGS
@given(n=dims, m=dims, p=dims, kind=ranges, density_b=densities,
       density_c=densities, empty_rows=st.booleans(), seed=seeds)
def test_values_never_exceed_bounds(n, m, p, kind, density_b, density_c, empty_rows, seed):
    rng = np.random.default_rng(seed)
    blocks = sparse_instance(rng, n, m, p, density_b, density_c, empty_rows)
    system = SolvedSystem.of(blocks, selector(kind, n, m, p))
    psi, chi = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    assert ncn(system, psi, chi).value <= ncn_upper(system, psi, chi).value * (1 + DOMINANCE_RTOL)
    mcn_u, ccn_u = inf_cn_upper(system)
    assert inf_cn(system, "mcn").value <= mcn_u.value * (1 + DOMINANCE_RTOL)
    assert inf_cn(system, "ccn").value <= ccn_u.value * (1 + DOMINANCE_RTOL)


@SETTINGS
@given(n=dims, m=dims, p=dims, s=st.integers(1, 8), density_b=densities,
       density_c=densities, singular=st.booleans(), seed=seeds)
def test_perturbed_change_matches_increment_oracle(n, m, p, s, density_b, density_c, singular, seed):
    """The refined change, on S's factors or on those of S + dS, against
    (S + dS)^-1 (db - dS w) from one solve with S + dS. Both solve with
    S + dS, so they agree to eps kappa, kappa = 1 / rcond(S + dS): over
    about 27000 random draws of these shapes and magnitudes, on either
    route, the gap was 0.02-0.03 eps kappa in the median, at most 0.44 at
    the 99.9th percentile and 0.94 at most. With dC = -C and dE = -E,
    S + dS has a zero block row: the oracle's factorization raises, and so
    must the refinement."""
    rng = np.random.default_rng(seed)
    blocks = sparse_instance(rng, n, m, p, density_b, density_c, False)
    try:
        lu = factorize(blocks)
        sol = solve_dspp(blocks, lu)
    except SingularMatrix:
        assume(False)
    pert = perturb(blocks, s, seed)
    if singular:
        pert = replace(pert, dC=-blocks.C, dE=-blocks.E)
    try:
        exact = oracles.perturbed_increment(blocks, sol, pert)
    except SingularMatrix:
        with pytest.raises(SingularMatrix):
            perturbed_change(blocks, sol, lu, pert)
        return
    eps_kappa = np.finfo(float).eps / factorize(apply_perturbation(blocks, pert)).rcond
    dw = perturbed_change(blocks, sol, lu, pert)
    assert np.linalg.norm(dw - exact) <= eps_kappa * np.linalg.norm(exact)


@SETTINGS
@given(n=st.integers(1, 5), m=st.integers(1, 5), p=st.integers(1, 5),
       zero_x=st.booleans(), zero_z=st.booleans(), seed=seeds)
def test_scalar_j_norm_matches_top_eigenvalue(n, m, p, zero_x, zero_z, seed):
    rng = np.random.default_rng(seed)
    sol = Solution(
        x=np.zeros(n) if zero_x else rng.standard_normal(n),
        y=rng.standard_normal(m),
        z=np.zeros(p) if zero_z else rng.standard_normal(p),
    )
    psi = float(rng.uniform(0.5, 2.0))
    consts = [np.full(shape, psi) for shape in ((n, n), (m, n), (p, m), (m, m), (p, p))]
    want = oracles.top_eig(oracles.build_j(sol, *consts))[0]
    assert rel_err(pc._scalar_j_norm(sol, psi), want) < RTOL


def spectrum_instance(rng, k, rank_frac, repeats, n=None):
    """A k x n matrix U diag(s) V^T (n = k: a PSD k x k U diag(s) U^T) with
    random orthogonal U, V, round(rank_frac k) nonzero values spread over
    eight decades, the top one repeated ``repeats`` times; rank 0 is zero."""
    rank = round(rank_frac * k)
    s = np.zeros(k)
    s[:rank] = 10.0 ** -rng.uniform(0.0, 8.0, size=rank)
    s[: min(rank, repeats)] = 1.0
    u = np.linalg.qr(rng.standard_normal((k, k)))[0]
    if n is None:
        return (u * s) @ u.T
    v = np.linalg.qr(rng.standard_normal((n, k)))[0]
    return (u * s) @ v.T


@SETTINGS
@given(k=st.integers(1, 40), rank_frac=st.floats(0.0, 1.0), repeats=st.integers(1, 4),
       seed=seeds)
def test_lanczos_top_eig_matches_dense_oracle(k, rank_frac, repeats, seed):
    g = spectrum_instance(np.random.default_rng(seed), k, rank_frac, repeats)
    want = oracles.top_eig(g)[0]
    lam, u = top_eig(g.__matmul__, k)
    assert rel_err(lam, want) <= RTOL
    assert np.linalg.norm(g @ u - lam * u) <= RTOL * want
    again = top_eig(g.__matmul__, k)
    assert again[0] == lam and np.array_equal(again[1], u)


@SETTINGS
@given(k=st.integers(1, 40), extra=st.integers(0, 20), rank_frac=st.floats(0.0, 1.0),
       repeats=st.integers(1, 4), wide=st.booleans(), seed=seeds)
def test_certified_norm_end_dominates_dense_oracle(k, extra, rank_frac, repeats, wide, seed):
    m = spectrum_instance(np.random.default_rng(seed), k, rank_frac, repeats, k + extra)
    m = m if wide else m.T
    want = np.sqrt(oracles.top_eig(m @ m.T)[0])
    end = _norm_upper(m)
    assert end >= want
    assert rel_err(end, want) <= RTOL


@SETTINGS
@given(k=st.integers(1, 40), extra=st.integers(0, 150), wide=st.booleans(),
       order=st.sampled_from("CF"), exponent=st.sampled_from((-30, 0, 30)),
       small_blocks=st.booleans(), seed=seeds)
def test_one_buffer_norm_end_matches_explicit_gram(k, extra, wide, order, exponent,
                                                   small_blocks, seed):
    """The certified end from one k x k buffer dominates the SVD norm and
    agrees with the explicit-Gram oracle to 1e-15 relative, for k < n and
    k > n, C and Fortran order and scales 10^+-30. ``small_blocks`` forces
    64-column Gram chunks (several once n > 64, the last one partial) and
    5-row triangle blocks."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, k + extra)) * 10.0**exponent
    m = np.array(m if wide else m.T, order=order)
    want = np.linalg.svd(m, compute_uv=False)[0]
    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:
            patch.setattr(linalg, "_CHUNK_ENTRY_LIMIT", 1)
            patch.setattr(linalg, "_TILE", 5)
        end = _norm_upper(m)
    assert end >= want
    assert rel_err(end, oracles.norm_upper(m)) <= 1e-15


@SETTINGS
@given(kind=kinds, dim=st.integers(1, 12), factor=st.sampled_from((0.0, 0.5, 2.0)),
       j=st.integers(-30, 30), seed=seeds)
def test_membership_residual_matches_projection_oracle(kind, dim, factor, j, seed):
    """The per-kind residual equals max |M - P(M)| of the materialized
    projection to a few ulps of ||M||_inf, and both accept or reject alike:
    in-subspace matrices, and ones moved off the subspace by 0.5x and 2x
    the tolerance (no such direction exists for "full" or at dim 1)."""
    rng = np.random.default_rng(seed)
    basis = structure_basis(kind, dim)
    mat = 2.0**j * oracles.reconstruct(basis, rng.standard_normal(basis.generators))
    off = oracles.projection_residual(basis, rng.standard_normal((dim, dim)))
    top = float(np.abs(off).max())
    if top > 0:
        mat = mat + off * (factor * MEMBERSHIP_RTOL * _norm_inf(mat) / top)
    tol = MEMBERSHIP_RTOL * _norm_inf(mat)
    want = float(np.abs(oracles.projection_residual(basis, mat)).max())
    got = _membership_residual(kind, mat)
    assert abs(got - want) <= 4 * np.finfo(float).eps * _norm_inf(mat)
    assert (got <= tol) == (want <= tol) == (factor < 1 or top == 0)


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=ranges,
       j=st.integers(-60, 60), seed=seeds)
def test_numbers_invariant_under_data_scaling(n, m, p, ka, kd, ke, kind, j, seed):
    """(A..E, b) -> 2^j (A..E, b) leaves w, and so every number, unchanged."""
    rng = np.random.default_rng(seed)
    triple = StructureTriple(ka, kd, ke)
    blocks, _ = structured_instance(rng, n, m, p, triple)
    alpha = 2.0**j
    scaled = DsppBlocks(*(alpha * v for v in (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)))

    def numbers(b):
        system = SolvedSystem.of(b, selector(kind, n, m, p))
        psi, chi = norm_fro_system(b), float(np.linalg.norm(b.b, 2))
        weights = PerturbationWeights.scalar(psi, chi)
        return [
            ncn(system, psi, chi).value,
            ncn_upper(system, psi, chi).value,
            inf_cn(system, "mcn").value,
            inf_cn(system, "ccn").value,
            *(v.value for v in inf_cn_upper(system)),
            structured_ncn(system, weights, "ncn", triple).value,
            structured_inf_cn(system, "mcn", triple).value,
            structured_inf_cn(system, "ccn", triple).value,
        ]

    for got, want in zip(numbers(scaled), numbers(blocks)):
        assert rel_err(got, want) < RTOL


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=selectors,
       order=st.permutations(range(11)), seed=seeds)
def test_shared_system_matches_fresh_systems(n, m, p, ka, kd, ke, kind, order, seed):
    rng = np.random.default_rng(seed)
    triple = StructureTriple(ka, kd, ke)
    blocks, weights = structured_instance(rng, n, m, p, triple)
    sel = draw_selector(rng, kind, n, m, p)
    psi, chi = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    data = PerturbationWeights.from_problem(blocks)
    numbers = [
        lambda s: ncn(s, psi, chi).value,
        lambda s: ncn_upper(s, psi, chi).value,
        lambda s: inf_cn(s, "mcn").value,
        lambda s: inf_cn(s, "ccn").value,
        lambda s: tuple(v.value for v in inf_cn_upper(s)),
        lambda s: structured_ncn(s, weights, "ncn", triple).value,
        lambda s: structured_inf_cn(s, "mcn", triple).value,
        lambda s: structured_inf_cn(s, "ccn", triple).value,
        lambda s: unified_cn(s, weights, "ccn", "two").value,
        lambda s: unified_cn(s, data, "mcn", "inf").value,
        lambda s: unified_cn(s, weights, "ccn", "inf").value,
    ]
    fresh = [number(SolvedSystem.of(blocks, sel)) for number in numbers]
    system = SolvedSystem.of(blocks, sel)
    shared = {i: numbers[i](system) for i in order}
    assert [shared[i] for i in range(len(numbers))] == fresh


@SETTINGS
@given(m=st.integers(1, 5), extra=st.integers(1, 3), p_frac=st.floats(0.0, 1.0),
       kind=ranges, xi=st.sampled_from(("ncn", "mcn", "ccn")),
       entrywise=st.booleans(), seed=seeds)
def test_eils_matches_explicit_map(m, extra, p_frac, kind, xi, entrywise, seed):
    n = min(m + extra, 6)
    p = 1 + int(p_frac * (m - 1))
    rng = np.random.default_rng(seed)
    mmat = rng.standard_normal((n, m))
    mmat[n - 1 :, :] *= 0.03
    try:
        prob = EilsProblem(
            M=mmat, C=rng.standard_normal((p, m)), n1=n - 1, n2=1,
            b=rng.standard_normal(n), d=rng.standard_normal(p),
        )
    except (IndefiniteProblem, RankDeficientC):
        assume(False)
    if entrywise:
        psi = (np.abs(rng.standard_normal((n, m))), np.abs(rng.standard_normal((p, m))))
        chi = np.abs(rng.standard_normal(n + p))
    else:
        psi, chi = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    sel = selector(kind, n, m, p)
    for norm in ("two", "inf"):
        got = eils_cn(SolvedSystem.of(eils_reduce(prob), sel), psi, chi, xi, norm).value
        assert rel_err(got, oracles.eils_cn(prob, sel, psi, chi, xi, norm)) < RTOL
