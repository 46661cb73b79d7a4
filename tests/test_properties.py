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
from conftest import random_dspp, rel_err
from oracles import structure_basis
from dsppcond import linalg
from dsppcond.dspp import CsrMatrix, DsppBlocks, Solution, factorize, norm_fro_system, selector, solve_dspp
from dsppcond.eils import EilsProblem, eils_cn, eils_inf_cn, eils_reduce
from dsppcond.errors import IndefiniteProblem, RankDeficientC, SingularMatrix, ZeroXi
from dsppcond.experiments import apply_perturbation, epsilons, forward_errors, gen_example1, perturb, perturbed_change
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
    (end,) = _norm_upper(m)
    assert end >= want
    assert rel_err(end, want) <= RTOL


@SETTINGS
@given(k=st.integers(1, 40), extra=st.integers(0, 150), wide=st.booleans(),
       order=st.sampled_from("CF"), exponent=st.sampled_from((-30, 0, 30)),
       small_blocks=st.booleans(), seed=seeds)
def test_one_buffer_norm_end_matches_explicit_gram(k, extra, wide, order, exponent,
                                                   small_blocks, seed):
    """The certified end, its Gram formed in T's own storage, dominates the
    SVD norm, agrees with the explicit-Gram oracle to 1e-15 relative, and
    is bitwise the same whether M is handed over (worked in place where it
    is a C-ordered T) or kept (a private copy), for k < n, k = n and k > n,
    C and Fortran order and scales 10^+-30. ``small_blocks`` forces 7-row
    panels (several once k > 7, the last one partial unless 7 divides k)
    and 5-row triangle blocks."""
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((k, k + extra)) * 10.0**exponent
    m = np.array(m if wide else m.T, order=order)
    want = np.linalg.svd(m, compute_uv=False)[0]
    t = m if m.shape[0] <= m.shape[1] else m.T
    handed = m.copy(order="K")
    with pytest.MonkeyPatch.context() as patch:
        if small_blocks:
            patch.setattr(linalg, "_PANEL_ROWS", 7)
            patch.setattr(linalg, "_TILE", 5)
        (end,) = _norm_upper(m)
        assert _norm_upper(handed, overwrite=True) == [end]
    assert np.array_equal(handed, m) != t.flags.c_contiguous
    assert end >= want
    assert rel_err(end, oracles.norm_upper(m)) <= 1e-15


@SETTINGS
@given(n=st.integers(1, 5), m=st.integers(1, 5), p=st.integers(1, 5), kind=ranges,
       flavor=st.sampled_from(("mcn", "ccn")), seed=seeds)
def test_max_norm_numbers_are_attained(n, m, p, kind, flavor, seed):
    """mcn and ccn are attained, not only dominated: the vertex direction of
    :func:`oracles.attaining_inf_direction`, built from the materialized G,
    has a definition ratio equal to the number to 1e-12 relative. A term
    that overestimates in the library would make the ratio fall short."""
    blocks = random_dspp(np.random.default_rng(seed), n, m, p)
    system = SolvedSystem.of(blocks, selector(kind, n, m, p))
    weights = PerturbationWeights.from_problem(blocks)
    deltas = oracles.attaining_inf_direction(system, weights, flavor)
    want = inf_cn(system, flavor).value
    assert rel_err(oracles.definition_ratio(system, weights, flavor, "inf", deltas), want) <= RTOL


@SETTINGS
@given(n=st.integers(1, 5), m=st.integers(1, 5), p=st.integers(1, 5), ka=kinds, kd=kinds, ke=kinds,
       kind=ranges, flavor=st.sampled_from(("mcn", "ccn")), seed=seeds)
def test_structured_max_norm_numbers_are_attained(n, m, p, ka, kd, ke, kind, flavor, seed):
    """The structured mcn and ccn are attained: the vertex direction of
    :func:`oracles.attaining_inf_direction`, taken in generator coordinates
    of the triple's kinds (signs summed per generator), has a definition
    ratio equal to the number to 1e-12 relative."""
    rng = np.random.default_rng(seed)
    triple = StructureTriple(ka, kd, ke)
    blocks, _ = structured_instance(rng, n, m, p, triple)
    system = SolvedSystem.of(blocks, selector(kind, n, m, p))
    weights = PerturbationWeights.from_problem(blocks)
    deltas = oracles.attaining_inf_direction(system, weights, flavor, triple)
    want = structured_inf_cn(system, flavor, triple).value
    assert rel_err(oracles.definition_ratio(system, weights, flavor, "inf", deltas), want) <= RTOL


@SETTINGS
@given(m=st.integers(1, 5), extra=st.integers(1, 3), p_frac=st.floats(0.0, 1.0),
       kind=ranges, flavor=st.sampled_from(("mcn", "ccn")), seed=seeds)
def test_eils_max_norm_numbers_are_attained(m, extra, p_frac, kind, flavor, seed):
    """The EILS mcn and ccn are attained: the vertex direction of the
    embedding, with A, D, E and the middle of b weighted 0, has a definition
    ratio equal to ``eils_inf_cn`` to 1e-12 relative."""
    n, p = min(m + extra, 6), 1 + int(p_frac * (m - 1))
    rng = np.random.default_rng(seed)
    mmat = rng.standard_normal((n, m))
    mmat[n - 1 :, :] *= 0.03
    try:
        prob = EilsProblem(M=mmat, C=rng.standard_normal((p, m)), n1=n - 1, n2=1,
                           b=rng.standard_normal(n), d=rng.standard_normal(p))
    except (IndefiniteProblem, RankDeficientC):
        assume(False)
    system = SolvedSystem.of(eils_reduce(prob), selector(kind, n, m, p))
    weights = oracles.eils_data_weights(system, prob)
    deltas = oracles.attaining_inf_direction(system, weights, flavor)
    assert not any(np.any(d) for d in (deltas[0], deltas[3], deltas[4]))
    want = eils_inf_cn(system, flavor).value
    assert rel_err(oracles.definition_ratio(system, weights, flavor, "inf", deltas), want) <= RTOL


@pytest.mark.parametrize("kind", ["full", "x", "y", "z"])
def test_max_norm_numbers_are_attained_on_csr_example1(kind):
    """The plain and structured (symmetric A, Toeplitz D and E) mcn and ccn
    of example1 at q = 3, whose blocks are CSR, are attained."""
    blocks = gen_example1(3, 5)
    assert isinstance(blocks.A, CsrMatrix)
    system = SolvedSystem.of(blocks, selector(kind, blocks.n, blocks.m, blocks.p))
    weights = PerturbationWeights.from_problem(blocks)
    triple = StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
    for flavor in ("mcn", "ccn"):
        for kinds, want in ((("full",) * 3, inf_cn(system, flavor)), (triple, structured_inf_cn(system, flavor, triple))):
            deltas = oracles.attaining_inf_direction(system, weights, flavor, kinds)
            assert rel_err(oracles.definition_ratio(system, weights, flavor, "inf", deltas), want.value) <= RTOL


def as_csr(mat) -> CsrMatrix:
    """The CSR form of a dense matrix, its nonzeros only."""
    r, c = np.nonzero(mat)
    return CsrMatrix.from_entries(r, c, mat[r, c], mat.shape)


def sparse_in_subspace(rng, kind, dim, density):
    """3 I plus a matrix of the structure ``kind`` whose generators each stay
    nonzero with probability ``density``."""
    basis = structure_basis(kind, dim)
    g = rng.standard_normal(basis.generators) * (rng.random(basis.generators) < density)
    return oracles.reconstruct(basis, g) + 3.0 * np.eye(dim)


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=ranges, density=densities,
       s=st.integers(1, 8), seed=seeds)
def test_csr_blocks_give_the_dense_values(n, m, p, ka, kd, ke, kind, density, s, seed):
    """The same data held dense and as CSR blocks: every number, bound and
    structured value, with number and data weights, agrees to 1e-13
    relative, eps1 to 1e-13 and eps2 exactly; the perturbation's deltas are
    bitwise the same at the stored entries and zero elsewhere; the refined
    change and its errors r_k, r_m, r_c agree to 1e-10, on systems with
    rcond >= 1e-4 (the blocks' products round in another order, which the
    solves amplify by S's condition)."""
    rng = np.random.default_rng(seed)
    triple = StructureTriple(ka, kd, ke)
    dense = DsppBlocks(
        A=sparse_in_subspace(rng, ka, n, density), B=sparse_block(rng, (m, n), density, False),
        C=sparse_block(rng, (p, m), density, False), D=sparse_in_subspace(rng, kd, m, density),
        E=sparse_in_subspace(rng, ke, p, density), b=rng.standard_normal(n + m + p),
    )
    held = replace(dense, **{name: as_csr(getattr(dense, name)) for name in "ABCDE"})
    sel = selector(kind, n, m, p)
    try:
        lus = [factorize(blocks) for blocks in (dense, held)]
        systems = [SolvedSystem.of(blocks, sel) for blocks in (dense, held)]
    except SingularMatrix:
        assume(False)
    assume(lus[0].rcond >= 1e-4 and np.any(systems[0].lw))
    psi, chi = norm_fro_system(dense), float(np.linalg.norm(dense.b))
    assert rel_err(norm_fro_system(held), psi) <= 1e-13

    def values(system):
        number, data = PerturbationWeights.scalar(psi, chi), PerturbationWeights.from_problem(system.blocks)
        return [
            ncn(system, psi, chi).value, ncn_upper(system, psi, chi).value,
            inf_cn(system, "mcn").value, inf_cn(system, "ccn").value, *(v.value for v in inf_cn_upper(system)),
            structured_ncn(system, number, "ncn", triple).value,
            structured_inf_cn(system, "mcn", triple).value, structured_inf_cn(system, "ccn", triple).value,
            unified_cn(system, data, "ccn", "two").value, unified_cn(system, data, "mcn", "inf").value,
        ]

    try:
        want = values(systems[0])
    except ZeroXi:
        assume(False)
    for got, value in zip(values(systems[1]), want):
        assert rel_err(got, value) <= 1e-13

    perts = [perturb(blocks, s, seed) for blocks in (dense, held)]
    stored = (held.A, held.B, held.C, held.D, held.E, held.b)
    for d_dense, d_held, base in zip(perts[0].deltas, perts[1].deltas, stored):
        if isinstance(base, CsrMatrix):
            assert d_held.indices is base.indices and d_held.indptr is base.indptr
            assert d_held.data.tobytes() == d_dense[base.row_ids, base.indices].tobytes()
            assert np.array_equal(np.asarray(d_held), d_dense)
        else:
            assert d_held.tobytes() == d_dense.tobytes()
    (eps1, eps2), (eps1_held, eps2_held) = (epsilons(pert, blocks) for pert, blocks in zip(perts, (dense, held)))
    assert rel_err(eps1_held, eps1) <= 1e-13 and eps2_held == eps2

    changes = []
    for blocks, system, lu, pert in zip((dense, held), systems, lus, perts):
        try:
            changes.append(perturbed_change(blocks, system.sol, lu, pert))
        except SingularMatrix:
            changes.append(None)
    assert (changes[0] is None) == (changes[1] is None)
    if changes[0] is not None:
        dw, dw_held = changes
        assert np.linalg.norm(dw_held - dw) <= 1e-10 * np.linalg.norm(dw)
        errors = [forward_errors(systems[0].sol, change, sel) for change in changes]
        for got, value in zip(*errors[::-1]):
            assert rel_err(got, value) <= 1e-10


@SETTINGS
@given(parts=st.lists(st.integers(1, 12), min_size=1, max_size=4), extra=st.integers(0, 20),
       exponents=st.lists(st.sampled_from((-30, 0, 30)), min_size=4, max_size=4),
       nested=st.tuples(st.integers(0, 3), st.integers(1, 4)), small_panels=st.booleans(), seed=seeds)
def test_contained_ranges_certify_on_the_cover_gram(parts, extra, exponents, nested, small_panels, seed):
    """Row ranges of T certified on the cover's Gram: T (k x n, k <= n) is
    cut into parts scaled 2^+-30 against one another; every part, and a
    run of them, is certified on its diagonal block of the Gram of all of
    T, whose own end comes last. The first test, a contained range's, fails
    (half its first Ritz value). Each range's end agrees with the oracle of
    its rows alone to 1e-15 relative, and the cover's end is bitwise the
    one without contained ranges: every test restores the Gram bitwise.
    ``small_panels`` forces 7-row panels, so the ranges cut across them."""
    rng = np.random.default_rng(seed)
    cuts = np.cumsum([0, *parts])
    k = int(cuts[-1])
    m = rng.standard_normal((k, k + extra))
    for lo, hi, exponent in zip(cuts, cuts[1:], exponents):
        m[lo:hi] *= 2.0**exponent
    first, last = min(nested[0], len(parts) - 1), min(max(nested), len(parts))
    ranges = [*zip(cuts, cuts[1:]), (cuts[first], cuts[max(last, first + 1)])]
    want = [oracles.norm_upper(m[lo:hi]) for lo, hi in ranges]
    real, potrf, calls, tests = linalg._lanczos, linalg._LAPACK["dpotrf"], [], []

    def half_first(apply, k):
        calls.append(k)
        runs = real(apply, k)
        if len(calls) == 1:
            theta, u = next(runs)
            yield theta / 2.0, u
            yield theta, u
        yield from runs

    with pytest.MonkeyPatch.context() as patch:
        if small_panels:
            patch.setattr(linalg, "_PANEL_ROWS", 7)
        (cover,) = _norm_upper(m)
        patch.setattr(linalg, "_lanczos", half_first)
        patch.setitem(linalg._LAPACK, "dpotrf", lambda *args: tests.append(args) or potrf(*args))
        *ends, last_end = _norm_upper(m, [*ranges, (0, k)])
    assert last_end == cover and len(calls) == len(ranges) + 1 and len(tests) == len(calls) + 1
    for end, ref in zip(ends, want):
        assert rel_err(end, ref) <= 1e-15


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
