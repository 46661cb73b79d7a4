"""Property tests: the closed forms against the materialized oracles.

Random shapes, selectors, structure kinds on A, D, E, scalar weights or
entrywise weights inside each subspace, and sparsity masks on B and C; the
matrix entries come from a drawn numpy seed. Values never exceed their
upper bounds and do not change when all the data are scaled by one factor.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dsppcond.partial_cn as pc
import oracles
from conftest import rel_err
from dsppcond.dspp import DsppBlocks, Solution, norm_fro_system, selector
from dsppcond.eils import EilsProblem, eils_cn, eils_reduce
from dsppcond.errors import IndefiniteProblem, RankDeficientC
from dsppcond.partial_cn import (
    PerturbationWeights,
    SolvedSystem,
    build_j,
    inf_cn,
    inf_cn_upper,
    ncn,
    ncn_upper,
    unified_cn,
)
from dsppcond.structured import (
    STRUCTURE_KINDS,
    StructureTriple,
    structure_basis,
    structured_inf_cn,
    structured_ncn,
)

RTOL = 1e-12
SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

dims = st.integers(1, 6)
kinds = st.sampled_from(STRUCTURE_KINDS)
selectors = st.sampled_from(("full", "x", "y", "z"))
seeds = st.integers(0, 2**32 - 1)
densities = st.sampled_from((0.0, 0.2, 0.5, 1.0))


def in_subspace(rng, kind, dim, nonnegative=False):
    basis = structure_basis(kind, dim)
    g = rng.standard_normal(basis.generators)
    return basis.reconstruct(np.abs(g) if nonnegative else g)


def structured_instance(rng, n, m, p, triple):
    kinds = (triple.a.kind, triple.d.kind, triple.e.kind)
    blocks = DsppBlocks(
        A=in_subspace(rng, kinds[0], n),
        B=rng.standard_normal((m, n)),
        C=rng.standard_normal((p, m)),
        D=in_subspace(rng, kinds[1], m),
        E=in_subspace(rng, kinds[2], p),
        b=rng.standard_normal(n + m + p),
    )
    weights = PerturbationWeights.entrywise(
        in_subspace(rng, kinds[0], n, True),
        np.abs(rng.standard_normal((m, n))),
        np.abs(rng.standard_normal((p, m))),
        in_subspace(rng, kinds[1], m, True),
        in_subspace(rng, kinds[2], p, True),
        np.abs(rng.standard_normal(n + m + p)),
    )
    return blocks, weights


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=selectors,
       xi=st.sampled_from(("ncn", "mcn", "ccn")), scalar=st.booleans(), seed=seeds)
def test_closed_forms_match_oracles(n, m, p, ka, kd, ke, kind, xi, scalar, seed):
    rng = np.random.default_rng(seed)
    triple = StructureTriple.from_kinds(ka, kd, ke, n, m, p)
    blocks, weights = structured_instance(rng, n, m, p, triple)
    if scalar:
        weights = PerturbationWeights.scalar(*rng.uniform(0.5, 2.0, size=2))
    sel = selector(kind, n, m, p)
    system = SolvedSystem.of(blocks, sel)
    sol, rows = system.sol, system.rows

    # The weighted Gram and the 2-norm values it yields.
    g = oracles.build_g(sol)
    w2 = np.square(oracles.vec_psi(weights, blocks))
    j = build_j(sol, *weights.block_mats(blocks))
    j_ref = (g * w2[None, :]) @ g.T
    assert np.allclose(j, j_ref, rtol=RTOL, atol=RTOL * np.abs(j_ref).max())
    two = unified_cn(system, weights, xi, "two").value
    assert rel_err(two, oracles.unified_two(blocks, sel, weights, xi)) < RTOL
    s_two = structured_ncn(system, weights, xi, triple).value
    assert rel_err(s_two, oracles.structured_two(blocks, sel, weights, xi, triple)) < RTOL

    # The max-norm numerators, entry by entry.
    wmats = [np.abs(w) for w in weights.block_mats(blocks)]
    u = pc._inf_numerator(rows, sol, *wmats, np.abs(weights.chi_vec(blocks.l)))
    assert np.allclose(u, oracles.inf_numerator(blocks, sel, weights), rtol=RTOL, atol=0)
    u_s = (
        system.bc_numerator
        + triple.a.numerator(rows[:, :n], np.abs(blocks.A), sol.x)
        + triple.d.numerator(rows[:, n : n + m], np.abs(blocks.D), sol.y)
        + triple.e.numerator(rows[:, n + m :], np.abs(blocks.E), sol.z)
    )
    assert np.allclose(u_s, oracles.structured_numerator(blocks, sel, triple), rtol=RTOL, atol=0)

    # Structured never exceeds unstructured.
    assert s_two <= two * (1 + RTOL)
    for flavor in ("mcn", "ccn"):
        s_inf = structured_inf_cn(system, flavor, triple).value
        assert s_inf <= inf_cn(system, flavor).value * (1 + RTOL)


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
@given(n=dims, m=dims, p=dims, kind=selectors, density_b=densities,
       density_c=densities, empty_rows=st.booleans(), seed=seeds)
def test_numerator_over_sparse_data_matches_oracle(
    n, m, p, kind, density_b, density_c, empty_rows, seed
):
    rng = np.random.default_rng(seed)
    blocks = sparse_instance(rng, n, m, p, density_b, density_c, empty_rows)
    sel = selector(kind, n, m, p)
    system = SolvedSystem.of(blocks, sel)
    want = oracles.inf_numerator(blocks, sel, PerturbationWeights.from_problem(blocks))
    wmats = [np.abs(w) for w in (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)]
    u = pc._inf_numerator(system.rows, system.sol, *wmats, np.abs(blocks.b))
    assert np.allclose(u, want, rtol=RTOL, atol=0)
    shared = system.bc_numerator + pc._ade_numerator(
        system.rows, system.sol, wmats[0], wmats[3], wmats[4]
    )
    assert np.allclose(shared, want, rtol=RTOL, atol=0)


@SETTINGS
@given(n=dims, m=dims, p=dims, kind=selectors, density_b=densities,
       density_c=densities, empty_rows=st.booleans(), seed=seeds)
def test_values_never_exceed_bounds(n, m, p, kind, density_b, density_c, empty_rows, seed):
    rng = np.random.default_rng(seed)
    blocks = sparse_instance(rng, n, m, p, density_b, density_c, empty_rows)
    system = SolvedSystem.of(blocks, selector(kind, n, m, p))
    psi, chi = (float(v) for v in rng.uniform(0.5, 2.0, size=2))
    assert ncn(system, psi, chi).value <= ncn_upper(system, psi, chi).value * (1 + RTOL)
    mcn_u, ccn_u = inf_cn_upper(system)
    assert inf_cn(system, "mcn").value <= mcn_u.value * (1 + RTOL)
    assert inf_cn(system, "ccn").value <= ccn_u.value * (1 + RTOL)


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
    want = np.linalg.eigvalsh(build_j(sol, *consts))[-1]
    assert rel_err(pc._scalar_j_norm(sol, psi), want) < RTOL


@SETTINGS
@given(n=dims, m=dims, p=dims, ka=kinds, kd=kinds, ke=kinds, kind=selectors,
       j=st.integers(-60, 60), seed=seeds)
def test_numbers_invariant_under_data_scaling(n, m, p, ka, kd, ke, kind, j, seed):
    """(A..E, b) -> 2^j (A..E, b) leaves w, and so every number, unchanged."""
    rng = np.random.default_rng(seed)
    triple = StructureTriple.from_kinds(ka, kd, ke, n, m, p)
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
    triple = StructureTriple.from_kinds(ka, kd, ke, n, m, p)
    blocks, weights = structured_instance(rng, n, m, p, triple)
    sel = selector(kind, n, m, p)
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
       kind=selectors, xi=st.sampled_from(("ncn", "mcn", "ccn")),
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
