"""Equality constrained indefinite least squares through the saddle embedding."""

import numpy as np
import pytest

from conftest import rel_err, traced_peak
from dsppcond.dspp import DsppBlocks, selector, solve_dspp
from dsppcond.eils import (
    RANK_RTOL,
    EilsProblem,
    default_scalar_weights,
    eils_cn,
    eils_from_dict,
    eils_inf_cn,
    eils_reduce,
    eils_to_dict,
    signature_matrix,
    solve_eils,
)
from dsppcond.errors import (
    DimensionMismatch,
    IndefiniteProblem,
    MalformedProblem,
    RankDeficientC,
)
from dsppcond.partial_cn import PerturbationWeights, SolvedSystem, unified_cn


def hand_problem():
    return EilsProblem(
        M=np.array([[1.0], [1.0]]),
        C=np.array([[1.0]]),
        n1=1,
        n2=1,
        b=np.array([1.0, 3.0]),
        d=np.array([2.0]),
    )


def random_problem(rng, n, m, p):
    """Well posed by construction: the negative rows of M are kept tiny."""
    mmat = rng.standard_normal((n, m))
    mmat[n - 1 :, :] *= 0.03
    return EilsProblem(
        M=mmat,
        C=rng.standard_normal((p, m)),
        n1=n - 1,
        n2=1,
        b=rng.standard_normal(n),
        d=rng.standard_normal(p),
    )


def test_signature_matrix():
    assert np.array_equal(signature_matrix(2, 1), np.diag([1.0, 1.0, -1.0]))
    assert np.array_equal(signature_matrix(0, 2), -np.eye(2))


def test_hand_solution():
    # Cy = d forces y = 2; r = b - My = [-1, 1]; x = Jr = [-1, -1];
    # the multiplier balances M^T x + C^T lam = 0, so lam = 2.
    prob = hand_problem()
    sol = solve_eils(prob, solve_dspp(eils_reduce(prob)))
    assert np.allclose(sol.y, [2.0], rtol=0, atol=1e-14)
    assert np.allclose(sol.lam, [2.0], rtol=0, atol=1e-14)
    assert np.allclose(sol.x, [-1.0, -1.0], rtol=0, atol=1e-14)
    assert np.allclose(sol.residual, [-1.0, 1.0], rtol=0, atol=1e-14)


def test_reduction_block_contents():
    prob = hand_problem()
    blocks = eils_reduce(prob)
    assert np.array_equal(blocks.A, np.diag([1.0, -1.0]))
    assert np.array_equal(blocks.B, prob.M.T)
    assert np.array_equal(blocks.C, prob.C)
    assert np.array_equal(blocks.D, np.zeros((1, 1)))
    assert np.array_equal(blocks.E, np.zeros((1, 1)))
    assert np.array_equal(blocks.b, [1.0, 3.0, 0.0, 2.0])


def test_matches_textbook_normal_equations():
    rng = np.random.default_rng(50)
    for _ in range(10):
        n, m, p = 7, 3, 2
        prob = random_problem(rng, n, m, p)
        sol = solve_eils(prob, solve_dspp(eils_reduce(prob)))
        j = signature_matrix(prob.n1, prob.n2)
        kkt = np.block([
            [prob.M.T @ j @ prob.M, prob.C.T],
            [prob.C, np.zeros((p, p))],
        ])
        rhs = np.concatenate([prob.M.T @ j @ prob.b, prob.d])
        textbook = np.linalg.solve(kkt, rhs)
        assert np.allclose(sol.y, textbook[:m], rtol=1e-8, atol=1e-10)
        assert np.allclose(sol.lam, -textbook[m:], rtol=1e-8, atol=1e-10)
        assert np.allclose(sol.x, j @ sol.residual, rtol=0, atol=1e-14)
        assert np.linalg.norm(prob.C @ sol.y - prob.d) <= 1e-9 * max(
            1.0, float(np.linalg.norm(prob.d))
        )


def test_rejects_rank_deficient_constraints():
    with pytest.raises(RankDeficientC):
        EilsProblem(
            M=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
            C=np.array([[1.0, 1.0], [2.0, 2.0]]),
            n1=3,
            n2=0,
            b=np.zeros(3),
            d=np.zeros(2),
        )


@pytest.mark.parametrize("scale", [2.0**-660, 1.0, 2.0**660])
def test_rank_tolerance_boundary_on_singular_values(scale):
    """C = diag(1, s) V^T with orthonormal rows V^T has singular values 1 and
    s; s 0.1% below RANK_RTOL ||C||_inf raises, 0.1% above is accepted, at
    any power-of-two scale of C."""
    rng = np.random.default_rng(21)
    vt = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
    m_mat = rng.standard_normal((4, 3))
    tol = RANK_RTOL * float(np.abs(vt[0]).sum())
    args = dict(M=m_mat, n1=4, n2=0, b=np.zeros(4), d=np.zeros(2))
    with pytest.raises(RankDeficientC):
        EilsProblem(C=scale * np.diag([1.0, (1.0 - 1e-3) * tol]) @ vt, **args)
    assert EilsProblem(C=scale * np.diag([1.0, (1.0 + 1e-3) * tol]) @ vt, **args).p == 2


def test_rejects_indefinite_quadratic_form():
    # J = diag(1, -1, -1) makes M^T J M = diag(1, -13), negative on the
    # constraint null space span{e2}.
    with pytest.raises(IndefiniteProblem):
        EilsProblem(
            M=np.array([[1.0, 0.0], [0.0, 2.0], [0.0, 3.0]]),
            C=np.array([[1.0, 0.0]]),
            n1=1,
            n2=2,
            b=np.zeros(3),
            d=np.zeros(1),
        )
    # With m == p the constraints pin y entirely: no null space, no check.
    EilsProblem(
        M=np.array([[1.0], [2.0], [3.0]]),
        C=np.array([[1.0]]),
        n1=1,
        n2=2,
        b=np.zeros(3),
        d=np.ones(1),
    )


def test_dimension_validation():
    good = dict(M=np.ones((3, 2)), C=np.array([[1.0, 0.0]]), b=np.zeros(3), d=np.zeros(1))
    with pytest.raises(DimensionMismatch):
        EilsProblem(n1=1, n2=1, **good)
    with pytest.raises(DimensionMismatch):
        EilsProblem(M=np.ones((2, 3)), C=np.eye(3), n1=1, n2=1, b=np.zeros(2), d=np.zeros(3))
    with pytest.raises(DimensionMismatch):
        EilsProblem(
            M=np.ones((3, 2)), C=np.array([[1.0, 0.0, 0.0]]), n1=2, n2=1,
            b=np.zeros(3), d=np.zeros(1),
        )
    with pytest.raises(DimensionMismatch):
        EilsProblem(
            M=np.ones((3, 2)), C=np.array([[1.0, 0.0]]), n1=2, n2=1,
            b=np.zeros(4), d=np.zeros(1),
        )


def test_default_scalar_weights_hand_value():
    prob = EilsProblem(
        M=np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]),
        C=np.array([[1.0, 1.0]]),
        n1=3,
        n2=0,
        b=np.array([1.0, 2.0, 2.0]),
        d=np.array([4.0]),
    )
    psi, chi = default_scalar_weights(prob)
    assert psi == np.sqrt(27.0)
    assert chi == 5.0


def zeroed_unified_weights(prob, psi, chi):
    n, m, p = prob.n, prob.m, prob.p
    chi_vec = np.concatenate([np.full(n, chi), np.zeros(m), np.full(p, chi)])
    return PerturbationWeights.entrywise(
        np.zeros((n, n)),
        np.full((m, n), psi),
        np.full((p, m), psi),
        np.zeros((m, m)),
        np.zeros((p, p)),
        chi_vec,
    )


def test_cn_equals_zero_weighted_reduction():
    rng = np.random.default_rng(51)
    for trial in range(6):
        n, m, p = 6, 3, 2
        prob = random_problem(rng, n, m, p)
        blocks = eils_reduce(prob)
        psi, chi = default_scalar_weights(prob)
        weights = zeroed_unified_weights(prob, psi, chi)
        system = SolvedSystem.of(blocks, selector(("full", "x", "y", "z")[trial % 4], n, m, p))
        for xi, norm in (("ncn", "two"), ("mcn", "inf"), ("ccn", "inf")):
            direct = eils_cn(system, psi, chi, xi, norm)
            general = unified_cn(system, weights, xi, norm)
            assert rel_err(direct.value, general.value) < 1e-12
        assert eils_cn(system, psi, chi, "ncn", "two").flavor == "eils2"
        assert eils_cn(system, psi, chi, "mcn", "inf").flavor == "eilsInf"


def test_inf_cn_equals_data_weighted_eils_cn_bit_for_bit():
    rng = np.random.default_rng(55)
    for trial in range(8):
        m = int(rng.integers(2, 5))
        n, p = m + int(rng.integers(1, 4)), int(rng.integers(1, m + 1))
        prob = random_problem(rng, n, m, p)
        system = SolvedSystem.of(eils_reduce(prob), selector(("full", "x", "y", "z")[trial % 4], n, m, p))
        psi_pair = (np.abs(prob.M), np.abs(prob.C))
        chi_vec = np.abs(np.concatenate([prob.b, prob.d]))
        for xi in ("mcn", "ccn"):
            got = eils_inf_cn(system, xi)
            assert got.flavor == "eilsInf"
            # A fresh system, so the general route evaluates its own numerator.
            fresh = SolvedSystem.of(system.blocks, system.sel)
            assert got.value == eils_cn(fresh, psi_pair, chi_vec, xi, "inf").value
    with pytest.raises(ValueError, match="supports xi 'mcn' or 'ccn'"):
        eils_inf_cn(system, "ncn")


def test_cn_entrywise_weights_and_validation():
    rng = np.random.default_rng(52)
    prob = random_problem(rng, 5, 2, 1)
    system = SolvedSystem.of(eils_reduce(prob), selector("y", 5, 2, 1))
    psi_pair = (np.abs(prob.M), np.abs(prob.C))
    chi_vec = np.abs(np.concatenate([prob.b, prob.d]))
    value = eils_cn(system, psi_pair, chi_vec, "mcn", "inf").value
    assert np.isfinite(value) and value > 0
    with pytest.raises(ValueError):
        eils_cn(system, -1.0, 1.0, "ncn", "two")
    with pytest.raises(ValueError):
        eils_cn(system, 1.0, 0.0, "ncn", "two")
    with pytest.raises(ValueError):
        eils_cn(system, 1.0, 1.0, "ncn", "one")
    with pytest.raises(DimensionMismatch):
        eils_cn(system, (np.ones((2, 5)), np.abs(prob.C)), 1.0, "ncn", "two")
    with pytest.raises(DimensionMismatch):
        eils_cn(system, 1.0, np.ones(3), "ncn", "two")


def test_cn_rejects_nan_weights_before_evaluating():
    rng = np.random.default_rng(53)
    prob = random_problem(rng, 5, 2, 1)
    system = SolvedSystem.of(eils_reduce(prob), selector("y", 5, 2, 1))
    for psi, chi in ((np.nan, 1.0), (1.0, np.nan)):
        for xi, norm in (("ncn", "two"), ("mcn", "inf")):
            with pytest.raises(ValueError, match="scalar weight must be positive"):
                eils_cn(system, psi, chi, xi, norm)
    nan_m = np.full(prob.M.shape, np.nan)
    with pytest.raises(ValueError, match="weight for B has non-finite"):
        eils_cn(system, (nan_m, np.abs(prob.C)), 1.0, "ncn", "two")


def test_eils_cn_memory_budget():
    # A scalar psi stays a number on M and C, and A, D, E carry the number 0,
    # so beside the solved system the 2-norm number holds the Lanczos basis
    # and O(l) vectors, less than the n x n A block itself.
    n, m, p = 200, 40, 10
    prob = random_problem(np.random.default_rng(54), n, m, p)
    system = SolvedSystem.of(eils_reduce(prob), selector("full", n, m, p))
    psi, chi = default_scalar_weights(prob)
    system.rows  # formed on first use, and part of the solved system
    assert traced_peak(eils_cn, system, psi, chi, "ncn", "two") < system.blocks.A.nbytes


def test_dict_round_trip():
    prob = hand_problem()
    doc = eils_to_dict(prob)
    back = eils_from_dict(doc)
    assert np.array_equal(back.M, prob.M)
    assert np.array_equal(back.C, prob.C)
    assert back.n1 == prob.n1 and back.n2 == prob.n2
    assert np.array_equal(back.b, prob.b)
    assert np.array_equal(back.d, prob.d)
    with pytest.raises(MalformedProblem):
        eils_from_dict([1, 2, 3])
    for key in ("M", "C", "n1", "n2", "b", "d"):
        broken = dict(doc)
        del broken[key]
        with pytest.raises(MalformedProblem):
            eils_from_dict(broken)
    bad = dict(doc)
    bad["n1"] = 7
    with pytest.raises(MalformedProblem):
        eils_from_dict(bad)


def test_reduced_blocks_solve_is_consistent():
    rng = np.random.default_rng(53)
    prob = random_problem(rng, 6, 3, 2)
    blocks = eils_reduce(prob)
    assert isinstance(blocks, DsppBlocks)
    sol = solve_eils(prob, solve_dspp(blocks))
    j = signature_matrix(prob.n1, prob.n2)
    assert np.allclose(j @ sol.x + prob.M @ sol.y, prob.b, rtol=0, atol=1e-10)
    assert np.allclose(prob.M.T @ sol.x + prob.C.T @ sol.lam, 0.0, rtol=0, atol=1e-10)
