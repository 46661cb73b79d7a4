"""Dense kernel tests, mostly against small hand-computed values."""

import numpy as np
import pytest

from conftest import rel_err
from dsppcond.dspp import selector
from dsppcond.errors import DimensionMismatch, SingularMatrix, ZeroMatrix
from dsppcond.experiments import gen_example1
from dsppcond.linalg import (
    LuSolver,
    as_matrix,
    as_vector,
    ddagger,
    hadamard,
    induced_norm,
    kron,
    solve,
    spectral_top,
    top_eig,
    unvec,
    vec,
)
from dsppcond.partial_cn import SolvedSystem


def test_vec_is_column_major():
    # vec stacks columns: [[1,2],[3,4]] -> [1,3,2,4]
    assert np.array_equal(vec([[1.0, 2.0], [3.0, 4.0]]), [1.0, 3.0, 2.0, 4.0])


def test_unvec_inverts_vec():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r, c = rng.integers(1, 7, size=2)
        m = rng.standard_normal((r, c))
        assert np.array_equal(unvec(vec(m), r, c), m)


def test_unvec_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        unvec([1.0, 2.0, 3.0], 2, 2)


def test_kron_hand_value():
    # [[1,2],[3,4]] kron [[0,1],[1,0]] by the block definition
    got = kron([[1, 2], [3, 4]], [[0, 1], [1, 0]])
    want = np.array([
        [0, 1, 0, 2],
        [1, 0, 2, 0],
        [0, 3, 0, 4],
        [3, 0, 4, 0],
    ], dtype=float)
    assert np.array_equal(got, want)


def test_ddagger_inverts_nonzeros_and_maps_zero_to_one():
    assert np.array_equal(ddagger([2.0, 0.0, -0.5]), [0.5, 1.0, -2.0])


def test_hadamard_requires_matching_shapes():
    assert np.array_equal(hadamard([1.0, 2.0], [3.0, 4.0]), [3.0, 8.0])
    with pytest.raises(DimensionMismatch):
        hadamard(np.ones((2, 2)), np.ones((2, 3)))


def test_induced_norms_hand_values():
    m = [[1.0, -2.0], [3.0, 4.0]]
    assert induced_norm(m, "inf") == 7.0
    # Rectangular spectral norm: singular values of diag-like stack are 4, 3.
    tall = [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]
    assert abs(induced_norm(tall, "two") - 4.0) < 1e-14
    with pytest.raises(ValueError):
        induced_norm(m, "one")


def test_lu_solver_matches_hand_inverse():
    # [[2,1],[1,1]]^{-1} = [[1,-1],[-1,2]]
    lu = LuSolver([[2.0, 1.0], [1.0, 1.0]])
    x = lu.solve([1.0, 0.0])
    assert np.allclose(x, [1.0, -1.0], rtol=0, atol=1e-14)
    # Transposed solve against the transposed hand inverse.
    xt = lu.solve([0.0, 1.0], transpose=True)
    assert np.allclose(xt, [-1.0, 2.0], rtol=0, atol=1e-14)


def test_lu_solver_accepts_matrix_rhs():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 5))
    rhs = rng.standard_normal((5, 3))
    got = LuSolver(m).solve(rhs)
    assert np.allclose(m @ got, rhs, rtol=0, atol=1e-10)


def test_lu_solver_rejects_singular_and_zero():
    with pytest.raises(SingularMatrix):
        LuSolver([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(SingularMatrix):
        LuSolver(np.zeros((3, 3)))
    # A pivot far below the scale threshold counts as singular.
    with pytest.raises(SingularMatrix):
        LuSolver([[1.0, 0.0], [0.0, 1e-20]])
    # Unit pivots, yet cond_2 = 3.8e18: the rcond estimate (1.7e-21) rejects it.
    with pytest.raises(SingularMatrix):
        LuSolver(np.eye(64) - np.triu(np.ones((64, 64)), 1))


def test_lu_solver_rejects_nonsquare_and_bad_rhs():
    with pytest.raises(DimensionMismatch):
        LuSolver(np.ones((2, 3)))
    lu = LuSolver(np.eye(3))
    with pytest.raises(DimensionMismatch):
        lu.solve(np.ones(4))


def test_solve_seeded_random_roundtrip():
    rng = np.random.default_rng(2)
    for _ in range(10):
        dim = int(rng.integers(2, 9))
        m = rng.standard_normal((dim, dim))
        b = rng.standard_normal(dim)
        x = solve(m, b)
        assert np.linalg.norm(m @ x - b) < 1e-9 * (np.linalg.norm(m) * np.linalg.norm(x) + 1)


def test_spectral_top_satisfies_mv_eq_sigma_u():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((4, 6))
    sigma, u, v = spectral_top(m)
    assert sigma > 0
    assert np.allclose(m @ v, sigma * u, rtol=0, atol=1e-12)
    assert abs(np.linalg.norm(v) - 1.0) < 1e-12
    assert abs(sigma - induced_norm(m, "two")) < 1e-12


@pytest.fixture(scope="module")
def spectral_cases():
    """Tall, wide and rank-deficient random matrices, and L S^-1 of example1
    at q = 8 for every selector."""
    rng = np.random.default_rng(4)
    mats = [
        rng.standard_normal((9, 4)),
        rng.standard_normal((4, 9)),
        rng.standard_normal((7, 2)) @ rng.standard_normal((2, 6)),
    ]
    blocks = gen_example1(8, 0)
    for kind in ("full", "x", "y", "z"):
        mats.append(SolvedSystem.of(blocks, selector(kind, blocks.n, blocks.m, blocks.p)).rows)
    return mats


# At 1e+-160 the squared entries leave the double range, so a Gram of the
# unscaled matrix overflows or loses its digits to underflow.
@pytest.mark.parametrize("scale", [1.0, 1e-150, 1e150, 1e-160, 1e160])
def test_top_eig_kernel_matches_svd(spectral_cases, scale):
    for base in spectral_cases:
        m = scale * base
        want = np.linalg.svd(m, compute_uv=False)[0]
        assert rel_err(induced_norm(m, "two"), want) < 1e-12
        sigma, u, v = spectral_top(m)
        assert rel_err(sigma, want) < 1e-12
        assert np.linalg.norm(m @ v - sigma * u) <= 1e-12 * sigma
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_top_eig_clamps_and_symmetrizes():
    lam, v = top_eig(np.array([[-1e-20, 0.0], [0.0, -2.0]]))
    assert lam == 0.0 and abs(abs(v[0]) - 1.0) < 1e-15
    lam, v = top_eig(np.array([[2.0, 3.0], [1.0, 2.0]]))
    assert abs(lam - 4.0) < 1e-14
    assert np.allclose(np.abs(v), np.sqrt([0.5, 0.5]), rtol=0, atol=1e-14)


def test_spectral_top_rejects_zero_matrix():
    with pytest.raises(ZeroMatrix):
        spectral_top(np.zeros((2, 3)))


def test_as_matrix_and_as_vector_validate():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])
    with pytest.raises(ValueError):
        as_vector([np.inf])
