"""Dense kernel tests, mostly against small hand-computed values, plus the
unvec helper and the dense top eigenpair that tests take from ``oracles``.
The LAPACK and BLAS binding is checked against scipy's wrappers of the
same routines."""

import hashlib
import types

import numpy as np
import pytest
import scipy.linalg

from conftest import rel_err, traced_peak
import oracles
from dsppcond import linalg
from dsppcond.dspp import factorize, selector
from dsppcond.errors import DimensionMismatch, SingularMatrix, UncertifiedBound
from dsppcond import experiments
from dsppcond.experiments import gen_example1
from dsppcond.linalg import LuSolver, as_matrix, as_vector, ddagger, top_eig
from dsppcond.partial_cn import SolvedSystem


def test_unvec_inverts_vec():
    rng = np.random.default_rng(0)
    for _ in range(20):
        r, c = rng.integers(1, 7, size=2)
        m = rng.standard_normal((r, c))
        assert np.array_equal(oracles.unvec(m.flatten(order="F"), r, c), m)


def test_unvec_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        oracles.unvec([1.0, 2.0, 3.0], 2, 2)


def test_ddagger_inverts_nonzeros_and_maps_zero_to_one():
    assert np.array_equal(ddagger([2.0, 0.0, -0.5]), [0.5, 1.0, -2.0])


def test_induced_norms_hand_values():
    m = np.array([[1.0, -2.0], [3.0, 4.0]])
    assert linalg._norm_inf(m) == 7.0
    # Rectangular spectral norm: singular values of diag-like stack are 4, 3.
    tall = [[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]]
    assert 4.0 <= linalg._norm_upper(tall) <= 4.0 * (1 + 1e-12)


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


@pytest.mark.parametrize("order", ["F", "C"])
def test_lu_solver_overwrites_the_rhs(order):
    """With overwrite, the rhs holds the solution: written in place for the
    columns of a Fortran-ordered buffer, copied back for a C-ordered one."""
    rng = np.random.default_rng(2)
    m = rng.standard_normal((5, 5))
    lu = LuSolver(m)
    buf = np.array(rng.standard_normal((5, 4)), order=order)
    cols = buf[:, 1:3]
    want = lu.solve(cols, transpose=True)
    got = lu.solve(cols, transpose=True, overwrite=True)
    assert got is cols
    assert np.array_equal(buf[:, 1:3], want)


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
        # Scaled by c = max |m_ij|, the products neither overflow nor underflow.
        c = float(np.abs(m).max())
        t = m / c
        lam, u = top_eig(lambda v: t @ (v @ t), t.shape[0])
        sigma = c * float(np.sqrt(lam))
        assert rel_err(sigma, want) < 1e-12
        assert np.linalg.norm(t @ (u @ t) - lam * u) <= 1e-12 * lam
        assert abs(np.linalg.norm(u) - 1.0) < 1e-12
        v = m.T @ u / sigma
        assert np.linalg.norm(m @ v - sigma * u) <= 1e-12 * sigma
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12
        assert want <= linalg._norm_upper(m) <= want * (1 + 1e-12)


def test_top_eig_clamps_and_symmetrizes():
    lam, v = oracles.top_eig(np.array([[-1e-20, 0.0], [0.0, -2.0]]))
    assert lam == 0.0 and abs(abs(v[0]) - 1.0) < 1e-15
    lam, v = oracles.top_eig(np.array([[2.0, 3.0], [1.0, 2.0]]))
    assert abs(lam - 4.0) < 1e-14
    assert np.allclose(np.abs(v), np.sqrt([0.5, 0.5]), rtol=0, atol=1e-14)


def test_norm_upper_continues_the_run_then_raises(monkeypatch):
    m = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assert 4.0 <= linalg._norm_upper(m) <= 4.0 * (1 + 1e-12)
    assert linalg._norm_upper(np.zeros((2, 3))) == 0.0
    real = linalg._lanczos

    def low_first(apply, k):
        yield 0.0, None  # far below lam_max: the Cholesky test fails
        yield from real(apply, k)

    monkeypatch.setattr(linalg, "_lanczos", low_first)
    assert 4.0 <= linalg._norm_upper(m) <= 4.0 * (1 + 1e-12)
    monkeypatch.setattr(linalg, "_lanczos", lambda apply, k: iter([(0.0, None)]))
    with pytest.raises(UncertifiedBound):
        linalg._norm_upper(m)


def test_failed_cholesky_restores_the_gram_bitwise(monkeypatch):
    """Half the first Ritz value fails the first Cholesky, which overwrites
    the lower triangle and diagonal of the one k x k buffer. The bound must
    then come out bitwise unpatched, from a second Lanczos run on the
    restored buffer: only a bitwise-restored Gram gives that run's steps.
    k = 300 spans three triangle blocks, the last one partial."""
    m = np.random.default_rng(11).standard_normal((300, 420))
    want = linalg._norm_upper(m)
    real, potrf, calls = linalg._lanczos, linalg._LAPACK["dpotrf"], []

    def half_first(apply, k):
        theta, u = next(real(apply, k))
        yield theta / 2.0, u
        yield from real(apply, k)

    def counting(*args):
        calls.append(args)
        return potrf(*args)

    monkeypatch.setattr(linalg, "_lanczos", half_first)
    monkeypatch.setitem(linalg._LAPACK, "dpotrf", counting)
    assert linalg._norm_upper(m) == want
    assert len(calls) == 2


@pytest.mark.parametrize("order", ["C", "F"])
def test_dsyrk_binding_accumulates_the_gram(order):
    """dsyrk with beta = 1 adds T T^T to the upper triangle of the Fortran
    view of a C-ordered g, that is g's lower one, and leaves the rest of g
    alone: a C-ordered T is read as the Fortran matrix T^T ("T"), a Fortran
    one as T ("N")."""
    rng = np.random.default_rng(12)
    k, w = 7, 11
    t = np.array(rng.standard_normal((k, w)), order=order)
    start = rng.standard_normal((k, k))
    g = start.copy()
    trans, lda = ("T", w) if order == "C" else ("N", k)
    for _ in range(2):
        linalg._call("dsyrk", "U", trans, k, w, 1.0, t, lda, 1.0, g, k)
    want = start + 2.0 * (t @ t.T)
    lower, upper = np.tril_indices(k), np.triu_indices(k, 1)
    assert _norm_rel(g[lower], want[lower]) <= 1e-13
    assert np.array_equal(g[upper], start[upper])


@pytest.mark.parametrize("prefix", ["scipy_openblas", "openblas"])
@pytest.mark.parametrize("suffix", ["64_", ""])
def test_openblas_locator_reads_every_symbol_naming(monkeypatch, prefix, suffix):
    """numpy >= 2 wheels prefix the symbols with scipy_, earlier wheels and
    system builds do not; ILP64 builds suffix them 64_."""
    def get():
        return 3

    def set_(count):
        pass

    lib = types.SimpleNamespace(**{f"{prefix}_get_num_threads{suffix}": get,
                                   f"{prefix}_set_num_threads{suffix}": set_})
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: lib)
    assert linalg._openblas_threads.__wrapped__() == (get, set_)
    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: types.SimpleNamespace())
    assert linalg._openblas_threads.__wrapped__() is None


def test_as_matrix_and_as_vector_validate():
    with pytest.raises(DimensionMismatch):
        as_matrix([1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        as_vector([[1.0]])
    with pytest.raises(ValueError):
        as_matrix([[np.nan]])
    with pytest.raises(ValueError):
        as_vector([np.inf])


def _norm_rel(got, want):
    """max |got - want| relative to max |want|."""
    return float(np.abs(np.asarray(got) - want).max() / np.abs(want).max())


def test_lu_binding_matches_scipy():
    rng = np.random.default_rng(5)
    m = rng.standard_normal((40, 40))
    lu = LuSolver(m)
    factors, piv = scipy.linalg.lu_factor(m)
    assert np.array_equal(lu._piv - 1, piv)
    assert _norm_rel(lu._lu, factors) <= 1e-13
    rcond = scipy.linalg.lapack.dgecon(factors, scipy.linalg.lapack.dlange("1", m), norm="1")[0]
    assert rel_err(lu.rcond, rcond) <= 1e-13
    assert lu.norm_one == scipy.linalg.lapack.dlange("1", m)
    assert lu.norm_inf == scipy.linalg.lapack.dlange("I", m)
    for transpose in (False, True):
        for rhs in (rng.standard_normal(40), rng.standard_normal((40, 3))):
            want = scipy.linalg.lu_solve((factors, piv), rhs, trans=int(transpose))
            assert _norm_rel(lu.solve(rhs, transpose=transpose), want) <= 1e-13
            buf = np.asfortranarray(rhs)
            assert lu.solve(buf, transpose=transpose, overwrite=True) is buf
            assert _norm_rel(buf, want) <= 1e-13


def test_lu_factors_fortran_input_in_place_only_when_asked():
    # A caller's array is copied; with ``overwrite`` a writeable
    # Fortran-ordered one holds the factors itself. Either way the factors,
    # the pivots, rcond and both norms are bitwise those of the C-ordered
    # copy, the norms read off the Fortran array with no copy.
    rng = np.random.default_rng(7)
    m = rng.standard_normal((30, 30))
    ref = LuSolver(m)
    f = np.asfortranarray(m)
    kept = LuSolver(f)
    assert np.array_equal(f, m) and kept._lu is not f
    in_place = LuSolver(f, overwrite=True)
    assert in_place._lu is f
    for lu in (kept, in_place):
        assert np.array_equal(lu._lu, ref._lu) and np.array_equal(lu._piv, ref._piv)
        assert (lu.rcond, lu.norm_one, lu.norm_inf) == (ref.rcond, ref.norm_one, ref.norm_inf)
    read_only = np.asfortranarray(m)
    read_only.flags.writeable = False
    assert LuSolver(read_only, overwrite=True)._lu is not read_only


def test_factorize_holds_one_system_sized_array():
    # S is assembled in Fortran order and factored in place: beside the
    # blocks, the factorization peaks at one l x l array, the finiteness
    # mask of the input check (l^2 bytes) and O(l) vectors.
    blocks = gen_example1(8, 0)
    l = blocks.l
    assert traced_peak(factorize, blocks) <= l * l * 9 + 16 * l * 8


def test_exactly_singular_lu_is_rejected():
    # dgetrf reports the zero pivot (info > 0); the solver reads rcond 0.
    m = np.ones((3, 3))
    assert scipy.linalg.lapack.dgetrf(m)[2] > 0
    with pytest.raises(SingularMatrix, match="rcond estimate 0.000e"):
        LuSolver(m)


def test_cholesky_binding_reports_info_as_scipy():
    rng = np.random.default_rng(6)
    g = rng.standard_normal((6, 9))
    for a in (g @ g.T + np.eye(6), g @ g.T - 5.0 * np.eye(6)):
        r, want = scipy.linalg.lapack.dpotrf(a)
        got = a.copy()
        info = np.zeros(1, linalg._INT)
        linalg._call("dpotrf", "U", 6, got, 6, info)
        assert int(info[0]) == want
        if want == 0:
            assert _norm_rel(np.triu(got.T), r) <= 1e-13
    assert want > 0


def test_ritz_pair_matches_eigh_tridiagonal():
    """A workspace's pair matches scipy's; one workspace serving every
    leading block, as a Lanczos run uses it, gives each block bitwise the
    pair of a fresh workspace of that block's size."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 30):
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        lam, s = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
        theta, z = linalg._TopTridiagonal(d, e)(n)
        assert rel_err(theta, lam[0]) <= 1e-13
        assert _norm_rel(z, s[:, 0]) <= 1e-13
    d, e = rng.standard_normal(30), rng.standard_normal(30)
    shared = linalg._TopTridiagonal(d, e)
    for n in range(1, 31):
        theta, z = shared(n)
        want = linalg._TopTridiagonal(d[:n].copy(), e[: n - 1].copy())(n)
        assert theta == want[0] and np.array_equal(z, want[1])
    with pytest.raises(IndexError):
        shared(31)


def test_strided_rank_one_update_matches_scipy_dger():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((7, 4))
    xs = base.T[:, ::2]  # columns with element stride 4
    y = rng.standard_normal(6)
    a = np.asfortranarray(rng.standard_normal((4, 6)))
    want = scipy.linalg.blas.dger(1.0, xs[:, 2], y[:5], a=a[:, :5].copy(order="F"))
    update = linalg.RankOneUpdate(a, xs, y)
    untouched = a[:, 5].copy()
    update.update(2, 5)
    assert _norm_rel(a[:, :5], want) <= 1e-13
    assert np.array_equal(a[:, 5], untouched)
    with pytest.raises(IndexError):
        update.update(4, 5)
    with pytest.raises(IndexError):
        update.update(0, 7)


def test_missing_lapack_symbols_raise_import_error(monkeypatch):
    class NoSymbols:
        def __getitem__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: NoSymbols())
    with pytest.raises(ImportError) as err:
        linalg._bind()
    for name in ("scipy_dgetrf_64_", "scipy_dger_", "dstebz_64_", "dsyrk_"):
        assert name in str(err.value)


def test_example_blocks_match_scipy_builders(monkeypatch):
    """The numpy block_diag and toeplitz give scipy's bits, so the example
    families and the bench inputs built from them do not move."""
    rng = np.random.default_rng(10)
    mats = (rng.standard_normal((3, 2)), -np.eye(2), np.zeros((1, 4)))
    assert np.array_equal(experiments._block_diag(*mats), scipy.linalg.block_diag(*mats))
    gen = np.array([1.5, -0.0, 2.0, -3.25])
    assert experiments._toeplitz(gen).tobytes() == scipy.linalg.toeplitz(gen).tobytes()

    def digest(blocks):
        # One family member at a time: example2 at q = 24 holds 0.1 GB.
        return [hashlib.sha256(np.ascontiguousarray(getattr(blocks, name))).hexdigest()
                for name in "ABCDEb"]

    for q in range(2, 25):
        for gen in (experiments.gen_example1, lambda q, seed: experiments.gen_example2(q, seed)[0]):
            got = digest(gen(q, 3))
            with monkeypatch.context() as scipy_builders:
                scipy_builders.setattr(experiments, "_block_diag", scipy.linalg.block_diag)
                scipy_builders.setattr(experiments, "_toeplitz", scipy.linalg.toeplitz)
                assert got == digest(gen(q, 3)), q
