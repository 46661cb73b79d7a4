"""Dense kernel tests, mostly against small hand-computed values, plus the
unvec helper and the dense top eigenpair that tests take from ``oracles``.
The LAPACK and BLAS binding is checked against scipy's wrappers of the
same routines."""

import hashlib
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import rel_err, traced_peak
import oracles
from dsppcond import linalg
from dsppcond.dspp import factorize, selector
from dsppcond.errors import DimensionMismatch, SingularMatrix, UncertifiedBound
from dsppcond import experiments
from dsppcond.experiments import gen_example1
from dsppcond.linalg import LuSolver, as_matrix, as_vector, ddagger, top_eig
from dsppcond.partial_cn import SolvedSystem, ncn_upper


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
    assert 4.0 <= linalg._norm_upper(tall)[0] <= 4.0 * (1 + 1e-12)


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
        assert want <= linalg._norm_upper(m)[0] <= want * (1 + 1e-12)


def test_top_eig_clamps_and_symmetrizes():
    lam, v = oracles.top_eig(np.array([[-1e-20, 0.0], [0.0, -2.0]]))
    assert lam == 0.0 and abs(abs(v[0]) - 1.0) < 1e-15
    lam, v = oracles.top_eig(np.array([[2.0, 3.0], [1.0, 2.0]]))
    assert abs(lam - 4.0) < 1e-14
    assert np.allclose(np.abs(v), np.sqrt([0.5, 0.5]), rtol=0, atol=1e-14)


def test_norm_upper_continues_the_run_then_raises(monkeypatch):
    m = np.array([[3.0, 0.0], [0.0, 4.0], [0.0, 0.0]])
    assert 4.0 <= linalg._norm_upper(m)[0] <= 4.0 * (1 + 1e-12)
    assert linalg._norm_upper(np.zeros((2, 3))) == [0.0]
    real = linalg._lanczos

    def low_first(apply, k):
        yield 0.0, None  # far below lam_max: the Cholesky test fails
        yield from real(apply, k)

    monkeypatch.setattr(linalg, "_lanczos", low_first)
    assert 4.0 <= linalg._norm_upper(m)[0] <= 4.0 * (1 + 1e-12)
    monkeypatch.setattr(linalg, "_lanczos", lambda apply, k: iter([(0.0, None)]))
    with pytest.raises(UncertifiedBound):
        linalg._norm_upper(m)


def test_failed_cholesky_restores_the_gram_bitwise(monkeypatch):
    """Half the first Ritz value fails the first Cholesky, which overwrites
    the lower triangle and diagonal of the k x k Gram. The bound must then
    come out bitwise unpatched, from a second Lanczos run on the restored
    Gram: only a bitwise-restored Gram gives that run's steps. k = 300 spans
    three triangle blocks and three panels, the last of each partial; the
    Gram lies in a private copy of M, then in M itself, handed over, with
    leading dimension 420."""
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
    handed = m.copy()
    assert linalg._norm_upper(handed, overwrite=True) == want
    assert len(calls) == 4 and not np.array_equal(handed, m)


def test_blocked_restore_is_the_plain_copy(monkeypatch):
    """The restores copy the Gram's upper triangle into its lower one by
    128 x 128 blocks: bitwise the one transposing copy per tile row. With a
    failing first Cholesky test each range restores at least once; the
    ends, and the Gram left in M handed over, are bitwise those of the plain
    copy. k = 300 and n = 1024 (a power-of-two row stride, where the plain
    copy was slow) cut the tiles into partial blocks."""
    rng = np.random.default_rng(14)
    for k, n in ((300, 420), (300, 1024)):
        src = rng.standard_normal((k, n))
        dst = np.empty((n, k))
        linalg._copy_transposed(dst, src)
        assert dst.tobytes() == src.T.copy().tobytes()
    m = rng.standard_normal((300, 1024))
    ranges = [(0, 300), (0, 128), (130, 300)]
    real = linalg._lanczos

    def half_first(apply, k):
        theta, u = next(real(apply, k))
        yield theta / 2.0, u
        yield from real(apply, k)

    monkeypatch.setattr(linalg, "_lanczos", half_first)
    runs = []
    for copy in (linalg._copy_transposed, lambda dst, src: dst.__setitem__(Ellipsis, src.T)):
        monkeypatch.setattr(linalg, "_copy_transposed", copy)
        handed = m.copy()
        runs.append((linalg._norm_upper(handed, ranges, overwrite=True), handed.tobytes()))
    assert runs[0] == runs[1]


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


def test_dgemm_binding_writes_a_block_at_its_leading_dimension():
    """dgemm("T", "N") with beta = 0 on C-ordered arrays of leading
    dimension w writes T[:lo] P^T, transposed, over t[lo:lo + h, :lo], as
    _norm_upper's panels do, and leaves the rest of t alone."""
    rng = np.random.default_rng(13)
    k, w, lo = 9, 11, 5
    t, panel = rng.standard_normal((k, w)), rng.standard_normal((k - lo, w))
    start = t.copy()
    linalg._call("dgemm", "T", "N", lo, k - lo, w, 1.0, t, w, panel, w, 0.0, t[lo:], w)
    assert _norm_rel(t[lo:, :lo], panel @ start[:lo].T) <= 1e-13
    t[lo:, :lo] = start[lo:, :lo]
    assert np.array_equal(t, start)


def test_ncn_upper_leaves_the_rows_unchanged():
    """The public bound keeps its input: its Gram lies in a private copy,
    and a SolvedSystem's L S^-1 stays bitwise the same and read-only."""
    blocks = gen_example1(4, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    before = system.rows.tobytes()
    first = ncn_upper(system, 1.0, 1.0).value
    assert system.rows.tobytes() == before and not system.rows.flags.writeable
    assert ncn_upper(system, 1.0, 1.0).value == first


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


def test_finiteness_checks_make_no_full_size_mask():
    m = np.arange(1.0, 1.0 + 600 * 600).reshape(600, 600)
    assert traced_peak(as_matrix, m) <= 4096  # a mask would take 360 000 bytes
    for order in ("C", "F"):
        for bad in (np.nan, np.inf, -np.inf):
            for at in ((0, 0), (299, 411), (599, 599)):
                a = np.array(m, order=order)
                a[at] = bad
                with pytest.raises(ValueError, match="non-finite"):
                    as_matrix(a, "S")
                with pytest.raises(ValueError, match="non-finite"):
                    as_vector(a[at[0]], "b")
    assert as_matrix(np.full((2, 3), np.finfo(float).max)).shape == (2, 3)
    assert as_vector(np.array([-np.finfo(float).max, 0.0])).size == 2


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
    # S is assembled in Fortran order, -D written into it with no m x m
    # temporary, and factored in place: beside the blocks, the dense
    # factorization peaks at one l x l array and O(l) vectors. example2
    # takes the dense LU (example1 the band one); at q = 8 (l = 528,
    # m = 128) a -D temporary would add 131 072 bytes.
    blocks = experiments.gen_example2(8, 0)[0]
    l = blocks.l
    assert traced_peak(factorize, blocks) <= l * l * 8 + 16 * l * 8


@pytest.mark.parametrize("n", [1, 40, 128, 300])
def test_inverse_binding_matches_scipy_in_place(n):
    # dgetri forms M^-1 in the factors' own array, which the tile swaps
    # (300 = 2 * 128 + 44: full, edge and corner tiles) turn into M^-T in
    # Fortran order; scipy's dgetri on the same factors gives M^-1.
    rng = np.random.default_rng(n)
    m = rng.standard_normal((n, n))
    lu = LuSolver(m)
    factors, piv = lu._lu.copy(), lu._piv - 1
    storage = lu._lu
    inv_t = lu.inverse_transpose()
    assert inv_t is storage and inv_t.flags.f_contiguous
    want, info = scipy.linalg.lapack.dgetri(factors, piv)
    assert info == 0
    assert _norm_rel(inv_t.T, want) <= 1e-13
    assert _norm_rel(inv_t.T @ m, np.eye(n)) <= 1e-12
    with pytest.raises(TypeError):
        lu.solve(np.ones(n))  # the factors are gone


@pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
def test_tile_transpose_is_the_transpose(n):
    a = np.random.default_rng(n).standard_normal((n, n))
    for b in (a.copy(), np.asfortranarray(a)):
        linalg._transpose_in_place(b)
        assert np.array_equal(b, a.T)


def test_inverse_rejects_a_zero_pivot():
    # dgetri reports an exactly zero diagonal entry of U (info > 0), as
    # scipy's does, and the factors are not used again.
    lu = LuSolver(np.eye(4) + np.triu(np.ones((4, 4)), 1))
    lu._lu[2, 2] = 0.0
    assert scipy.linalg.lapack.dgetri(lu._lu.copy(), lu._piv - 1)[1] == 3
    with pytest.raises(SingularMatrix, match="zero pivot"):
        lu.inverse_transpose()
    assert lu._lu is None


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
    """The top pair of a Lanczos tridiagonal matches scipy's, the
    eigenvector up to sign."""
    rng = np.random.default_rng(7)
    for n in (1, 2, 5, 30):
        d, e = rng.standard_normal(n), rng.standard_normal(n - 1)
        lam, s = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(n - 1, n - 1))
        theta, z = linalg._tridiagonal_top(d, e)
        assert rel_err(theta, lam[0]) <= 1e-13
        assert min(_norm_rel(z, s[:, 0]), _norm_rel(-z, s[:, 0])) <= 1e-13


def test_strided_rank_one_update_matches_scipy_dger():
    rng = np.random.default_rng(9)
    base = rng.standard_normal((7, 4))
    xs = base.T[:, ::2]  # columns with element stride 4
    y = rng.standard_normal(6)
    a = np.asfortranarray(rng.standard_normal((4, 6)))
    want = scipy.linalg.blas.dger(1.0, xs[:, 2], y[:5], a=a[:, :5].copy(order="F"))
    update = linalg.RankOneUpdate(a, xs, y)
    untouched = a[:, 5].copy()
    update.update(2, 0, 5)
    assert _norm_rel(a[:, :5], want) <= 1e-13
    assert np.array_equal(a[:, 5], untouched)
    with pytest.raises(IndexError):
        update.update(4, 0, 5)
    with pytest.raises(IndexError):
        update.update(0, 0, 7)


def test_rank_one_update_of_a_column_range():
    # update(r, lo, hi) updates the buffer columns lo:hi with y[lo:hi] and
    # leaves the others as they are.
    rng = np.random.default_rng(10)
    xs, y = rng.standard_normal((4, 3)), rng.standard_normal(6)
    a = np.asfortranarray(rng.standard_normal((4, 6)))
    before = a.copy()
    linalg.RankOneUpdate(a, xs, y).update(1, 2, 5)
    want = scipy.linalg.blas.dger(1.0, xs[:, 1], y[2:5], a=before[:, 2:5].copy(order="F"))
    assert _norm_rel(a[:, 2:5], want) <= 1e-13
    assert np.array_equal(a[:, :2], before[:, :2]) and np.array_equal(a[:, 5:], before[:, 5:])
    with pytest.raises(IndexError):
        linalg.RankOneUpdate(a, xs, y).update(0, 4, 3)


def test_missing_lapack_symbols_raise_import_error(monkeypatch):
    class NoSymbols:
        def __getitem__(self, name):
            raise AttributeError(name)

    monkeypatch.setattr(linalg.ctypes, "CDLL", lambda path: NoSymbols())
    with pytest.raises(ImportError) as err:
        linalg._bind()
    for name in ("scipy_dgetrf_64_", "scipy_dger_", "dgbtrf_64_", "dsyrk_"):
        assert name in str(err.value)


def test_example_blocks_match_scipy_builders(monkeypatch):
    """The numpy toeplitz gives scipy's bits, and example1's CSR blocks hold
    the values of scipy.sparse's Kronecker builders, so the example families
    and the bench inputs built from them do not move. example2's A is the
    block diagonal of its kernel block and a diagonal."""
    gen = np.array([1.5, -0.0, 2.0, -3.25])
    assert experiments._toeplitz(gen).tobytes() == scipy.linalg.toeplitz(gen).tobytes()

    def digest(blocks):
        # One family member at a time: example2 at q = 24 holds 0.1 GB.
        return [hashlib.sha256(np.ascontiguousarray(getattr(blocks, name))).hexdigest()
                for name in "ABCDEb"]

    sp = scipy.sparse
    for q in range(2, 25):
        blocks = experiments.gen_example2(q, 3)[0]
        qh = q * (q + 1)
        assert np.array_equal(blocks.A, scipy.linalg.block_diag(blocks.A[:qh, :qh], np.diag(np.diag(blocks.A)[qh:])))
        got = digest(blocks)
        with monkeypatch.context() as scipy_builders:
            scipy_builders.setattr(experiments, "_toeplitz", scipy.linalg.toeplitz)
            assert got == digest(experiments.gen_example2(q, 3)[0]), q
        eye = sp.identity(q)
        j = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(q, q)) / (q + 1) ** 2
        z = sp.diags([1.0, -1.0], [0, 1], shape=(q, q)) / (q + 1)
        lap = sp.kron(eye, j) + sp.kron(j, eye)
        want = (sp.block_diag((lap, lap)), sp.hstack([sp.kron(eye, z), sp.kron(z, eye)]),
                sp.kron(sp.diags(1.0 + q * np.arange(q)), z), sp.identity(q * q), sp.identity(q * q))
        blocks = experiments.gen_example1(q, 3)
        for name, mat in zip("ABCDE", want):
            assert np.array_equal(np.asarray(getattr(blocks, name)), mat.toarray()), (q, name)


def _splitmix64(seed, count):
    """The first ``count`` outputs of splitmix64 from ``seed``, in Python ints."""
    mask, out = (1 << 64) - 1, []
    for i in range(1, count + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


def test_lanczos_start_vector_is_fixed_splitmix64():
    k = 257
    v = linalg._start_vector(k)
    assert np.array_equal(v, linalg._start_vector(k))
    assert abs(np.linalg.norm(v) - 1.0) <= 4 * np.finfo(float).eps
    # Odd multiples of 2^-52 in (-1, 1) from the top 52 bits, then normalized.
    raw = np.array([(2 * (z >> 12) + 1) * 2.0**-52 - 1.0
                    for z in _splitmix64(linalg._LANCZOS_SEED, k)])
    assert _splitmix64(0, 1) == [0xE220A8397B1DCDAF]  # the published first output
    assert np.array_equal(v, raw / np.linalg.norm(raw))
    assert np.all(v != 0)
    # Built, and a top eigenvalue found, without loading numpy.random.
    script = ("import sys, numpy as np; from dsppcond.linalg import top_eig; "
              "top_eig(np.diag(np.arange(1.0, 40.0)).__matmul__, 39); "
              "print('numpy.random' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.split() == ["False"], proc.stderr


def _gram_with_top(vector, lams):
    """The symmetric matrix with eigenvalues ``lams`` (the first the largest)
    whose first eigenvector is ``vector``."""
    k = vector.size
    basis = np.random.default_rng(9).standard_normal((k, k))
    basis[:, 0] = vector
    q, _ = np.linalg.qr(basis)
    return (q * lams) @ q.T


@pytest.mark.parametrize("case", ["last_unit_vector", "alternating", "repeated"])
def test_top_eig_from_the_fixed_start_on_adversarial_spectra(case):
    # Each case defeats some fixed start: a start with a zero last entry
    # misses e_k, the all-ones start is orthogonal to the alternating top
    # eigenvector, and a repeated top eigenvalue has no unique eigenvector.
    k = 60
    if case == "last_unit_vector":
        g = np.diag(np.arange(1.0, k + 1.0))
    elif case == "alternating":
        g = _gram_with_top((-1.0) ** np.arange(k), np.linspace(3.0, 0.0, k))
    else:
        g = _gram_with_top(np.ones(k), np.r_[3.0, 3.0, 3.0, np.linspace(2.0, 0.0, k - 3)])
    g = (g + g.T) / 2
    lam, u = top_eig(g.__matmul__, k)
    want = np.linalg.eigvalsh(g)[-1]
    assert rel_err(lam, want) <= 1e-13
    assert np.linalg.norm(g @ u - lam * u) <= 1e-12 * want
