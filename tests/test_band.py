"""The banded LU backend of ``dspp.factorize``: its reverse Cuthill-McKee
ordering, the cost rule that picks it, and agreement with the dense LU.
scipy's ordering is the reference for the bandwidth."""

import numpy as np
import pytest
import scipy.sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from conftest import random_dspp, traced_peak
from dsppcond import dspp, experiments, linalg
from dsppcond.dspp import assemble, factorize, selector, solve_dspp
from dsppcond.errors import SingularMatrix
from dsppcond.experiments import gen_example1, gen_example2, perturb, perturbed_change
from dsppcond.linalg import BandLuSolver, LuSolver
from dsppcond.partial_cn import Factors


def _rel(got, want):
    return np.linalg.norm(got - want) / np.linalg.norm(want)


def _bandwidth(perm, rows, cols):
    at = np.empty_like(perm)
    at[perm] = np.arange(perm.size)
    return int(np.abs(at[rows] - at[cols]).max())


@pytest.mark.parametrize("q", [4, 8, 12, 16])
def test_band_backend_matches_dense(monkeypatch, q):
    # Solutions, L S^-1 rows and refined solution changes agree with the
    # dense LU's to 1e-13 relative. Hager's estimate is a lower end of
    # ||S^-1||_1, so rcond is at least the true reciprocal condition number
    # (up to rounding), and it is within a factor 10 of dgecon's.
    blocks = gen_example1(q, 3)
    band, dense = factorize(blocks), LuSolver(assemble(blocks))
    assert isinstance(band, BandLuSolver) and band.shape == dense.shape
    assert _rel(solve_dspp(blocks, band).w, solve_dspp(blocks, dense).w) <= 1e-13
    assert band.norm_one == pytest.approx(dense.norm_one, rel=1e-15)
    assert band.norm_inf == pytest.approx(dense.norm_inf, rel=1e-15)
    s = assemble(blocks)
    true_rcond = 1.0 / (np.linalg.norm(s, 1) * np.linalg.norm(np.linalg.inv(s), 1))
    assert band.rcond >= true_rcond * (1 - 1e-12)
    assert dense.rcond / 10 <= band.rcond <= 10 * dense.rcond
    band_factors, dense_factors = Factors(blocks), Factors(blocks)
    dense_factors.lu = dense
    for kind in ("full", "y"):
        sel = selector(kind, blocks.n, blocks.m, blocks.p)
        assert _rel(band_factors.rows(sel), dense_factors.rows(sel)) <= 1e-13
    # At s = 1 both fall back to factorizing S + dS, each with its backend.
    sol = solve_dspp(blocks, dense)
    for s_exp in (8, 1):
        pert = perturb(blocks, s_exp, 11)
        got = perturbed_change(blocks, sol, band, pert)
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "factorize", lambda b: LuSolver(assemble(b)))
            want = perturbed_change(blocks, sol, dense, pert)
        assert _rel(got, want) <= 1e-13


def test_band_solves_every_layout_in_chunks(monkeypatch):
    # 1-D and 2-D right-hand sides, C- and Fortran-ordered, transposed or
    # not, overwritten or not; chunks of one column solve the same.
    blocks = gen_example1(4, 5)
    band, dense = factorize(blocks), LuSolver(assemble(blocks))
    rng = np.random.default_rng(2)
    for limit in (1 << 16, 1):
        monkeypatch.setattr(linalg, "_CHUNK_ENTRY_LIMIT", limit)
        for rhs in (rng.standard_normal(blocks.l), rng.standard_normal((blocks.l, 7)),
                    np.asfortranarray(rng.standard_normal((blocks.l, 5)))):
            for transpose in (False, True):
                want = dense.solve(rhs, transpose=transpose)
                got = band.solve(rhs, transpose=transpose)
                assert got.shape == rhs.shape and _rel(got, want) <= 1e-13
                copy = rhs.copy(order="K")
                assert band.solve(copy, transpose=transpose, overwrite=True) is copy
                assert np.array_equal(copy, got)


def test_band_rejects_a_singular_matrix():
    # A zero row is an exactly zero pivot (rcond 0), as in the dense LU.
    blocks = gen_example1(3, 0)  # CSR blocks: explicit zeros in E's and C's first rows
    blocks.E.data[: blocks.E.indptr[1]] = 0.0
    blocks.C.data[: blocks.C.indptr[1]] = 0.0
    with pytest.raises(SingularMatrix, match="rcond estimate 0.000e"):
        factorize(blocks)


def test_perturbed_system_fallback_takes_the_band(monkeypatch):
    # At s = 1 the perturbation is not certified on S's factors, and S + dS,
    # which has S's pattern, is factorized in band storage too.
    blocks = gen_example1(12, 3)
    lu = factorize(blocks)
    sol = solve_dspp(blocks, lu)
    made = []
    monkeypatch.setattr(experiments, "factorize", lambda b: made.append(factorize(b)) or made[-1])
    perturbed_change(blocks, sol, lu, perturb(blocks, 1, 11))
    assert len(made) == 1 and isinstance(made[0], BandLuSolver)


@pytest.mark.parametrize("q", [4, 8, 12, 16, 24, 32])
def test_rcm_is_a_permutation_near_scipys_bandwidth(q):
    blocks = gen_example1(q, 0)
    rows, cols, _ = dspp._entries(blocks)
    del blocks
    l = 4 * q * q
    perm = dspp._rcm(rows, cols, l)
    assert np.array_equal(np.sort(perm), np.arange(l))
    pattern = scipy.sparse.coo_matrix((np.ones(rows.size), (rows, cols)), shape=(l, l)).tocsr()
    reference = reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)
    assert _bandwidth(perm, rows, cols) <= 1.1 * _bandwidth(reference, rows, cols)


def test_rcm_orders_disconnected_components_whole():
    # Two paths, on the even and on the odd nodes (natural bandwidth 2),
    # and an isolated node: each component comes out contiguous, a path
    # with bandwidth 1.
    l = 11
    evens, odds = np.arange(0, 10, 2), np.arange(1, 10, 2)
    rows = np.concatenate([evens[:-1], odds[:-1], np.arange(l)])
    cols = np.concatenate([evens[1:], odds[1:], np.arange(l)])
    perm = dspp._rcm(rows, cols, l)
    assert np.array_equal(np.sort(perm), np.arange(l))
    assert _bandwidth(perm, rows, cols) == 1
    position = {int(node): i for i, node in enumerate(perm)}
    for part in (evens, odds):
        at = sorted(position[int(node)] for node in part)
        assert at == list(range(at[0], at[0] + part.size))


def _stub_backends(monkeypatch):
    """factorize with both backends stubbed: it returns the backend's name
    and the band's bandwidth, and neither assembles nor factors."""
    monkeypatch.setattr(dspp, "assemble", lambda blocks: None)
    monkeypatch.setattr(dspp, "LuSolver", lambda m, overwrite: ("dense", None))
    monkeypatch.setattr(dspp, "BandLuSolver", lambda band, bw, *rest: ("band", bw))


def test_cost_rule_picks_the_band_for_example1_only(monkeypatch):
    _stub_backends(monkeypatch)
    for q, bw in ((4, 18), (8, 34), (12, 50), (16, 66), (24, 98)):
        assert factorize(gen_example1(q, 0)) == ("band", bw)
    for q in (3, 7, 16):
        assert factorize(gen_example2(q, 0)[0]) == ("dense", None)
    rng = np.random.default_rng(3)
    for dims in ((300, 200, 100), (12, 8, 4), (4, 3, 2)):
        assert factorize(random_dspp(rng, *dims)) == ("dense", None)


def test_dense_systems_read_no_pattern():
    # nnz(S) > 32 l, so the rule counts the nonzeros (no allocation) and
    # never reads the pattern: beside the blocks, the dense factorization
    # holds one l x l array and O(l) vectors, as it always did.
    blocks = random_dspp(np.random.default_rng(3), 300, 200, 100)
    l = blocks.l
    assert traced_peak(factorize, blocks) <= l * l * 8 + 16 * l * 8


def test_band_factorization_holds_no_system_sized_array():
    # Beside the blocks, the band factorization holds its (3 bw + 1) x l
    # band storage and index arrays of a few entries per nonzero of S
    # (measured 5.4 doubles per nonzero at q = 16): 2 MB, where the dense
    # LU held l^2 doubles, 8.4 MB.
    factorize(gen_example1(2, 0))  # first-use imports stay out of the trace
    blocks = gen_example1(16, 0)
    l = blocks.l
    nnz = sum(c * np.count_nonzero(getattr(blocks, name)) for c, name in zip((1, 2, 2, 1, 1), "ABCDE"))
    band = factorize(blocks)
    assert traced_peak(factorize, blocks) <= (3 * band._bw + 1) * l * 8 + 8 * nnz * 8 < l * l * 8
