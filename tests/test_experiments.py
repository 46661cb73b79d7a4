"""Experiment harness: generators, perturbations, measurements, reports."""

import contextlib
import io
import itertools
import json
import multiprocessing
import os
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import traced_peak
import oracles
from oracles import first_order_residual
from dsppcond import dspp, experiments, linalg, partial_cn
from dsppcond.dspp import DsppBlocks, Solution, selector
from dsppcond.errors import IncompatibleZeroPattern, SingularMatrix, ZeroXi
from dsppcond.partial_cn import DOMINANCE_RTOL, Factors
from dsppcond.experiments import (
    CSV_COLUMNS,
    CSV_STRUCTURED_COLUMNS,
    DEFAULT_SELECTORS,
    FAMILIES,
    RNG_ALGORITHM,
    ExperimentRow,
    PerturbationSet,
    _row_seeds,
    apply_perturbation,
    epsilons,
    format_float,
    forward_errors,
    gen_example1,
    gen_example2,
    perturb,
    perturbed_change,
    report_meta,
    rows_to_dicts,
    run_experiment,
    write_csv_report,
    write_json_report,
)


def test_module_constants():
    assert FAMILIES == ("example1", "example2")
    assert DEFAULT_SELECTORS == ("full", "x", "y", "z")
    assert RNG_ALGORITHM == "numpy-pcg64+standard_normal"
    assert format_float(1.0) == "1.000000000E+00"
    assert format_float(-0.5) == "-5.000000000E-01"


def test_gen_example1_frozen_values():
    blocks = gen_example1(2, 7)
    assert (blocks.n, blocks.m, blocks.p) == (8, 4, 4)
    assert all(isinstance(getattr(blocks, name), dspp.CsrMatrix) for name in "ABCDE")
    a, b, c = (np.asarray(mat) for mat in (blocks.A, blocks.B, blocks.C))
    # 2-D Laplacian scaled by (q+1)^2 = 9, two copies on the diagonal.
    assert a[0, 0] == 4.0 / 9.0
    assert a[0, 1] == -1.0 / 9.0
    assert a[0, 2] == -1.0 / 9.0
    assert a[0, 3] == 0.0
    assert np.array_equal(a[:4, :4], a[4:, 4:])
    assert np.array_equal(a[:4, 4:], np.zeros((4, 4)))
    # One-sided differences scaled by q+1 = 3 in both kron orders.
    assert b[0, 0] == 1.0 / 3.0
    assert b[0, 1] == -1.0 / 3.0
    assert b[0, 4] == 1.0 / 3.0
    assert b[0, 6] == -1.0 / 3.0
    # C = diag(1, q+1) kron Z.
    assert c[0, 0] == 1.0 / 3.0
    assert c[0, 1] == -1.0 / 3.0
    assert c[2, 2] == 1.0
    assert c[2, 3] == -1.0
    assert np.array_equal(blocks.D, np.eye(4))
    assert np.array_equal(blocks.E, np.eye(4))
    want_b = np.random.Generator(np.random.PCG64(7)).standard_normal(16)
    assert np.array_equal(blocks.b, want_b)


def test_gen_example2_frozen_values():
    blocks, triple = gen_example2(2, 11)
    assert (blocks.n, blocks.m, blocks.p) == (22, 8, 6)
    # Kernel Gram corner, checked against a scalar re-derivation.
    want = 1.0
    for k in range(1, 7):
        want += 2.0 * np.exp(-2.0 * ((1 / 3.0) ** 2 + (k / 3.0) ** 2)) ** 2
    assert abs(blocks.A[0, 0] - want) < 1e-15
    # Polynomial diagonal tails.
    assert blocks.A[6, 6] == 1.0
    assert blocks.A[10, 10] == 1e-5
    assert blocks.A[13, 13] == 16e-5
    assert blocks.A[14, 14] == 25e-5
    assert blocks.A[21, 21] == 144e-5
    # Difference stack, then -I and +I column blocks.
    assert blocks.B[0, 0] == 2.0
    assert blocks.B[0, 2] == -1.0
    assert blocks.B[4, 0] == 2.0
    assert np.array_equal(blocks.B[:, 6:14], -np.eye(8))
    assert np.array_equal(blocks.B[:, 14:22], np.eye(8))
    # Alternating-sign interpolation blocks, unit last row.
    assert blocks.C[0, 0] == 3.0
    assert blocks.C[0, 2] == -0.5
    assert blocks.C[0, 4] == 3.0
    assert blocks.C[4, 2] == 1.0
    assert blocks.C[4, 0] == 0.0
    # D, E, b come off one stream in that order.
    rng = np.random.Generator(np.random.PCG64(11))
    dgen = rng.standard_normal(8)
    egen = rng.standard_normal(6)
    rhs = rng.standard_normal(36)
    assert np.array_equal(blocks.D[:, 0], dgen)
    assert np.array_equal(blocks.D, blocks.D.T)
    assert blocks.D[0, 3] == dgen[3] and blocks.D[2, 5] == dgen[3]
    assert np.array_equal(blocks.E[:, 0], egen)
    assert np.array_equal(blocks.E, blocks.E.T)
    assert np.array_equal(blocks.b, rhs)
    assert triple == ("symmetric", "toeplitz_sym", "toeplitz_sym")


def test_generators_reject_bad_arguments():
    with pytest.raises(ValueError):
        gen_example1(1, 0)
    with pytest.raises(ValueError):
        gen_example2(1, 0)
    with pytest.raises(ValueError):
        gen_example1(2, -1)


def assert_delta_is(delta, want, base):
    """A delta bitwise the dense ``want``: C-ordered for an ndarray block,
    and for a CSR block its values at the block's stored entries, on the
    block's own index arrays."""
    if isinstance(base, dspp.CsrMatrix):
        assert isinstance(delta, dspp.CsrMatrix) and delta.shape == want.shape
        assert delta.indices is base.indices and delta.indptr is base.indptr
        assert delta.data.tobytes() == want[base.row_ids, base.indices].tobytes()
        assert np.array_equal(np.asarray(delta), want)  # zero elsewhere
    else:
        assert delta.flags.c_contiguous
        assert delta.shape == want.shape and delta.tobytes() == want.tobytes()


def test_perturb_reproduces_stream_and_keeps_zeros():
    """perturb scales each draw in place, and every delta is still
    10^-s * g * X bit for bit: zero data entries stay zero, with the sign
    each takes from g (a CSR block's delta stores none of them)."""
    cases = [
        (gen_example1(2, 3), 6, 11), (gen_example1(3, 1), 8, 0), (gen_example1(4, 1), 1, 11),
        (gen_example2(2, 1)[0], 6, 3), (gen_example2(3, 1)[0], 3, 29),
    ]
    for blocks, s, seed in cases:
        pert = perturb(blocks, s, seed)
        assert pert.s == s
        rng = np.random.Generator(np.random.PCG64(seed))
        signed_zeros = 0
        for delta, base in zip(pert.deltas, (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)):
            want = 10.0 ** (-s) * rng.standard_normal(base.size).reshape(base.shape, order="F") * base
            assert_delta_is(delta, want, base)
            if isinstance(base, np.ndarray):
                assert np.all(delta[base == 0.0] == 0.0)
                signed_zeros += int(np.signbit(delta[base == 0.0]).sum())
        assert signed_zeros > 0 or isinstance(blocks.A, dspp.CsrMatrix)
    with pytest.raises(ValueError):
        perturb(blocks, 0, 11)


@pytest.mark.parametrize("limit", [7, 200, linalg._CHUNK_ENTRY_LIMIT])
@pytest.mark.parametrize("blocks", [gen_example1(6, 3), gen_example2(3, 3)[0]], ids=["example1", "example2"])
def test_perturb_chunked_draws_equal_one_draw(monkeypatch, limit, blocks):
    """Each block's stream drawn in column chunks (of one column when the
    limit is 7, of a few with a shorter last one at 200) is bitwise the
    one-draw-per-block stream, and every delta is C-ordered like its
    block, or held on a CSR block's index arrays."""
    monkeypatch.setattr(experiments, "_CHUNK_ENTRY_LIMIT", limit)
    pert = perturb(blocks, 8, 11)
    data = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    for delta, want, base in zip(pert.deltas, oracles.perturb_one_draw(blocks, 8, 11), data):
        assert_delta_is(delta, want, base)


def _solved(family, q):
    blocks = gen_example1(q, 3) if family == "example1" else gen_example2(q, 3)[0]
    lu = dspp.factorize(blocks)
    return blocks, dspp.solve_dspp(blocks, lu), lu


def _within_eps_kappa(dw, blocks, sol, lu, pert):
    """dw is within eps kappa (kappa = 1 / rcond of S) of the increment
    oracle (S + dS)^-1 (db - dS w), relative."""
    exact = oracles.perturbed_increment(blocks, sol, pert)
    eps_kappa = np.finfo(float).eps / lu.rcond
    return np.linalg.norm(dw - exact) <= eps_kappa * np.linalg.norm(exact)


@pytest.mark.parametrize("family, q", [
    ("example1", 4), ("example1", 8), ("example1", 12), ("example2", 3), ("example2", 5),
    ("example2", 7),
])
def test_perturbed_change_matches_the_lu_resolve(monkeypatch, family, q):
    """The refined solution change against the oracle that factorizes
    S + dS and subtracts. The oracle's w~ is off by about eps kappa ||w||
    (kappa = 1 / rcond, the 1-norm condition estimate), which w~ - w keeps,
    and ||dw|| is about 10^-s ||w||, so the two agree to 10^s eps kappa
    relative. At s = 8 every perturbation is certified and refined on S's
    factors; at s = 2 none is, and S + dS is factorized (so is example2
    q = 7's at s = 6). Either way the change solves (S + dS) dw = db - dS w
    with no cancellation, so it agrees with the increment oracle to eps
    kappa, where the subtraction was off by up to 9.2 eps kappa (example1
    q = 8, s = 4)."""
    blocks, sol, lu = _solved(family, q)
    calls = _count_factorizations(monkeypatch)
    eps_kappa = np.finfo(float).eps / lu.rcond
    for s in (2, 4, 6, 8):
        pert = perturb(blocks, s, 11)
        before = len(calls)
        dw = perturbed_change(blocks, sol, lu, pert)
        if s in (2, 8):
            assert len(calls) - before == (1 if s == 2 else 0)
        want = oracles.perturbed_resolve(blocks, pert)
        assert np.linalg.norm(dw - want) <= 10.0**s * eps_kappa * np.linalg.norm(want)
        assert _within_eps_kappa(dw, blocks, sol, lu, pert)


@pytest.mark.parametrize("family, q", [("example1", 12), ("example2", 7)])
def test_uncertified_perturbation_falls_back_to_the_lu_resolve(monkeypatch, family, q):
    """At s = 1 the perturbation is far from certified on these systems
    (||dS||_1 / (rcond ||S||_1) is 6.3e3 and 1.7e5): S + dS is factorized
    once, with no solve on S's factors, and the change refined on it is
    within eps kappa of the increment oracle. A row's r_k, r_m, r_c are the
    forward errors of that change bit for bit."""
    blocks, sol, lu = _solved(family, q)
    pert = perturb(blocks, 1, 11)
    calls = _count_factorizations(monkeypatch)
    monkeypatch.setattr(lu, "solve", lambda *args: pytest.fail("refined an uncertified change on S"))
    dw = perturbed_change(blocks, sol, lu, pert)
    assert len(calls) == 1
    assert _within_eps_kappa(dw, blocks, sol, lu, pert)
    gen_seed, pert_seed = _row_seeds(5, q, 2)
    (row,) = experiments._single_thread_task(family, q, ((2, "y"),), 1, 5, False)
    blocks, _ = experiments._family_system(family, q, gen_seed, None)
    pert = perturb(blocks, 1, pert_seed)
    sel = selector("y", blocks.n, blocks.m, blocks.p)
    # Rows run BLAS on one thread, so the check does too.
    with linalg._blas_single_thread():
        lu = dspp.factorize(blocks)
        sol = dspp.solve_dspp(blocks, lu)
        errors = forward_errors(sol, perturbed_change(blocks, sol, lu, pert), sel)
    assert (row.r_k, row.r_m, row.r_c) == errors


def test_refined_change_passes_the_solve_residual_test(monkeypatch):
    """An accepted w~ = w + dw passes solve_dspp's residual test on the
    assembled perturbed system. With a lower end of ||S + dS||_inf that no
    residual passes, the attempt on S's factors is rejected, and the change
    is refined on one factorization of S + dS, whose own ||.||_inf its test
    takes."""
    blocks, sol, lu = _solved("example1", 8)
    pert = perturb(blocks, 8, 11)
    w_tilde = sol.w + perturbed_change(blocks, sol, lu, pert)
    tilde = experiments.apply_perturbation(blocks, pert)
    s_tilde = dspp.assemble(tilde)
    resid = np.linalg.norm(tilde.b - s_tilde @ w_tilde)
    norm_inf = np.linalg.norm(s_tilde, np.inf)
    assert resid <= dspp.RESIDUAL_RTOL * (norm_inf * np.linalg.norm(w_tilde) + np.linalg.norm(tilde.b))
    monkeypatch.setattr(lu, "norm_inf", -np.inf)
    solves, solve = [], lu.solve
    monkeypatch.setattr(lu, "solve", lambda rhs: solves.append(rhs) or solve(rhs))
    calls = _count_factorizations(monkeypatch)
    dw = perturbed_change(blocks, sol, lu, pert)
    assert solves and len(calls) == 1
    assert _within_eps_kappa(dw, blocks, sol, lu, pert)


def test_singular_perturbed_system_raises(monkeypatch):
    """A perturbation that makes S + dS singular fails the certificate, and
    factorizing S + dS raises SingularMatrix, from the helper and the task."""
    blocks = DsppBlocks(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[3.0]], E=[[1.0]], b=[1.0, 1.0, 1.0])
    zero = np.zeros((1, 1))
    pert = PerturbationSet(
        dA=zero, dB=zero, dC=-blocks.C, dD=zero, dE=-blocks.E, db=np.zeros(3), s=1
    )
    lu = dspp.factorize(blocks)
    with pytest.raises(SingularMatrix):
        perturbed_change(blocks, dspp.solve_dspp(blocks, lu), lu, pert)
    monkeypatch.setattr(experiments, "perturb", lambda *args: pert)
    monkeypatch.setattr(experiments, "_family_system", lambda *args: (blocks, None))
    with pytest.raises(SingularMatrix):
        experiments._system_rows("example1", 1, ((0, "full"),), 1, 0, False)


@pytest.mark.parametrize("family, s, lus", [("example1", 8, 1), ("example1", 1, 5), ("example2", 1, 8)])
def test_no_factorization_lives_while_numbers_run(monkeypatch, family, s, lus):
    """A task measures every row of a system, forms their L S^-1, and
    releases S's LU before the first number, then computes every number
    that reads the data blocks, and releases them before the first 2-norm
    bound: no factorization made in the task, S's or (at s = 1, where every
    row falls back to it) that of S + dS, and no data block is alive while
    the bounds run. example1's rows share one system's LU, a band one;
    example2's rows each make and release their own, dense."""
    made, blocks_made, seen = [], [], []
    for cls in (linalg.LuSolver, linalg.BandLuSolver):
        def recorded(self, *args, init=cls.__init__, **kw):
            init(self, *args, **kw)
            made.append(weakref.ref(self))

        monkeypatch.setattr(cls, "__init__", recorded)
    family_system = experiments._family_system

    def recorded_blocks(*args):
        blocks, triple = family_system(*args)
        blocks_made.extend(weakref.ref(a) for a in (blocks, blocks.A, blocks.B, blocks.C, blocks.D,
                                                      blocks.E, blocks.b))
        return blocks, triple

    def checked(*args, **kwargs):
        seen.append(([ref() for ref in made if ref() is not None],
                     [ref() for ref in blocks_made if ref() is not None]))
        return linalg._norm_upper(*args, **kwargs)

    monkeypatch.setattr(experiments, "_family_system", recorded_blocks)
    monkeypatch.setattr(experiments, "_norm_upper", checked)
    # example1's four rows share one system and its full row's Gram;
    # example2's are a system and a Gram each.
    members = tuple(enumerate(DEFAULT_SELECTORS))
    systems = [members] if family == "example1" else [(row,) for row in members]
    rows = [row for system in systems for row in experiments._system_rows(family, 3, system, s, 5, False)]
    assert len(rows) == 4 and len(seen) == len(systems) and len(made) == lus
    assert len(blocks_made) == 7 * 4
    assert seen == [([], [])] * len(systems)
    backend = linalg.BandLuSolver if family == "example1" else linalg.LuSolver
    assert type(dspp.factorize(experiments._family_system(family, 3, 0, None)[0])) is backend


def test_example1_task_memory_budget():
    # The q = 16 four-selector task (l = 1024): its blocks and their
    # perturbations are CSR, its S is factored in band storage, and the
    # bounds run on one Gram formed in L S^-1's l x l buffer itself, the full
    # row's, whose diagonal blocks certify the x, y and z rows. The peak is
    # the max-norm numbers beside the buffer: 1.38 l^2 traced, against
    # 1.94 l^2 with the dense blocks (0.56 l^2) beside them, 2.08 l^2 with the
    # full row's l x l Gram beside the buffer and 2.64 l^2 with a dense LU
    # and the bounds beside the blocks. A warm-up task keeps first-use
    # imports out of the trace.
    rows = tuple(enumerate(DEFAULT_SELECTORS))
    experiments._system_rows("example1", 2, rows, 8, 3, False)
    l = 1024
    peak = traced_peak(experiments._system_rows, "example1", 16, rows, 8, 3, False)
    assert peak <= 1.45 * l * l * 8


def test_experiment_tasks_never_densify_csr_blocks(monkeypatch):
    # Every stage of a task reads example1's CSR blocks through dspp's block
    # operations alone: with densifying refused, the q = 16 four-selector
    # task and a structured experiment run through and give the same rows.
    rows = tuple(enumerate(DEFAULT_SELECTORS))
    want = experiments._system_rows("example1", 16, rows, 8, 3, False)
    want_structured = run_experiment("example1", [4], structured=True)

    def refuse(self, *args, **kwargs):
        raise AssertionError("a CSR block was densified")

    monkeypatch.setattr(dspp.CsrMatrix, "__array__", refuse)
    with pytest.raises(AssertionError, match="densified"):
        np.asarray(gen_example1(2, 0).A)
    assert experiments._system_rows("example1", 16, rows, 8, 3, False) == want
    assert run_experiment("example1", [4], structured=True) == want_structured


def test_example1_bounds_memory_budget(monkeypatch):
    # From the Gram on, the q = 16 four-selector task holds L S^-1's buffer,
    # the Gram formed in it, beside one 128-row panel (l^2 / 8), then the
    # Lanczos run of one range at a time: 1.13 l^2 traced, against 1.63 l^2
    # when each row formed its own Gram and x, y and z copied their rows.
    rows = tuple(enumerate(DEFAULT_SELECTORS))
    experiments._system_rows("example1", 2, rows, 8, 3, False)

    def reset(*args, **kwargs):
        tracemalloc.reset_peak()
        return linalg._norm_upper(*args, **kwargs)

    monkeypatch.setattr(experiments, "_norm_upper", reset)
    l = 1024
    peak = traced_peak(experiments._system_rows, "example1", 16, rows, 8, 3, False)
    assert peak <= 1.2 * l * l * 8


@pytest.mark.parametrize("selectors, grams", [
    (DEFAULT_SELECTORS, [36]), (("y", "z"), [9, 9]), (("x", "z"), [18, 9]), (("z", "full", "y"), [36]),
])
def test_one_gram_per_maximal_range(monkeypatch, selectors, grams):
    # Each row's bound is certified on the Gram of the widest range of its
    # task that holds it, formed in that range's rows, handed over: at
    # q = 3 (n = 18, m = p = 9) one Gram of 36 rows when the full row is
    # there, one per part otherwise. Rows come back in the selectors' order
    # and equal an unpatched run's.
    made = []

    def recorded(rows, ranges=None, overwrite=False):
        made.append((rows.shape[0], overwrite))
        return linalg._norm_upper(rows, ranges, overwrite)

    members = tuple(enumerate(selectors))
    want = experiments._system_rows("example1", 3, members, 8, 5, False)
    monkeypatch.setattr(experiments, "_norm_upper", recorded)
    assert experiments._system_rows("example1", 3, members, 8, 5, False) == want
    assert [row.selector for row in want] == list(selectors)
    assert made == [(k, True) for k in grams]


@pytest.mark.parametrize("selectors, grams", [
    (DEFAULT_SELECTORS, [[36], [16]]), (("y", "z"), [[9], [9], [4], [4]]),
    (("x", "y", "z"), [[18], [9, 9], [8], [4, 4]]),
])
def test_a_split_keeps_each_maximal_range_in_one_task(monkeypatch, selectors, grams):
    # _task_counts asks for two tasks per system (l = 36, then 16). A system
    # with a full row stays one task, whose one Gram certifies every row, so
    # no row's bound depends on the worker count; without one, each task
    # forms one Gram per maximal range it holds. The rows equal the unsplit
    # run's.
    want = run_experiment("example1", [2, 3], s=6, seed=5, selectors=selectors)
    made, system_rows = [], experiments._system_rows

    def task(*args):
        made.append([])
        return system_rows(*args)

    def recorded(rows, ranges=None, overwrite=False):
        made[-1].append(rows.shape[0])
        return linalg._norm_upper(rows, ranges, overwrite)

    monkeypatch.setattr(experiments, "_pool_workers", lambda sizes, family: 1)
    monkeypatch.setattr(experiments, "_task_counts", lambda sizes, rows, workers: [2] * len(sizes))
    monkeypatch.setattr(experiments, "_system_rows", task)
    monkeypatch.setattr(experiments, "_norm_upper", recorded)
    assert run_experiment("example1", [2, 3], s=6, seed=5, selectors=selectors) == want
    assert made == grams


def test_apply_perturbation_adds_each_delta():
    blocks = gen_example1(2, 3)
    pert = perturb(blocks, 4, 5)
    tilde = apply_perturbation(blocks, pert)
    data = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    for got, base, delta in zip((tilde.A, tilde.B, tilde.C, tilde.D, tilde.E, tilde.b), data, pert.deltas):
        assert type(got) is type(base)
        assert np.asarray(got).tobytes() == (np.asarray(base) + np.asarray(delta)).tobytes()


def test_forward_errors_hand_values():
    sol = Solution(x=np.array([2.0]), y=np.array([5.0]), z=np.array([1.0]))
    dw = np.array([0.0, 0.0, 0.1])
    sel = selector("custom", 1, 1, 1, custom_l=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
    r_k, r_m, r_c = forward_errors(sol, dw, sel)
    assert abs(r_k - 0.1 / np.sqrt(5.0)) < 1e-15
    assert abs(r_m - 0.05) < 1e-15
    assert abs(r_c - 0.1) < 1e-14
    zero = Solution(x=np.array([0.0]), y=np.array([5.0]), z=np.array([1.0]))
    with pytest.raises(ZeroXi):
        forward_errors(zero, dw, selector("x", 1, 1, 1))


def test_epsilons_hand_values():
    blocks = DsppBlocks(
        A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[3.0]], E=[[1.0]], b=[1.0, 1.0, 1.0]
    )
    pert = PerturbationSet(
        dA=np.array([[0.2]]), dB=np.array([[0.1]]), dC=np.array([[0.0]]),
        dD=np.array([[0.3]]), dE=np.array([[0.0]]), db=np.array([0.1, 0.0, 0.0]), s=1,
    )
    eps1, eps2 = epsilons(pert, blocks)
    # num = 0.04 + 2*0.01 + 0 + 0.09 + 0 + 0.01, den = 4 + 2 + 2 + 9 + 1 + 3.
    assert abs(eps1 - np.sqrt(0.16 / 21.0)) < 1e-15
    assert eps2 == 0.1


def test_epsilons_reject_zero_pattern_violation():
    blocks = DsppBlocks(
        A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[3.0]], E=[[1.0]], b=[1.0, 0.0, 1.0]
    )
    pert = PerturbationSet(
        dA=np.array([[0.0]]), dB=np.array([[0.0]]), dC=np.array([[0.0]]),
        dD=np.array([[0.0]]), dE=np.array([[0.0]]), db=np.array([0.0, 0.1, 0.0]), s=1,
    )
    with pytest.raises(IncompatibleZeroPattern):
        epsilons(pert, blocks)


def _whole_block_epsilon2(pert, blocks):
    """eps2 by whole-block masks and gathers, the route it replaced."""
    eps2 = 0.0
    for delta, base in zip(pert.deltas, (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)):
        delta, base = np.asarray(delta), np.asarray(base)
        zero = base == 0
        if np.any(delta[zero] != 0):
            raise IncompatibleZeroPattern("perturbation hits an exactly zero data entry")
        if np.any(~zero):
            eps2 = max(eps2, float(np.max(np.abs(delta[~zero]) / np.abs(base[~zero]))))
    return eps2


@pytest.mark.parametrize("family, q", [("example1", 12), ("example2", 5)])
def test_epsilons_by_row_chunks_equal_whole_blocks(family, q):
    # example1 q = 12 has a 288 x 288 A, more than one chunk of entries.
    blocks = gen_example1(q, 3) if family == "example1" else gen_example2(q, 3)[0]
    pert = perturb(blocks, 8, 4)
    assert epsilons(pert, blocks)[1] == _whole_block_epsilon2(pert, blocks)
    # A perturbation on a zero entry of A's last row, in the last chunk.
    row = np.asarray(blocks.A)[-1]
    bad = PerturbationSet(np.array(pert.dA), *pert.deltas[1:], s=pert.s)
    bad.dA[-1, np.flatnonzero(row == 0)[-1]] = 1e-9
    for fn in (epsilons, _whole_block_epsilon2):
        with pytest.raises(IncompatibleZeroPattern):
            fn(bad, blocks)


def test_epsilons_memory_budget():
    # example1 q = 24 (l = 2304): the whole-block masks and gathers traced
    # 0.31 l^2 (13 MB); by row chunks eps2 holds a few chunk-sized buffers.
    blocks = gen_example1(24, 3)
    pert = perturb(blocks, 8, 4)
    peak = traced_peak(epsilons, pert, blocks)
    assert peak <= 4 * linalg._CHUNK_ENTRY_LIMIT * 8


def test_first_order_residual_shrinks_quadratically():
    """The second input (||dS||_1 / (rcond ||S||_1) = 0.83, so its actual
    change is refined on a factorization of S + dS) was 9.2 eps kappa from
    the increment oracle when that change was w~ - w."""
    for q, gen_seed, s, pert_seed in ((2, 5, 4, 9), (8, 3, 4, 11)):
        blocks = gen_example1(q, gen_seed)
        pert = perturb(blocks, s, pert_seed)
        check = first_order_residual(blocks, pert)
        (t1, r1), (t2, r2), (t3, r3) = check.curve
        assert (t1, t2, t3) == (1.0, 0.5, 0.25)
        assert r1 > r2 > r3 > 0
        assert 3.5 < r1 / r2 < 4.6
        assert 3.5 < r2 / r3 < 4.6
        gap = float(np.linalg.norm(check.actual - check.predicted, 2))
        assert gap <= 1e-3 * float(np.linalg.norm(check.actual, 2))
        lu = dspp.factorize(blocks)
        assert _within_eps_kappa(check.actual, blocks, dspp.solve_dspp(blocks, lu), lu, pert)


def test_row_seeds_are_stable_and_distinct():
    assert _row_seeds(42, 4, 0) == _row_seeds(42, 4, 0)
    seen = {_row_seeds(42, q, i) for q in (2, 3, 4) for i in range(4)}
    assert len(seen) == 12
    want = np.random.SeedSequence(entropy=(42, 4, 1)).generate_state(2, dtype=np.uint64)
    assert _row_seeds(42, 4, 1) == (int(want[0]), int(want[1]))


def test_run_experiment_rows_and_bounds():
    rows = run_experiment("example1", [2, 3], s=6, seed=1, selectors=("full", "x"))
    assert [(r.q, r.selector) for r in rows] == [(2, "full"), (2, "x"), (3, "full"), (3, "x")]
    for row in rows:
        assert row.r_k <= row.k2 <= row.k2_upper * (1 + DOMINANCE_RTOL)
        assert row.r_m <= row.km <= row.km_upper * (1 + DOMINANCE_RTOL)
        assert row.r_c <= row.kc <= row.kc_upper * (1 + DOMINANCE_RTOL)
        assert not row.has_structured
    with pytest.raises(ValueError):
        run_experiment("example3", [2])


# Each row-running test runs once in a pool (any experiment is large enough;
# on one usable CPU this is in-process too) and once in-process.
@pytest.fixture(params=["pool", "in_process"])
def rows_path(request, monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0 if request.param == "pool" else float("inf"))
    return request.param


def test_run_experiment_rows_reproduce_in_isolation(rows_path):
    both = run_experiment("example1", [4, 6], s=6, seed=5)
    alone = run_experiment("example1", [6], s=6, seed=5)
    assert [r.q for r in both] == [4] * 4 + [6] * 4
    assert both[4:] == alone
    assert not multiprocessing.active_children()


@pytest.mark.parametrize("family, q_list", [("example1", [4, 6]), ("example2", [2, 3])])
def test_rows_alone_equal_rows_sharing_a_task(rows_path, family, q_list):
    """Selectors are what share a task's work, so each row computed in a
    task of its own (with the seeds of its selector index) equals its row
    in the four-selector run. There the x, y and z rows' K2U is certified
    on a block of the full row's Gram, which in general sums in another
    order than their own Gram (the last bit moves at q = 10 and 14); at
    these sizes the sums agree."""
    together = run_experiment(family, q_list, s=6, seed=5)
    alone = [
        row
        for q in q_list
        for idx, kind in enumerate(DEFAULT_SELECTORS)
        for row in experiments._single_thread_task(family, q, ((idx, kind),), 6, 5, False)
    ]
    assert alone == together


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_rows_are_the_same_under_any_split(monkeypatch, rows_path, workers):
    reference = run_experiment("example1", [4, 6, 8], s=6, seed=5)
    task_counts = experiments._task_counts
    counts = []

    def forced(sizes, rows, _workers):
        counts.append(task_counts(sizes, rows, workers))
        return counts[-1]

    monkeypatch.setattr(experiments, "_task_counts", forced)
    assert run_experiment("example1", [4, 6, 8], s=6, seed=5) == reference
    assert counts == [{1: [1, 1, 1], 2: [1, 1, 2], 4: [1, 1, 3], 8: [1, 1, 4]}[workers]]


def test_task_counts_on_the_sweep():
    sizes = [4 * q * q for q in range(4, 17, 2)]
    rows = [4] * len(sizes)
    assert experiments._task_counts(sizes, rows, 1) == [1] * 7
    assert experiments._task_counts(sizes, rows, 2) == [1] * 7
    assert experiments._task_counts(sizes, rows, 4) == [1] * 6 + [2]
    assert experiments._task_counts(sizes, rows, 8) == [1] * 5 + [2, 4]


def _count_factorizations(monkeypatch):
    """Counts dspp.factorize calls, wherever the package looks the name up,
    and keeps the matrices' A..E."""
    calls = []
    original = dspp.factorize

    def counted(blocks):
        calls.append(tuple(getattr(blocks, name) for name in "ABCDE"))
        return original(blocks)

    for module in (dspp, partial_cn, experiments):
        monkeypatch.setattr(module, "factorize", counted)
    return calls


def test_rows_of_one_system_share_its_factorization(monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", float("inf"))
    calls = _count_factorizations(monkeypatch)
    run_experiment("example1", [4, 6], s=6, seed=5)
    # One per system (q = 4, 6): every row refines on its system's factors.
    assert len(calls) == 2


def test_sweep_factorizes_each_system_once(monkeypatch):
    """At s = 8 every row of the sweep refines on its system's factors: 7
    factorizations for 7 systems and 28 rows."""
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", float("inf"))
    calls = _count_factorizations(monkeypatch)
    rows = run_experiment("example1", list(range(4, 17, 2)), s=8)
    assert len(rows) == 28
    assert len(calls) == 7


def test_rows_with_their_own_matrix_factorize_it(monkeypatch):
    """example2 draws D and E per row, so each row is a task of its own
    system: every row factorizes its own S, and the rows equal
    run_experiment's. The x row's perturbation is not certified
    (||dS||_1 / (rcond ||S||_1) is 0.976 there), so that row also
    factorizes its perturbed system."""
    reference = run_experiment("example2", [3], s=6, seed=5)
    calls = _count_factorizations(monkeypatch)
    rows = [row for member in enumerate(DEFAULT_SELECTORS)
            for row in experiments._single_thread_task("example2", 3, (member,), 6, 5, False)]
    assert rows == reference
    assert len(calls) == 5
    systems = calls[:2] + calls[3:]
    assert all(not np.array_equal(a[3], b[3]) for a, b in itertools.combinations(systems, 2))
    blocks, _ = experiments.gen_example2(3, _row_seeds(5, 3, 1)[0])
    pert = perturb(blocks, 6, _row_seeds(5, 3, 1)[1])
    assert np.array_equal(calls[2][3], blocks.D + pert.dD)


def test_example1_task_builds_its_blocks_once(monkeypatch):
    """example1's A..E depend on q only: a four-selector task builds them
    once and draws only b per row, each row's b that of gen_example1 at the
    row's generator seed, and every row reuses one factorization."""
    built = []
    generate = experiments.gen_example1

    def counted(q, seed):
        built.append(q)
        return generate(q, seed)

    monkeypatch.setattr(experiments, "gen_example1", counted)
    calls = _count_factorizations(monkeypatch)
    experiments._single_thread_task("example1", 3, tuple(enumerate(DEFAULT_SELECTORS)), 6, 5, False)
    assert built == [3]
    # One factorization of the system, which every row refines on.
    assert len(calls) == 1
    for idx in range(1, len(DEFAULT_SELECTORS)):
        gen_seed = _row_seeds(5, 3, idx)[0]
        blocks, _ = experiments._family_system("example1", 3, gen_seed, generate(3, 0))
        assert np.array_equal(blocks.b, generate(3, gen_seed).b)


def _counted_system(monkeypatch, blocks):
    """Factors whose solves record their numbers of columns."""
    factors = Factors(blocks)
    solves, solve = [], factors.lu.solve

    def counted(rhs, **kw):
        solves.append(rhs.shape[1])
        return solve(rhs, **kw)

    monkeypatch.setattr(factors.lu, "solve", counted)
    return factors, solves


def test_factored_system_solves_each_part_once_on_demand(monkeypatch):
    blocks = gen_example1(3, 5)
    n, m, p = blocks.n, blocks.m, blocks.p
    sels = {kind: selector(kind, n, m, p) for kind in DEFAULT_SELECTORS}
    alone, alone_solves = _counted_system(monkeypatch, blocks)
    full = alone.rows(sels["full"])
    assert alone_solves == [n, m, p]
    with pytest.raises(ValueError):
        full[0, 0] = 1.0
    scale = np.abs(full).max()
    np.testing.assert_allclose(full, oracles.inv_rows(blocks, sels["full"]), rtol=0, atol=1e-13 * scale)

    shared, solves = _counted_system(monkeypatch, blocks)
    assert not shared.rows(sels["y"]).flags.writeable
    assert solves == [m]
    assert np.array_equal(shared.rows(sels["full"]), full)
    assert solves == [m, n, p]
    for kind in ("x", "y", "z"):
        assert np.array_equal(shared.rows(sels[kind]), oracles.inv_rows(blocks, sels[kind]))
    assert solves == [m, n, p]


def test_run_experiment_pool_and_in_process_rows_agree(monkeypatch):
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", float("inf"))
    in_process = run_experiment("example2", [2, 3], s=6, seed=5, structured=True)
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    assert run_experiment("example2", [2, 3], s=6, seed=5, structured=True) == in_process


def test_run_experiment_raises_worker_errors_with_their_type(monkeypatch, rows_path):
    def no_xi(*args):
        raise ZeroXi("L w is zero")

    # Patched before the pool forks, so the workers inherit it.
    monkeypatch.setattr(experiments, "forward_errors", no_xi)
    with pytest.raises(ZeroXi, match="L w is zero"):
        run_experiment("example1", [2, 3], selectors=("full", "x"))
    assert not multiprocessing.active_children()


def _worker_blas_threads(family, q, rows, *rest):
    """Stands in for a task: the thread count of numpy's OpenBLAS pool, once
    per row."""
    return [linalg._openblas_threads()[0]()] * len(rows)


def test_run_experiment_rows_run_blas_on_one_thread(monkeypatch, rows_path):
    pool = linalg._openblas_threads()
    if pool is None:
        pytest.skip("numpy calls no OpenBLAS whose thread count can be read")
    get, set_ = pool
    before = get()
    set_(2)
    monkeypatch.setattr(experiments, "_system_rows", _worker_blas_threads)
    try:
        counts = run_experiment("example1", [2, 3], selectors=("full", "x"))
        after = get()
    finally:
        set_(before)
    assert counts == [1] * 4
    assert after == 2


def _row_pid(family, q, rows, *rest):
    return [os.getpid()] * len(rows)


@contextlib.contextmanager
def _other_thread():
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        yield
    finally:
        stop.set()
        thread.join()


@contextlib.contextmanager
def _tracemalloc_on():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("min_work, free_memory, context, pooled", [
    (0, None, contextlib.nullcontext, True),
    (None, None, contextlib.nullcontext, False),
    (0, 0, contextlib.nullcontext, False),
    (0, None, _other_thread, False),
    (0, None, _tracemalloc_on, False),
], ids=["large", "small", "no_free_memory", "other_thread", "tracemalloc"])
def test_run_experiment_pools_only_where_it_can_pay(monkeypatch, min_work, free_memory, context, pooled):
    if pooled and len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs two usable CPUs")
    if min_work is not None:
        monkeypatch.setattr(experiments, "_POOL_MIN_WORK", min_work)
    if free_memory is not None:
        monkeypatch.setattr(experiments, "_free_memory", lambda: free_memory)
    monkeypatch.setattr(experiments, "_system_rows", _row_pid)
    with context():
        pids = run_experiment("example1", [2, 3], selectors=("full", "x"))
    assert (os.getpid() not in pids) == pooled
    assert pooled or set(pids) == {os.getpid()}


def test_pool_workers_follow_the_lu_a_task_holds(monkeypatch):
    # With 7.0 GB free and two usable CPUs, two example1 rows at q = 40
    # (l = 6400) or q = 48 (l = 9216) run on two workers: a band task counts
    # 4 doubles per l^2 (a q = 48 y row peaks at 249 MB). Two example2 rows
    # at q = 40 (l = 12 880; a dense task counts 8) stay on one.
    monkeypatch.setattr(experiments, "_free_memory", lambda: 7_000_000_000)
    monkeypatch.setattr(experiments.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    for q in (40, 48):
        assert experiments._pool_workers([experiments._system_size("example1", q)] * 2, "example1") == 2
    assert experiments._pool_workers([experiments._system_size("example2", 40)] * 2, "example2") == 1


def _rows_in_worker(q_list):
    return run_experiment("example1", q_list, s=6, seed=5)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(), reason="needs fork")
def test_run_experiment_inside_a_pool_worker(monkeypatch):
    """A daemonic pool worker cannot have children: its rows run in-process."""
    monkeypatch.setattr(experiments, "_POOL_MIN_WORK", 0)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        rows = pool.apply_async(_rows_in_worker, ([4, 6],)).get(timeout=60)
    assert rows == run_experiment("example1", [4, 6], s=6, seed=5)


def test_run_experiment_structured_rows():
    rows = run_experiment("example2", [2], s=6, seed=3, selectors=("full",), structured=True)
    (row,) = rows
    assert row.has_structured
    assert row.ncn_structured <= row.ncn_value * (1 + DOMINANCE_RTOL)
    assert row.mcn_structured <= row.mcn_value * (1 + DOMINANCE_RTOL)
    assert row.ccn_structured <= row.ccn_value * (1 + DOMINANCE_RTOL)


def test_experiment_row_validation():
    kw = dict(
        selector="full", q=2, r_k=1.0, k2=1.0, k2_upper=1.0, r_m=1.0, km=1.0,
        km_upper=1.0, r_c=1.0, kc=1.0, kc_upper=1.0, eps1=1.0, eps2=1.0,
    )
    ExperimentRow(**kw)
    for field in ("r_k", "k2", "eps2"):
        bad = dict(kw)
        bad[field] = -1.0
        with pytest.raises(ValueError):
            ExperimentRow(**bad)
        bad[field] = float("inf")
        with pytest.raises(ValueError):
            ExperimentRow(**bad)


def test_csv_report_is_deterministic():
    rows = run_experiment("example1", [2], s=6, seed=2, selectors=("full", "z"))
    meta = report_meta(family="example1", s=6, seed=2)
    out1, out2 = io.StringIO(), io.StringIO()
    write_csv_report(rows, out1, meta)
    write_csv_report(rows, out2, meta)
    text = out1.getvalue()
    assert text == out2.getvalue()
    lines = text.splitlines()
    assert lines[0] == "# generator=dsppcond"
    assert any(line == f"# rng={RNG_ALGORITHM}" for line in lines)
    assert any(line == "# family=example1" for line in lines)
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == ",".join(CSV_COLUMNS)
    assert len(lines) == header_idx + 1 + len(rows)
    first = lines[header_idx + 1].split(",")
    assert first[0] == "full" and first[1] == "2"
    assert first[2] == format_float(rows[0].r_k)


def test_csv_report_structured_columns_and_mixing():
    srows = run_experiment("example2", [2], s=6, seed=3, selectors=("x",), structured=True)
    out = io.StringIO()
    write_csv_report(srows, out, report_meta())
    lines = out.getvalue().splitlines()
    header_idx = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_idx] == ",".join(CSV_COLUMNS + CSV_STRUCTURED_COLUMNS)
    plain = run_experiment("example1", [2], s=6, seed=2, selectors=("full",))
    with pytest.raises(ValueError):
        write_csv_report(srows + plain, io.StringIO(), report_meta())


def test_json_report_round_trips_floats():
    rows = run_experiment("example1", [2], s=6, seed=2, selectors=("y",))
    out = io.StringIO()
    write_json_report(rows, out, report_meta(family="example1", s=6, seed=2))
    doc = json.loads(out.getvalue())
    assert doc["meta"]["generator"] == "dsppcond"
    assert doc["meta"]["seed"] == 2
    assert len(doc["rows"]) == 1
    got = doc["rows"][0]
    assert got["selector"] == "y" and got["q"] == 2
    assert got["r_k"] == rows[0].r_k
    assert got["Kc"] == rows[0].kc
    dicts = rows_to_dicts(rows)
    assert list(dicts[0].keys()) == CSV_COLUMNS


def test_report_meta_contents():
    meta = report_meta()
    assert set(meta) == {"generator", "version", "rng", "numpy"}
    full = report_meta(family="example2", s=8, seed=42)
    assert full["family"] == "example2" and full["s"] == 8 and full["seed"] == 42
