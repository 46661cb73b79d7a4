"""Condition number machinery: sensitivity maps, closed forms, bounds.

The load-bearing oracles are action properties (the sensitivity matrix must
reproduce the assembled perturbation response) plus hand-computed values on
one-dimensional and identity systems.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dsppcond.partial_cn as pc
import oracles
from conftest import random_dspp, rel_err, traced_peak
from oracles import definition_ratio, extremal_direction, first_order_delta
from dsppcond.dspp import DsppBlocks, Solution, _block_product, assemble, norm_fro_system, selector, solve_dspp
from dsppcond.errors import DimensionMismatch, ZeroMatrix, ZeroXi
from dsppcond.experiments import gen_example1, gen_example2
from dsppcond.linalg import _norm_upper, ddagger
from dsppcond.partial_cn import (
    DOMINANCE_RTOL,
    CnValue,
    Factors,
    PerturbationWeights,
    SolvedSystem,
    XiChoice,
    inf_cn,
    inf_cn_upper,
    ncn,
    ncn_upper,
    unified_cn,
)
from dsppcond.structured import StructureTriple, structured_inf_cn


def random_deltas(rng, blocks):
    return (
        rng.standard_normal((blocks.n, blocks.n)),
        rng.standard_normal((blocks.m, blocks.n)),
        rng.standard_normal((blocks.p, blocks.m)),
        rng.standard_normal((blocks.m, blocks.m)),
        rng.standard_normal((blocks.p, blocks.p)),
        rng.standard_normal(blocks.l),
    )


def stack_deltas(deltas):
    parts = [np.asarray(d).flatten(order="F") for d in deltas[:5]]
    return np.concatenate(parts)


def perturbation_response(blocks, sol, deltas):
    """[dA x + dB^T y; dB x - dD y + dC^T z; dC y + dE z], the action of dS on w."""
    da, db_, dc, dd, de, _ = deltas
    return np.concatenate([
        da @ sol.x + db_.T @ sol.y,
        db_ @ sol.x - dd @ sol.y + dc.T @ sol.z,
        dc @ sol.y + de @ sol.z,
    ])


def test_build_g_hand_value_scalar_case():
    sol = Solution(x=np.array([1.0]), y=np.array([1.0]), z=np.array([1.0]))
    want = np.array([
        [1.0, 1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, 1.0],
    ])
    assert np.array_equal(oracles.build_g(sol), want)


def test_build_g_reproduces_perturbation_action():
    rng = np.random.default_rng(20)
    for _ in range(20):
        n, m, p = (int(v) for v in rng.integers(1, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        sol = solve_dspp(blocks)
        deltas = random_deltas(rng, blocks)
        got = oracles.build_g(sol) @ stack_deltas(deltas)
        want = perturbation_response(blocks, sol, deltas)
        assert np.allclose(got, want, rtol=1e-12, atol=1e-12)


def unit_weights(n, m, p):
    return (np.ones((n, n)), np.ones((m, n)), np.ones((p, m)), np.ones((m, m)), np.ones((p, p)))


def test_build_j_is_gram_of_g():
    sol = Solution(x=np.array([1.0]), y=np.array([1.0]), z=np.array([1.0]))
    assert np.array_equal(
        oracles.build_j(sol, *unit_weights(1, 1, 1)),
        [[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]],
    )
    rng = np.random.default_rng(21)
    for _ in range(10):
        n, m, p = (int(v) for v in rng.integers(1, 6, size=3))
        sol = Solution(
            x=rng.standard_normal(n), y=rng.standard_normal(m), z=rng.standard_normal(p)
        )
        g = oracles.build_g(sol)
        assert np.allclose(
            oracles.build_j(sol, *unit_weights(n, m, p)), g @ g.T, rtol=1e-12, atol=1e-12
        )


def test_inv_rows_solves_against_selector():
    rng = np.random.default_rng(22)
    blocks = random_dspp(rng, 3, 2, 2)
    custom = rng.standard_normal((2, 7))
    for kind in ("full", "x", "y", "z", "custom"):
        sel = selector(kind, 3, 2, 2, custom if kind == "custom" else None)
        rows = SolvedSystem.of(blocks, sel).rows
        assert not rows.flags.writeable
        assert np.allclose(rows @ assemble(blocks), oracles.selector_matrix(sel), rtol=0, atol=1e-10)
    with pytest.raises(DimensionMismatch):
        SolvedSystem.of(blocks, selector("x", 3, 2, 3))


def test_first_order_delta_solves_increment_equation():
    rng = np.random.default_rng(23)
    for _ in range(10):
        n, m, p = (int(v) for v in rng.integers(1, 5, size=3))
        blocks = random_dspp(rng, n, m, p)
        sol = solve_dspp(blocks)
        deltas = random_deltas(rng, blocks)
        dw = first_order_delta(blocks, sol, *deltas)
        want = deltas[5] - perturbation_response(blocks, sol, deltas)
        assert np.allclose(assemble(blocks) @ dw, want, rtol=0, atol=1e-10)


def test_ncn_paths_agree_and_label_flavor():
    rng = np.random.default_rng(24)
    for _ in range(10):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        sel = selector(("full", "x", "y", "z")[int(rng.integers(4))], n, m, p)
        psi = float(rng.uniform(0.5, 3.0))
        chi = float(rng.uniform(0.5, 3.0))
        a = oracles.ncn(blocks, sel, psi, chi)
        b = ncn(SolvedSystem.of(blocks, sel), psi, chi)
        assert b.flavor == "ncn"
        assert rel_err(a, b.value) < 1e-11


def test_ncn_scales_linearly_in_weights():
    rng = np.random.default_rng(26)
    blocks = random_dspp(rng, 3, 3, 2)
    sel = selector("y", 3, 3, 2)
    system = SolvedSystem.of(blocks, sel)
    base = ncn(system, 1.5, 2.5).value
    scaled = ncn(system, 3.0, 5.0).value
    assert rel_err(scaled, 2.0 * base) < 1e-12


def test_ncn_rejects_bad_arguments():
    rng = np.random.default_rng(27)
    blocks = random_dspp(rng, 2, 2, 2)
    sel = selector("x", 2, 2, 2)
    with pytest.raises(ValueError):
        ncn(SolvedSystem.of(blocks, sel), 0.0, 1.0)


def identity_blocks(n=2, m=2, p=2):
    """Assembles to the identity: A = I, B = C = 0, D = -I (negated to +I), E = I."""
    l = n + m + p
    b = np.zeros(l)
    b[0] = 1.0
    return DsppBlocks(
        A=np.eye(n), B=np.zeros((m, n)), C=np.zeros((p, m)),
        D=-np.eye(m), E=np.eye(p), b=b,
    )


def test_identity_system_hand_values():
    # w = e1 exactly; for selector x the numerator is |A||x| + |b| = 2 e1,
    # so mcn = ccn = 2 and both max-norm upper bounds coincide at 2.
    blocks = identity_blocks()
    assert np.array_equal(assemble(blocks), np.eye(6))
    system = SolvedSystem.of(blocks, selector("x", 2, 2, 2))
    assert abs(inf_cn(system, "mcn").value - 2.0) <= 1e-14
    assert abs(inf_cn(system, "ccn").value - 2.0) <= 1e-14
    mu, cu = inf_cn_upper(system)
    assert abs(mu.value - 2.0) <= 1e-14
    assert abs(cu.value - 2.0) <= 1e-14


def test_zero_projection_raises_zero_xi_for_norm_normalizers():
    blocks = identity_blocks()
    # Move the mass out of the x part: w = b has zero x block, exactly.
    b = np.zeros(6)
    b[2:] = 1.0
    blocks = DsppBlocks(A=blocks.A, B=blocks.B, C=blocks.C, D=blocks.D, E=blocks.E, b=b)
    system = SolvedSystem.of(blocks, selector("x", 2, 2, 2))
    with pytest.raises(ZeroXi):
        ncn(system, 1.0, 1.0)
    with pytest.raises(ZeroXi):
        inf_cn(system, "mcn")
    # The componentwise number stays finite: zero numerator over a zero entry.
    assert inf_cn(system, "ccn").value >= 0.0


def symmetric_toeplitz_from(blocks):
    """The same system with A symmetrized and D, E symmetric Toeplitz built
    from their first columns."""
    def toeplitz(col):
        idx = np.arange(col.size)
        return col[np.abs(idx[:, None] - idx[None, :])]

    return DsppBlocks(
        A=blocks.A + blocks.A.T, B=blocks.B, C=blocks.C,
        D=toeplitz(blocks.D[:, 0]), E=toeplitz(blocks.E[:, 0]), b=blocks.b,
    )


def test_chunked_numerator_matches_materialized(monkeypatch):
    rng = np.random.default_rng(28)
    for trial in range(8):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        sel = selector(("full", "x", "y", "z")[trial % 4], n, m, p)
        weights = PerturbationWeights.from_problem(blocks)
        sol = solve_dspp(blocks)
        lw = sel.take(sol.w)
        want = float(np.max(np.abs(ddagger(lw)) * oracles.inf_numerator(blocks, sel, weights)))
        got = unified_cn(SolvedSystem.of(blocks, sel), weights, "ccn", "inf").value
        assert rel_err(got, want) < 1e-12
        # The structured symmetric and Toeplitz terms share the pair kernel.
        sym = symmetric_toeplitz_from(blocks)
        triple = StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
        want_s = oracles.structured_inf(sym, sel, "ccn", triple)
        got_s = structured_inf_cn(SolvedSystem.of(sym, sel), "ccn", triple).value
        assert rel_err(got_s, want_s) < 1e-12
        # Force one-column chunks within every row through the same values.
        # Fresh systems, so no numerator cached before the patch is reused.
        monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", 2)
        got_chunked = unified_cn(SolvedSystem.of(blocks, sel), weights, "ccn", "inf").value
        got_s_chunked = structured_inf_cn(SolvedSystem.of(sym, sel), "ccn", triple).value
        monkeypatch.undo()
        assert rel_err(got_chunked, want) < 1e-12
        assert rel_err(got_s_chunked, want_s) < 1e-12


def _pair_oracle(k_col, v_row, k_row, v_col, w):
    """The pair sum by brute force, every (r, c) term materialized."""
    terms = k_col[:, None, :] * v_row[None, :, None] + k_row[:, :, None] * v_col[None, None, :]
    return np.einsum("krc,rc->k", np.abs(terms), w)


def test_pair_kernel_evaluates_only_nonzero_weights(monkeypatch):
    # NaN in every column of k_col and k_row that only zero weights reach:
    # one evaluated zero-weight pair would make the sum NaN.
    rng = np.random.default_rng(36)
    k, nr, nc = 5, 6, 7
    k_col, k_row = rng.standard_normal((k, nc)), rng.standard_normal((k, nr))
    v_row, v_col = rng.standard_normal(nr), rng.standard_normal(nc)
    w = np.abs(rng.standard_normal((nr, nc))) * (rng.random((nr, nc)) < 0.5)
    w[2, :] = 0.0
    w[:, 4] = 0.0
    want = _pair_oracle(k_col, v_row, k_row, v_col, w)
    k_col[:, ~w.any(axis=0)] = np.nan
    k_row[:, ~w.any(axis=1)] = np.nan
    for limit in (pc._CHUNK_ENTRY_LIMIT, 2):
        monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", limit)
        got = pc._pair_sum(k_col, v_row, k_row, v_col, w)
        assert np.all(np.isfinite(got))
        assert np.allclose(got, want, rtol=1e-13, atol=0)


def _pair_cases():
    """Kernel arguments (k_col, v_row, k_row, v_col, w) over the layouts it meets."""
    rng = np.random.default_rng(37)
    nr, nc, k = 4, 5, 6
    cases = [(  # k = 1
        rng.standard_normal((1, nc)), rng.standard_normal(nr),
        rng.standard_normal((1, nr)), rng.standard_normal(nc),
        np.abs(rng.standard_normal((nr, nc))),
    )]
    w = np.abs(rng.standard_normal((nr, nc))) * (rng.random((nr, nc)) < 0.4)
    w[0] = 0.0
    w[0, 3] = 2.5  # a row with one nonzero
    w[1] = np.abs(rng.standard_normal(nc)) + 0.1  # a fully dense row
    cases.append((
        rng.standard_normal((k, nc)), rng.standard_normal(nr),
        rng.standard_normal((k, nr)), rng.standard_normal(nc), w,
    ))
    # A transposed weight view, as eils passes |M|^T for B.
    cases.append((
        rng.standard_normal((k, nc)), rng.standard_normal(nr),
        rng.standard_normal((k, nr)), rng.standard_normal(nc),
        np.abs(rng.standard_normal((nc, nr))).T,
    ))
    # The read-only rows of one Fortran-ordered S^-T buffer, as the
    # experiment tasks share them, split into the B and C column blocks.
    blocks = random_dspp(rng, 4, 3, 2)
    rows = Factors(blocks).rows(selector("full", 4, 3, 2))
    assert not rows.flags.writeable and rows.base.flags.f_contiguous
    sol = solve_dspp(blocks)
    k1, k2, k3 = np.split(rows, [4, 7], axis=1)
    cases.append((k1, sol.y, k2, sol.x, np.abs(blocks.B)))
    cases.append((k2, sol.z, k3, sol.y, np.abs(blocks.C)))
    return cases


@pytest.mark.parametrize("limit", [pc._CHUNK_ENTRY_LIMIT, 2])
def test_pair_kernel_matches_oracle_over_layouts(monkeypatch, limit):
    monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", limit)
    for args in _pair_cases():
        np.testing.assert_allclose(pc._pair_sum(*args), _pair_oracle(*args), rtol=1e-13, atol=0)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(k=st.sampled_from((1, 2, 5, 24, 40)), nr=st.integers(1, 12), nc=st.integers(1, 12),
       density=st.sampled_from((0.0, 0.15, 0.5, 1.0)), empty_rows=st.booleans(),
       transposed=st.booleans(), swap=st.booleans(), upper=st.booleans(),
       limit=st.sampled_from(("2", "7", "3k", "5k", "default")), seed=st.integers(0, 2**32 - 1))
def test_batched_pair_kernel_matches_oracle(k, nr, nc, density, empty_rows, transposed, swap,
                                            upper, limit, seed):
    # Random shapes and densities, all-zero weights (density 0), empty rows,
    # k = 1, transposed weight views, both roles (the kernel swaps them where
    # k_col is wider, and ``swap`` hands them over swapped) and the upper
    # kind with zero diagonal entries. Chunks of 2 or 7 entries, or of 3 or
    # 5 pairs, cut rows into several chunks, and at k = 24 or 40 a listing
    # block holds several rows, whole and cut ones.
    rng = np.random.default_rng(seed)
    limit = {"2": 2, "7": 7, "3k": 3 * k, "5k": 5 * k, "default": pc._CHUNK_ENTRY_LIMIT}[limit]
    if upper:
        nc = nr
    w = rng.standard_normal((nr, nc)) * (rng.random((nr, nc)) < density)
    if empty_rows:
        w[rng.random(nr) < 0.4] = 0.0
    if transposed:
        w = np.ascontiguousarray(w.T).T
    k_col, k_row = rng.standard_normal((k, nc)), rng.standard_normal((k, nr))
    v_row, v_col = rng.standard_normal(nr), rng.standard_normal(nc)
    if upper:
        w = w + w.T
        w[np.diag_indices(nr)] *= rng.random(nr) < 0.5
        args = (k_col, v_row, k_col, v_row)
        want = _pair_oracle(*args, np.triu(np.abs(w), 1) + np.diag(np.abs(np.diag(w))) / 2.0)
    else:
        args = (k_col, v_row, k_row, v_col)
        want = _pair_oracle(*args, np.abs(w))
        if swap:
            args, w = (k_row, v_col, k_col, v_row), w.T
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(pc, "_CHUNK_ENTRY_LIMIT", limit)
        got = pc._pair_sum(*args, w, upper=upper)
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)


def _counted_updates(monkeypatch):
    """The (r, lo, hi) of every rank-one update the pair kernel makes."""
    calls, updater = [], pc.RankOneUpdate

    class Counting(updater):
        def update(self, r, lo, hi):
            calls.append((r, lo, hi))
            return super().update(r, lo, hi)

    monkeypatch.setattr(pc, "RankOneUpdate", Counting)
    return calls


@pytest.mark.parametrize("cb", [5, 6])
def test_pair_kernel_chunks_whole_rows_and_cuts_long_ones(monkeypatch, cb):
    # At k = 40 with chunks of cb pairs, a listing block holds several rows
    # of 1, 2, 9 or 12 nonzeros: a row of at most cb pairs is one run, never
    # cut, and a longer one, even after a short one in its block, is cut
    # into runs of cb pairs from its first pair, as a dense row always was.
    rng = np.random.default_rng(49)
    k, n = 40, 12
    sizes = [(1, 2, 9, 12)[r % 4] for r in range(n)]
    w = np.zeros((n, n))
    for r, size in enumerate(sizes):
        w[r, rng.choice(n, size, replace=False)] = rng.standard_normal(size)
    args = (rng.standard_normal((k, n)), rng.standard_normal(n), rng.standard_normal((k, n)), rng.standard_normal(n))
    calls = _counted_updates(monkeypatch)
    monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", cb * k)
    np.testing.assert_allclose(pc._pair_sum(*args, w), _pair_oracle(*args, np.abs(w)), rtol=1e-13, atol=0)
    want = [part for size in sizes for part in [cb] * (size // cb) + [size % cb] if part]
    assert [hi - lo for _, lo, hi in calls] == want
    assert sum(lo == 0 for _, lo, _ in calls) < len(want)  # short rows share chunks


@pytest.mark.parametrize("limit", [pc._CHUNK_ENTRY_LIMIT, 7])
def test_pair_kernel_updates_once_per_run(monkeypatch, limit):
    # One dger call per run of equal weight rows within a chunk: at most one
    # per chunk (each starts at buffer row 0) and nonempty weight row, and
    # together they cover every nonzero weight once. At example1 q = 8, B's
    # 240 nonzeros in 128 weight rows (of B^T, after the role swap) fill
    # fewer chunks than that.
    calls = _counted_updates(monkeypatch)
    monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", limit)
    blocks = gen_example1(8, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    k1, k2, _ = np.split(system.rows, [blocks.n, blocks.n + blocks.m], axis=1)
    pc._pair_sum(k1, system.sol.y, k2, system.sol.x, blocks.B)
    chunks = sum(lo == 0 for _, lo, _ in calls)
    nonempty = int(np.count_nonzero(np.asarray(blocks.B).any(axis=0)))
    assert len(calls) <= chunks + nonempty
    assert sum(hi - lo for _, lo, hi in calls) == np.count_nonzero(blocks.B)
    if limit != 7:
        assert chunks < blocks.B.shape[1]


@pytest.mark.parametrize("kind", ["full", "diagonal", "symmetric", "toeplitz_sym"])
def test_number_weights_apply_in_closed_form(kind):
    # A number weight c is the constant matrix c 11^T: J with numbers
    # matches J with each number expanded to its block's shape.
    rng = np.random.default_rng(48)
    for _ in range(5):
        n, m, p = (int(v) for v in rng.integers(1, 9, size=3))
        sol = Solution(*(rng.standard_normal(d) for d in (n, m, p)))
        psi = tuple(rng.uniform(0.5, 2.0, size=5))
        shapes = ((n, n), (m, n), (p, m), (m, m), (p, p))
        full = tuple(np.full(shape, c) for shape, c in zip(shapes, psi))
        chi = rng.uniform(0.5, 2.0)
        kinds = (kind,) * 3
        closed = pc._j_operator(sol, psi, chi, kinds)
        expanded = pc._j_operator(sol, full, chi, kinds)
        for u in rng.standard_normal((3, n + m + p)):
            np.testing.assert_allclose(closed(u), expanded(u), rtol=1e-13, atol=0)


def test_pair_kernel_reads_weight_magnitudes():
    # A signed weight matrix weights by its magnitudes, row by row: the sum
    # is bitwise the one on |w|, for both roles and the upper kind.
    for k_col, v_row, k_row, v_col, w in _pair_cases():
        signs = np.where(np.random.default_rng(45).random(w.shape) < 0.5, -1.0, 1.0)
        args = (k_col, v_row, k_row, v_col)
        assert np.array_equal(pc._pair_sum(*args, w * signs), pc._pair_sum(*args, w))
    rng = np.random.default_rng(46)
    block, v = rng.standard_normal((6, 9)), rng.standard_normal(9)
    w = rng.standard_normal((9, 9))
    w = w + w.T
    assert np.array_equal(pc._pair_sum(block, v, block, v, w, upper=True),
                          pc._pair_sum(block, v, block, v, np.abs(w), upper=True))


@pytest.mark.parametrize("kind", ["full", "diagonal", "symmetric", "toeplitz_sym"])
def test_kind_numerator_reads_block_magnitudes(kind):
    # The data-weighted A, D, E terms take the signed blocks and form no
    # block-sized magnitude: the values are bitwise those on |W| (for
    # "full", |W| v in row chunks of 8-row multiples is bitwise one product).
    rng = np.random.default_rng(47)
    blocks = symmetric_toeplitz_from(random_dspp(rng, 40, 30, 20))
    system = SolvedSystem.of(blocks, selector("full", 40, 30, 20))
    if kind == "toeplitz_sym":
        k, w, v = system.rows[:, 70:], blocks.E, system.sol.z
    else:
        k, w, v = system.rows[:, :40], blocks.A, system.sol.x
        if kind == "diagonal":
            w = np.diag(np.diag(w))
    want = pc._kind_numerator(kind, k, np.abs(w), v)
    if kind == "full":
        want_full = pc._abs_product(k, np.abs(w) @ np.abs(v))
        assert np.array_equal(want, want_full)
    assert np.array_equal(pc._kind_numerator(kind, k, w, v), want)


def test_pair_kernel_copies_the_narrower_block():
    # For B's pair on the full row, k_col is the k x n block and k_row the
    # k x m one, n = 2 m at example1: the kernel swaps the roles and copies
    # the k x m block (2 MiB at q = 16), not the k x n one (4 MiB).
    blocks = gen_example1(16, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    k1, k2, _ = np.split(system.rows, [blocks.n, blocks.n + blocks.m], axis=1)
    sol, k = system.sol, system.rows.shape[0]
    args = (k1, sol.y, k2, sol.x, blocks.B)
    budget = k * blocks.m * 8 + pc._CHUNK_ENTRY_LIMIT * 8 + 32 * (k + blocks.l) * 8
    assert traced_peak(pc._pair_sum, *args) <= budget < k * blocks.n * 8
    want = pc._pair_sum(k2, sol.x, k1, sol.y, np.abs(blocks.B).T)
    assert np.array_equal(pc._pair_sum(*args), want)


def test_pair_kernel_adds_rank_one_term_in_place(monkeypatch):
    # dger updates a Fortran-ordered ``a`` in place and the updater refuses
    # any other; the kernel hands it the transpose of its C-ordered chunk
    # buffer, so every update must land in that buffer.
    updater = pc.RankOneUpdate
    with pytest.raises(ValueError):
        updater(np.zeros((3, 2)), np.ones((3, 1)), np.ones(2))
    in_place = []

    def checked(a, xs, y):
        in_place.append(a.flags.f_contiguous and a.base is not None and a.base.flags.c_contiguous)
        return updater(a, xs, y)

    monkeypatch.setattr(pc, "RankOneUpdate", checked)
    for limit in (pc._CHUNK_ENTRY_LIMIT, 2):
        monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", limit)
        for args in _pair_cases():
            pc._pair_sum(*args)
    assert in_place and all(in_place)


def test_bc_numerator_memory_budget():
    # Beside its inputs, each pair kernel holds a copy of k_col^T and one
    # chunk buffer (at most a whole weight row), plus O(k + l) vectors; the
    # right-hand-side term takes |L S^-1| in row chunks of one more buffer.
    # The largest kernel is C's, with k_col = the k x m block.
    n, m, p = 200, 300, 100
    blocks = random_dspp(np.random.default_rng(38), n, m, p)
    system = SolvedSystem.of(blocks, selector("full", n, m, p))
    b = system.blocks
    args = (system.rows, system.sol, np.abs(b.B), np.abs(b.C), np.abs(b.b))
    k = system.rows.shape[0]
    k_col_t = chunk = k * m * 8
    vectors = 16 * (k + b.l) * 8
    assert traced_peak(pc._bc_numerator, *args) < k_col_t + chunk + vectors


def test_ncn_upper_memory_budget():
    # The public bound keeps L S^-1, so its Gram is formed in a private
    # k x l copy (k^2 for full), beside one 128-row panel and the Lanczos
    # run's O(steps k) basis: 1.13 k^2 traced. The explicit-Gram route held
    # 3.04 k^2 here.
    blocks = gen_example1(16, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    k = system.rows.shape[0]
    system.lw
    assert traced_peak(ncn_upper, system, 1.0, 1.0) <= 1.3 * k * k * 8


def test_handed_over_ncn_upper_memory_budget():
    # Handed over, L S^-1 holds the bound's Gram in its own first k
    # columns: beside it, one 128 x l panel (l^2 / 8 at l = 1024), released
    # before the Lanczos run's O(steps k) basis grows; 0.126 l^2 traced.
    blocks = gen_example1(16, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    rows, sol, sel = system.rows, system.sol, system.sel
    del system, blocks
    l = rows.shape[1]
    rows.flags.writeable = True

    def handed_over():
        return pc._ncn_upper(_norm_upper(rows, overwrite=True)[0], sol, sel, 1.0, 1.0)

    assert traced_peak(handed_over) <= 0.15 * l * l * 8


@pytest.mark.parametrize("q", [8, 12])
def test_abs_product_matches_one_product(monkeypatch, q):
    # Chunks of whole 8-row blocks give each row bitwise the sum of one
    # product over all rows (q = 12: l = 576, 112 rows a chunk); one-row
    # chunks agree to rounding. A custom selector's rows are Fortran-ordered.
    blocks = gen_example1(q, 3)
    rng = np.random.default_rng(39)
    v = rng.random(blocks.l)
    custom = selector("custom", blocks.n, blocks.m, blocks.p,
                      custom_l=rng.standard_normal((5, blocks.l)))
    for sel in (selector("full", blocks.n, blocks.m, blocks.p), custom):
        rows = SolvedSystem.of(blocks, sel).rows
        want = np.abs(rows) @ v
        if sel.custom is None:
            assert np.array_equal(pc._abs_product(rows, v), want)
        monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", 2)
        np.testing.assert_allclose(pc._abs_product(rows, v), want, rtol=1e-13, atol=0)
        monkeypatch.undo()


def test_inf_cn_upper_memory_budget():
    # |L S^-1| (h + |b|) is taken in row chunks, and h's block magnitudes
    # one block at a time: beside L S^-1 and the blocks, inf_cn_upper holds
    # the largest block's magnitude (|A|, 2 MB here, where all five took
    # 4.5 MB), one chunk and O(l) vectors, not a k x l |L S^-1|.
    blocks = gen_example1(16, 3)
    system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
    k, l = system.rows.shape
    system.lw
    largest = max(getattr(blocks, name).nbytes for name in "ABCDE")
    assert traced_peak(inf_cn_upper, system) <= largest + pc._CHUNK_ENTRY_LIMIT * 8 + 32 * l * 8


def test_inf_cn_upper_magnitudes_are_bitwise_the_block_product():
    # h is the block product of the magnitudes with D's sign folded into a
    # +: the same products, summed in the same order, as
    # _block_product((|A|, |B|, |C|, -|D|, |E|), |x|, |y|, |z|).
    rng = np.random.default_rng(44)
    for blocks in (gen_example1(8, 3), random_dspp(rng, 30, 20, 10)):
        system = SolvedSystem.of(blocks, selector("full", blocks.n, blocks.m, blocks.p))
        mags = (np.abs(blocks.A), np.abs(blocks.B), np.abs(blocks.C), -np.abs(blocks.D), np.abs(blocks.E))
        sol = system.sol
        h = _block_product(mags, np.abs(sol.x), np.abs(sol.y), np.abs(sol.z))
        v = pc._abs_product(system.rows, h + np.abs(blocks.b))
        want = (pc._inf_value(XiChoice("mcn").resolve(system.lw), v),
                pc._inf_value(XiChoice("ccn").resolve(system.lw), v))
        assert tuple(c.value for c in inf_cn_upper(system)) == want


def test_shared_numerator_runs_pair_kernel_once_per_block(monkeypatch):
    # mcn, ccn and both structured max-norm values of one system share its
    # B and C pair sums. The triple has no symmetric kind, which runs the
    # pair kernel for its own term.
    rng = np.random.default_rng(35)
    blocks = symmetric_toeplitz_from(random_dspp(rng, 4, 3, 2))
    system = SolvedSystem.of(blocks, selector("full", 4, 3, 2))
    triple = StructureTriple("full", "toeplitz_sym", "toeplitz_sym")
    weight_shapes = []
    pair_sum = pc._pair_sum

    def counting_pair_sum(*args):
        weight_shapes.append(args[-1].shape)
        return pair_sum(*args)

    monkeypatch.setattr(pc, "_pair_sum", counting_pair_sum)
    for flavor in ("mcn", "ccn"):
        inf_cn(system, flavor)
        structured_inf_cn(system, flavor, triple)
    assert weight_shapes == [blocks.B.shape, blocks.C.shape]


def test_unified_cn_consistent_with_specialized_entry_points():
    rng = np.random.default_rng(29)
    blocks = random_dspp(rng, 3, 2, 3)
    sel = selector("z", 3, 2, 3)
    system = SolvedSystem.of(blocks, sel)
    psi, chi = 2.0, 3.0
    scalar = PerturbationWeights.scalar(psi, chi)
    assert rel_err(
        unified_cn(system, scalar, "ncn", "two").value,
        ncn(system, psi, chi).value,
    ) < 1e-12
    from_data = PerturbationWeights.from_problem(blocks)
    assert rel_err(
        unified_cn(system, from_data, "mcn", "inf").value,
        inf_cn(system, "mcn").value,
    ) < 1e-12
    # Entrywise constant weights reproduce the scalar 2-norm value.
    const = PerturbationWeights.entrywise(
        np.full((3, 3), psi), np.full((2, 3), psi), np.full((3, 2), psi),
        np.full((2, 2), psi), np.full((3, 3), psi), np.full(8, chi),
    )
    assert rel_err(
        unified_cn(system, const, "ncn", "two").value,
        oracles.ncn(blocks, sel, psi, chi),
    ) < 1e-11
    with pytest.raises(ValueError):
        unified_cn(system, scalar, "ncn", "one")


def test_dominance_on_random_instances():
    rng = np.random.default_rng(30)
    for _ in range(10):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        psi = float(np.linalg.norm(assemble(blocks)))
        chi = float(np.linalg.norm(blocks.b))
        for kind in ("full", "x", "y", "z"):
            system = SolvedSystem.of(blocks, selector(kind, n, m, p))
            assert ncn(system, psi, chi).value <= ncn_upper(system, psi, chi).value * (1 + DOMINANCE_RTOL)
            mu, cu = inf_cn_upper(system)
            assert inf_cn(system, "mcn").value <= mu.value * (1 + DOMINANCE_RTOL)
            assert inf_cn(system, "ccn").value <= cu.value * (1 + DOMINANCE_RTOL)


def test_upper_bound_dominates_for_asymmetric_d():
    # The middle magnitude term must use |D| (not |D^T|) to dominate when D
    # is far from symmetric; a lopsided D would expose a transposed term.
    blocks = DsppBlocks(
        A=np.eye(2), B=np.array([[1.0, 0.0], [0.0, 1.0]]),
        C=np.array([[1.0, 0.0]]),
        D=np.array([[0.1, 100.0], [0.0, 0.1]]),
        E=np.array([[1.0]]),
        b=np.array([1.0, 2.0, -1.0, 1.0, 0.5]),
    )
    for kind in ("full", "x", "y", "z"):
        system = SolvedSystem.of(blocks, selector(kind, 2, 2, 1))
        mu, cu = inf_cn_upper(system)
        assert inf_cn(system, "mcn").value <= mu.value * (1 + DOMINANCE_RTOL)
        assert inf_cn(system, "ccn").value <= cu.value * (1 + DOMINANCE_RTOL)


def test_definition_ratio_bounded_by_cn_and_extremal_attains():
    rng = np.random.default_rng(31)
    blocks = random_dspp(rng, 3, 3, 2)
    sel = selector("x", 3, 3, 2)
    psi = float(np.linalg.norm(assemble(blocks)))
    chi = float(np.linalg.norm(blocks.b))
    weights = PerturbationWeights.scalar(psi, chi)
    system = SolvedSystem.of(blocks, sel)
    cn2 = ncn(system, psi, chi).value
    for _ in range(50):
        ratio = definition_ratio(system, weights, "ncn", "two", random_deltas(rng, blocks))
        assert ratio <= cn2 * (1 + 1e-10)
    deltas, sigma = extremal_direction(system, weights, "ncn")
    assert rel_err(sigma, cn2) < 1e-10
    attained = definition_ratio(system, weights, "ncn", "two", deltas)
    assert rel_err(attained, cn2) < 1e-10


def test_extremal_direction_respects_zero_weights():
    rng = np.random.default_rng(32)
    blocks = random_dspp(rng, 3, 2, 2)
    bmat = blocks.B.copy()
    bmat[0, :] = 0.0
    blocks = DsppBlocks(A=blocks.A, B=bmat, C=blocks.C, D=blocks.D, E=blocks.E, b=blocks.b)
    weights = PerturbationWeights.from_problem(blocks)
    system = SolvedSystem.of(blocks, selector("y", 3, 2, 2))
    deltas, sigma = extremal_direction(system, weights, "ncn")
    assert np.array_equal(deltas[1][0, :], np.zeros(3))
    assert sigma > 0
    zero = PerturbationWeights.entrywise(
        *(np.zeros_like(mat) for mat in (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)),
        np.zeros(blocks.l),
    )
    with pytest.raises(ZeroMatrix):
        extremal_direction(system, zero, "ncn")


def test_definition_ratio_rejects_zero_direction():
    rng = np.random.default_rng(33)
    blocks = random_dspp(rng, 2, 2, 2)
    weights = PerturbationWeights.scalar(1.0, 1.0)
    zeros = (
        np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((2, 2)),
        np.zeros((2, 2)), np.zeros((2, 2)), np.zeros(6),
    )
    with pytest.raises(ValueError):
        definition_ratio(SolvedSystem.of(blocks, selector("x", 2, 2, 2)), weights, "ncn", "two", zeros)


def test_weights_and_xi_validation():
    with pytest.raises(ValueError):
        PerturbationWeights.scalar(-1.0, 1.0)
    with pytest.raises(ValueError):
        XiChoice(kind="relative")
    with pytest.raises(ValueError):
        XiChoice(kind="custom")
    with pytest.raises(ValueError):
        XiChoice(kind="ncn", custom=np.ones(2))
    xi = XiChoice(kind="custom", custom=np.array([1.0, 2.0]))
    assert np.array_equal(xi.resolve(np.zeros(2)), [1.0, 2.0])
    with pytest.raises(DimensionMismatch):
        xi.resolve(np.zeros(3))
    rng = np.random.default_rng(34)
    blocks = random_dspp(rng, 2, 2, 2)
    wrong = PerturbationWeights.entrywise(
        np.ones((3, 3)), np.ones((2, 2)), np.ones((2, 2)), np.ones((2, 2)),
        np.ones((2, 2)), np.ones(6),
    )
    with pytest.raises(DimensionMismatch):
        wrong.for_blocks(blocks)


def test_entrywise_weights_rejected_at_construction():
    ok = [np.ones((2, 2))] * 5
    for i in range(5):
        nan_block = list(ok)
        nan_block[i] = np.full((2, 2), np.nan)
        with pytest.raises(ValueError, match=f"weight for {'ABCDE'[i]} has non-finite"):
            PerturbationWeights.entrywise(*nan_block, np.ones(6))
        flat_block = list(ok)
        flat_block[i] = np.ones(4)
        with pytest.raises(DimensionMismatch, match=f"weight for {'ABCDE'[i]} must be 2-D"):
            PerturbationWeights.entrywise(*flat_block, np.ones(6))
    with pytest.raises(ValueError, match="chi has non-finite"):
        PerturbationWeights.entrywise(*ok, np.array([1.0, np.nan, 1.0, 1.0, 1.0, 1.0]))


def test_ncn_memory_budget():
    # Beside the solved system, ncn holds the Lanczos basis (32 k-vectors
    # until a run needs more) and O(l) vectors: no array shaped like a data
    # block or like L S^-1. At example1 q = 16 (l = 1024, k = 256 and 1024)
    # that stays under one 256 x 256 block, a quarter of the 512 x 512 A.
    blocks = gen_example1(16, 0)
    psi, chi = norm_fro_system(blocks), float(np.linalg.norm(blocks.b))
    for kind in ("y", "full"):
        system = SolvedSystem.of(blocks, selector(kind, blocks.n, blocks.m, blocks.p))
        system.rows  # formed on first use, and part of the solved system
        assert traced_peak(ncn, system, psi, chi) < 256 * 256 * 8


def test_full_rows_memory_budget():
    # A range selector holds no l-sized array. Beside the blocks, the rows
    # of "full" hold the l x l LU factors and one l x l buffer of S^-T: the
    # assembled matrix is factored in place, so the peak is 2 l^2 doubles
    # plus O(l) vectors (measured 2 l^2 + 6 l at l = 400). example2 takes
    # the dense LU; example1's band one holds less.
    blocks = gen_example2(7, 0)[0]
    dims, l = (blocks.n, blocks.m, blocks.p), blocks.l
    assert traced_peak(selector, "full", *dims) < l * 8
    peak = traced_peak(lambda: SolvedSystem.of(blocks, selector("full", *dims)).rows)
    assert peak <= (2 * l * l + 16 * l) * 8


@pytest.mark.parametrize("kind", ["full", "y", "custom"])
def test_solved_system_holds_no_factorization(kind):
    # SolvedSystem.of factorizes S, solves, forms L S^-1 and releases the
    # LU before it returns: what stays traced after the call, less the
    # array holding L S^-1 (the l x l S^-T buffer for a range selector, the
    # k x l rows for a custom one), is the solution and O(l) vectors.
    blocks = gen_example1(8, 0)
    dims, l = (blocks.n, blocks.m, blocks.p), blocks.l
    custom = np.random.default_rng(41).standard_normal((5, l)) if kind == "custom" else None
    sel = selector(kind, *dims, custom_l=custom)
    tracemalloc.start()
    try:
        system = SolvedSystem.of(blocks, sel)
        rows = system.rows
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    owner = rows if rows.base is None else rows.base
    assert owner.nbytes >= rows.nbytes
    assert held - owner.nbytes <= 8 * l * 8


def test_dense_full_system_holds_one_system_sized_array():
    # A dense LU read last for every row of S^-1 becomes L S^-1 in its own
    # storage (dgetri, then tile swaps): beside the blocks, SolvedSystem.of
    # peaks at one l x l array, dgetri's work array of about 64 l doubles,
    # one 128 x 128 tile and O(l) vectors, where the factors and a separate
    # S^-T buffer took 2 l^2. The rows are bitwise those of the inverse.
    rng = np.random.default_rng(43)
    blocks = random_dspp(rng, 400, 300, 200)
    l = blocks.l
    sel = selector("full", blocks.n, blocks.m, blocks.p)
    tracemalloc.start()
    try:
        system = SolvedSystem.of(blocks, sel)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert system.rows.base.nbytes == l * l * 8 and system.rows.flags.c_contiguous
    assert peak <= 1.15 * l * l * 8  # measured 1.07 l^2; 2.0 with the separate buffer
    assert held - l * l * 8 <= 8 * l * 8
    lu = pc.factorize(blocks)
    assert np.array_equal(system.rows, lu.inverse_transpose().T)
    assert np.array_equal(system.sol.x, solve_dspp(blocks).x)


def test_symmetric_numerator_memory_budget():
    # The symmetric kind's max-norm term reads row r's upper part of w and
    # halves the diagonal weight inside the pair kernel: beside its inputs
    # it holds the kernel's copy of the k x n block, one chunk buffer and
    # O(k + n) vectors, and no n x n half-weight matrix (whose n x n
    # temporaries took 3 n^2 doubles). The value is bitwise the kernel's on
    # the explicit half weights.
    rng = np.random.default_rng(40)
    k, n = 32, 600
    block = rng.standard_normal((k, n + 40))[:, :n]
    a = rng.standard_normal((n, n))
    mask = rng.random((n, n)) < 0.3
    w = np.abs(a + a.T) * (mask | mask.T)
    w[np.arange(0, n, 7), np.arange(0, n, 7)] = 0.0
    v = rng.standard_normal(n)
    half = np.triu(w, 1) + np.diag(np.diag(w)) / 2.0
    want = pc._pair_sum(block, v, block, v, half)
    assert np.array_equal(pc._kind_numerator("symmetric", block, w, v), want)
    budget = 2 * k * n * 8 + 32 * (k + n) * 8
    assert traced_peak(pc._kind_numerator, "symmetric", block, w, v) <= budget


def test_symmetric_pair_term_gathers_without_a_copy_of_its_block(monkeypatch):
    # The symmetric term's block, L S^-1's A columns, is the widest the pair
    # kernel reads: its chunks gather their columns straight from it (the
    # layout of L S^-1's rows), so beside its inputs the kernel holds the
    # chunk buffer, one 64-row tile of the gather, a slab, a listing and
    # O(k + n) vectors, and no k x n copy. A small chunk limit keeps the
    # row-by-row oracle cheap.
    monkeypatch.setattr(pc, "_CHUNK_ENTRY_LIMIT", 1 << 12)
    rng = np.random.default_rng(46)
    k, n = 128, 512
    block = rng.standard_normal((k, n + 40))[:, :n]
    a = rng.standard_normal((n, n))
    w, v = np.abs(a + a.T) * (rng.random((n, n)) < 0.5), rng.standard_normal(n)
    half = np.triu(w, 1) + np.diag(np.diag(w)) / 2.0
    want = sum(np.abs(block * v[r] + np.outer(block[:, r], v)) @ half[r] for r in range(n))
    budget = 3 * pc._CHUNK_ENTRY_LIMIT * 8 + 32 * (k + n) * 8
    assert budget < k * n * 8
    assert traced_peak(pc._pair_sum, block, v, block, v, w, True) <= budget
    np.testing.assert_allclose(pc._pair_sum(block, v, block, v, w, upper=True), want, rtol=1e-13, atol=0)


def test_toeplitz_numerator_works_in_chunks():
    # The Toeplitz term takes the generators' columns T_g v in chunks whose
    # products with k have at most _CHUNK_ENTRY_LIMIT entries: no dim x dim
    # matrix and no k x dim product (each 2 MiB here), and the sum of
    # |k T_g v| |w_g| over the generators to rounding.
    rng = np.random.default_rng(47)
    k, dim = 512, 512
    block, v = rng.standard_normal((k, dim)), rng.standard_normal(dim)
    idx = np.arange(dim)
    w = rng.standard_normal(dim)[np.abs(idx[:, None] - idx[None, :])]
    want = np.abs(block @ pc._shifted(v, 0, dim)) @ np.abs(w[:, 0])
    np.testing.assert_allclose(pc._kind_numerator("toeplitz_sym", block, w, v), want, rtol=1e-13, atol=0)
    budget = 2 * pc._CHUNK_ENTRY_LIMIT * 8 + 32 * (k + dim) * 8
    assert budget < k * dim * 8
    assert traced_peak(pc._kind_numerator, "toeplitz_sym", block, w, v) <= budget


def test_cn_value_validation():
    with pytest.raises(ValueError):
        CnValue(value=-1.0, flavor="ncn")
    with pytest.raises(ValueError):
        CnValue(value=float("nan"), flavor="ncn")
    assert CnValue(value=np.float64(2.0), flavor="ncn").value == 2.0
