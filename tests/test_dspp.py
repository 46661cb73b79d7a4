"""Problem container, assembly, solve, selectors, and the JSON format."""

import numpy as np
import pytest

from conftest import random_dspp
from dsppcond.dspp import (
    DsppBlocks,
    assemble,
    factorize,
    norm_fro_system,
    problem_from_dict,
    problem_to_dict,
    selector,
    solve_dspp,
)
from dsppcond.errors import DimensionMismatch, MalformedProblem, SingularMatrix


def hand_blocks():
    # n = m = p = 1; assembled matrix [[2,1,0],[1,0,1],[0,1,1]] (D negated away).
    return DsppBlocks(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[0.0]], E=[[1.0]], b=[1.0, 0.0, 0.0])


def test_assemble_hand_value_and_d_sign():
    s = assemble(hand_blocks())
    assert np.array_equal(s, [[2.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    # D enters with a minus sign.
    s2 = assemble(DsppBlocks(A=[[2.0]], B=[[1.0]], C=[[1.0]], D=[[5.0]], E=[[1.0]], b=[0.0] * 3))
    assert s2[1, 1] == -5.0


def test_solve_hand_value_by_adjugate():
    # det = -3; adjugate solve of S w = e1 gives w = [1/3, 1/3, -1/3]:
    # column of S^{-1} = adj(S)[:,0]/det = [-1, -1, 1]/(-3).
    sol = solve_dspp(hand_blocks())
    assert np.allclose(sol.w, [1.0 / 3.0, 1.0 / 3.0, -1.0 / 3.0], rtol=0, atol=1e-15)
    assert sol.x.size == sol.y.size == sol.z.size == 1


def test_solution_parts_concatenate_to_w():
    rng = np.random.default_rng(10)
    blocks = random_dspp(rng, 3, 2, 4)
    sol = solve_dspp(blocks)
    assert np.array_equal(sol.w, np.concatenate([sol.x, sol.y, sol.z]))
    assert (sol.x.size, sol.y.size, sol.z.size) == (3, 2, 4)


def test_solve_matches_dense_solver_seeded():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n, m, p = rng.integers(1, 6, size=3)
        blocks = random_dspp(rng, int(n), int(m), int(p))
        sol = solve_dspp(blocks)
        want = np.linalg.solve(assemble(blocks), blocks.b)
        assert np.allclose(sol.w, want, rtol=1e-10, atol=1e-12)


def test_solve_reuses_factorization():
    rng = np.random.default_rng(12)
    blocks = random_dspp(rng, 3, 3, 2)
    lu = factorize(blocks)
    assert np.array_equal(solve_dspp(blocks, lu).w, solve_dspp(blocks).w)


def test_singular_assembly_raises():
    # B = C = 0 with D = 0 leaves a zero middle row/column.
    blocks = DsppBlocks(A=[[1.0]], B=[[0.0]], C=[[0.0]], D=[[0.0]], E=[[1.0]], b=[1.0, 1.0, 1.0])
    with pytest.raises(SingularMatrix):
        solve_dspp(blocks)


def test_blocks_validate_shapes_and_finiteness():
    with pytest.raises(DimensionMismatch):
        DsppBlocks(A=np.ones((2, 3)), B=np.ones((1, 2)), C=np.ones((1, 1)),
                   D=np.ones((1, 1)), E=np.ones((1, 1)), b=np.ones(4))
    with pytest.raises(DimensionMismatch):
        DsppBlocks(A=np.ones((2, 2)), B=np.ones((1, 2)), C=np.ones((1, 1)),
                   D=np.ones((1, 1)), E=np.ones((1, 1)), b=np.ones(5))
    with pytest.raises(ValueError):
        DsppBlocks(A=[[np.nan]], B=[[1.0]], C=[[1.0]], D=[[1.0]], E=[[1.0]], b=[0.0] * 3)


def test_selector_kinds_and_shapes():
    n, m, p = 2, 3, 4
    w = np.arange(9.0)
    sf = selector("full", n, m, p)
    assert (sf.lo, sf.hi, sf.l, sf.k) == (0, 9, 9, 9) and sf.custom is None
    assert np.array_equal(sf.take(w), w)
    sx = selector("x", n, m, p)
    assert sx.k == 2 and np.array_equal(sx.take(w), [0.0, 1.0])
    sy = selector("y", n, m, p)
    assert sy.k == 3 and np.array_equal(sy.take(w), [2.0, 3.0, 4.0])
    sz = selector("z", n, m, p)
    assert sz.k == 4 and np.array_equal(sz.take(w), [5.0, 6.0, 7.0, 8.0])


def test_selector_custom_and_errors():
    smat = selector("custom", 1, 1, 1, custom_l=[[0.0, 1.0, 0.0]])
    assert smat.k == 1 and np.array_equal(smat.take(np.array([4.0, 5.0, 6.0])), [5.0])
    with pytest.raises(ValueError):
        selector("custom", 1, 1, 1)
    with pytest.raises(DimensionMismatch):
        selector("custom", 1, 1, 1, custom_l=[[1.0, 0.0]])
    with pytest.raises(DimensionMismatch):
        selector("custom", 1, 1, 1, custom_l=np.ones((4, 3)))
    with pytest.raises(DimensionMismatch):
        selector("custom", 1, 1, 1, custom_l=np.zeros((0, 3)))
    with pytest.raises(ValueError):
        selector("parts", 1, 1, 1)


def test_problem_dict_roundtrip():
    rng = np.random.default_rng(13)
    blocks = random_dspp(rng, 2, 3, 2)
    doc = problem_to_dict(blocks)
    back = problem_from_dict(doc)
    for name in "ABCDE":
        assert np.array_equal(getattr(back, name), getattr(blocks, name))
    assert np.array_equal(back.b, blocks.b)


def test_problem_from_dict_rejects_bad_documents():
    with pytest.raises(MalformedProblem):
        problem_from_dict([1, 2, 3])
    with pytest.raises(MalformedProblem):
        problem_from_dict({"n": 1})
    doc = problem_to_dict(hand_blocks())
    doc["n"] = 2
    with pytest.raises(MalformedProblem):
        problem_from_dict(doc)
    doc = problem_to_dict(hand_blocks())
    doc["A"] = [[1.0, 2.0]]
    with pytest.raises(MalformedProblem):
        problem_from_dict(doc)


def test_norm_fro_counts_b_and_c_twice():
    rng = np.random.default_rng(14)
    blocks = random_dspp(rng, 3, 2, 2)
    want = np.sqrt(
        np.sum(blocks.A ** 2) + 2 * np.sum(blocks.B ** 2) + 2 * np.sum(blocks.C ** 2)
        + np.sum(blocks.D ** 2) + np.sum(blocks.E ** 2)
    )
    assert abs(norm_fro_system(blocks) - want) < 1e-12 * want
