"""Structured condition numbers: basis matrices, column scalings, dominance."""

import tracemalloc

import numpy as np
import pytest

import oracles
from conftest import random_dspp, rel_err
from dsppcond.dspp import DsppBlocks, assemble, selector
from dsppcond.errors import DimensionMismatch, NotInSubspace
from dsppcond.experiments import gen_example2
from dsppcond.linalg import unvec
from dsppcond.partial_cn import PerturbationWeights, SolvedSystem, inf_cn, ncn
from dsppcond.structured import (
    STRUCTURE_KINDS,
    StructureTriple,
    structure_basis,
    structured_inf_cn,
    structured_ncn,
)


def basis_matrices(basis):
    phi = basis.phi.toarray()
    return [unvec(phi[:, j], basis.dim, basis.dim) for j in range(phi.shape[1])]


def test_symmetric_basis_hand_values():
    basis = structure_basis("symmetric", 2)
    assert basis.generators == 3
    g0, g1, g2 = basis_matrices(basis)
    assert np.array_equal(g0, [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(g1, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g2, [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(basis.u, [1.0, np.sqrt(2.0), 1.0])


def test_toeplitz_basis_hand_values():
    basis = structure_basis("toeplitz_sym", 3)
    assert basis.generators == 3
    g0, g1, g2 = basis_matrices(basis)
    assert np.array_equal(g0, np.eye(3))
    assert np.array_equal(g1, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(g2, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(basis.u, [np.sqrt(3.0), 2.0, np.sqrt(2.0)])


def test_diagonal_and_full_bases():
    diag = structure_basis("diagonal", 4)
    assert diag.generators == 4
    assert np.array_equal(diag.u, np.ones(4))
    for j, g in enumerate(basis_matrices(diag)):
        want = np.zeros((4, 4))
        want[j, j] = 1.0
        assert np.array_equal(g, want)
    full = structure_basis("full", 3)
    assert full.generators == 9
    assert np.array_equal(full.phi.toarray(), np.eye(9))
    assert np.array_equal(full.u, np.ones(9))


def test_phi_gram_is_integer_diagonal_with_unit_row_sums():
    for kind in STRUCTURE_KINDS:
        for dim in range(1, 13):
            basis = structure_basis(kind, dim)
            phi = basis.phi.toarray()
            gram = phi.T @ phi
            counts = np.diag(gram)
            assert np.array_equal(gram, np.diag(counts))
            assert np.array_equal(counts, counts.astype(np.int64).astype(np.float64))
            assert np.all(counts >= 1)
            assert np.array_equal(basis.counts.astype(float), counts)
            assert np.array_equal(basis.u, np.sqrt(counts))
            # Each matrix entry belongs to at most one generator, exactly one
            # for kinds that span every entry.
            row_sums = phi.sum(axis=1)
            if kind == "diagonal":
                assert np.all(row_sums <= 1.0)
                assert np.sum(row_sums) == dim
            else:
                assert np.array_equal(row_sums, np.ones(dim * dim))


def test_basis_matches_entry_by_entry_walk():
    for kind in STRUCTURE_KINDS:
        for dim in range(1, 13):
            basis = structure_basis(kind, dim)
            pairs = sorted(zip(basis.rows.tolist(), basis.cols.tolist()))
            assert pairs == oracles.structure_pairs(kind, dim)


def test_extract_reconstruct_round_trip():
    rng = np.random.default_rng(40)
    for kind, dim in (("symmetric", 5), ("toeplitz_sym", 6), ("diagonal", 4), ("full", 3)):
        basis = structure_basis(kind, dim)
        # Dyadic values survive the sum-then-average in extract exactly.
        params = rng.integers(-8, 9, size=basis.generators) * 0.125
        mat = basis.reconstruct(params)
        assert np.array_equal(basis.extract(mat), params)
        assert np.array_equal(basis.reconstruct(basis.extract(mat)), mat)


def test_extract_rejects_outside_subspace():
    asym = np.array([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(NotInSubspace):
        structure_basis("symmetric", 2).extract(asym)
    with pytest.raises(NotInSubspace):
        structure_basis("diagonal", 2).extract(asym)
    with pytest.raises(NotInSubspace):
        structure_basis("toeplitz_sym", 2).extract(np.array([[1.0, 2.0], [2.0, 5.0]]))
    with pytest.raises(DimensionMismatch):
        structure_basis("symmetric", 3).extract(asym)
    with pytest.raises(ValueError):
        structure_basis("circulant", 3)
    with pytest.raises(DimensionMismatch):
        structure_basis("symmetric", 0)


def symmetric_toeplitz_instance(rng, n, m, p):
    """Random instance whose A is symmetric and D, E symmetric Toeplitz."""
    a = rng.standard_normal((n, n))
    a = a + a.T
    first_d = rng.standard_normal(m)
    first_e = rng.standard_normal(p)
    d = np.empty((m, m))
    for i in range(m):
        for j in range(m):
            d[i, j] = first_d[abs(i - j)]
    e = np.empty((p, p))
    for i in range(p):
        for j in range(p):
            e[i, j] = first_e[abs(i - j)]
    return DsppBlocks(
        A=a, B=rng.standard_normal((m, n)), C=rng.standard_normal((p, m)),
        D=d, E=e, b=rng.standard_normal(n + m + p),
    )


def test_full_triple_degenerates_to_unstructured():
    rng = np.random.default_rng(41)
    for _ in range(5):
        n, m, p = (int(v) for v in rng.integers(2, 5, size=3))
        triple = StructureTriple.full(n, m, p)
        blocks = random_dspp(rng, n, m, p)
        psi = float(np.linalg.norm(assemble(blocks)))
        chi = float(np.linalg.norm(blocks.b))
        weights = PerturbationWeights.scalar(psi, chi)
        for kind in ("full", "x", "y", "z"):
            sel = selector(kind, n, m, p)
            system = SolvedSystem.of(blocks, sel)
            s2 = structured_ncn(system, weights, "ncn", triple)
            assert rel_err(s2.value, oracles.ncn(blocks, sel, psi, chi)) < 1e-12
            sm = structured_inf_cn(system, "mcn", triple)
            sc = structured_inf_cn(system, "ccn", triple)
            assert rel_err(sm.value, inf_cn(system, "mcn").value) < 1e-12
            assert rel_err(sc.value, inf_cn(system, "ccn").value) < 1e-12


def test_structured_never_exceeds_unstructured():
    rng = np.random.default_rng(42)
    for _ in range(6):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        triple = StructureTriple.from_kinds("symmetric", "toeplitz_sym", "toeplitz_sym", n, m, p)
        blocks = symmetric_toeplitz_instance(rng, n, m, p)
        psi = float(np.linalg.norm(assemble(blocks)))
        chi = float(np.linalg.norm(blocks.b))
        for kind in ("full", "x", "y", "z"):
            system = SolvedSystem.of(blocks, selector(kind, n, m, p))
            s2 = structured_ncn(system, PerturbationWeights.scalar(psi, chi), "ncn", triple)
            assert s2.value <= ncn(system, psi, chi).value * (1 + 1e-9)
            for flavor in ("mcn", "ccn"):
                sv = structured_inf_cn(system, flavor, triple)
                assert sv.value <= inf_cn(system, flavor).value * (1 + 1e-9)
                assert sv.flavor == "structuredInf"


def test_structured_flavor_labels_and_validation():
    rng = np.random.default_rng(43)
    blocks = symmetric_toeplitz_instance(rng, 3, 3, 2)
    sel = selector("x", 3, 3, 2)
    system = SolvedSystem.of(blocks, sel)
    triple = StructureTriple.from_kinds("symmetric", "toeplitz_sym", "toeplitz_sym", 3, 3, 2)
    weights = PerturbationWeights.scalar(1.0, 1.0)
    assert structured_ncn(system, weights, "ncn", triple).flavor == "structured2"
    assert triple.kinds() == {"A": "symmetric", "D": "toeplitz_sym", "E": "toeplitz_sym"}
    with pytest.raises(ValueError):
        structured_inf_cn(system, "ncn", triple)
    bad = StructureTriple(
        a=structure_basis("symmetric", 4),
        d=structure_basis("toeplitz_sym", 3),
        e=structure_basis("toeplitz_sym", 2),
    )
    with pytest.raises(DimensionMismatch):
        structured_ncn(system, weights, "ncn", bad)
    with pytest.raises(NotInSubspace):
        structured_ncn(SolvedSystem.of(random_dspp(rng, 3, 3, 2), sel), weights, "ncn", triple)


def test_structured_memory_stays_within_budget():
    # The 128 MB budget documented on partial_cn._CHUNK_ENTRY_LIMIT; the
    # materialized k x s maps peaked near 900 MB on this l = 406 instance.
    blocks, triple = gen_example2(7, 42)
    sel = selector("full", blocks.n, blocks.m, blocks.p)
    weights = PerturbationWeights.scalar(1.0, 1.0)
    tracemalloc.start()
    try:
        system = SolvedSystem.of(blocks, sel)
        structured_ncn(system, weights, "ncn", triple)
        structured_inf_cn(system, "mcn", triple)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 128 * 2**20
