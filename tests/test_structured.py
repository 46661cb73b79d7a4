"""Structured condition numbers: basis matrices, column scalings, dominance."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

import oracles
from conftest import random_dspp, rel_err
from oracles import structure_basis
from dsppcond.dspp import DsppBlocks, assemble, selector
from dsppcond.errors import DimensionMismatch, NotInSubspace
from dsppcond.experiments import gen_example2
from dsppcond.partial_cn import DOMINANCE_RTOL, PerturbationWeights, SolvedSystem, inf_cn, ncn
from dsppcond.structured import (
    STRUCTURE_KINDS,
    StructureTriple,
    _checked_kinds,
    structured_inf_cn,
    structured_ncn,
)


def basis_matrices(basis):
    phi = oracles.phi(basis).toarray()
    return [oracles.unvec(phi[:, j], basis.dim, basis.dim) for j in range(phi.shape[1])]


def test_symmetric_basis_hand_values():
    basis = structure_basis("symmetric", 2)
    assert basis.generators == 3
    g0, g1, g2 = basis_matrices(basis)
    assert np.array_equal(g0, [[1.0, 0.0], [0.0, 0.0]])
    assert np.array_equal(g1, [[0.0, 1.0], [1.0, 0.0]])
    assert np.array_equal(g2, [[0.0, 0.0], [0.0, 1.0]])
    assert np.array_equal(oracles.column_norms(basis), [1.0, np.sqrt(2.0), 1.0])


def test_toeplitz_basis_hand_values():
    basis = structure_basis("toeplitz_sym", 3)
    assert basis.generators == 3
    g0, g1, g2 = basis_matrices(basis)
    assert np.array_equal(g0, np.eye(3))
    assert np.array_equal(g1, [[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
    assert np.array_equal(g2, [[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    assert np.array_equal(oracles.column_norms(basis), [np.sqrt(3.0), 2.0, np.sqrt(2.0)])


def test_diagonal_and_full_bases():
    diag = structure_basis("diagonal", 4)
    assert diag.generators == 4
    assert np.array_equal(oracles.column_norms(diag), np.ones(4))
    for j, g in enumerate(basis_matrices(diag)):
        want = np.zeros((4, 4))
        want[j, j] = 1.0
        assert np.array_equal(g, want)
    full = structure_basis("full", 3)
    assert full.generators == 9
    assert np.array_equal(oracles.phi(full).toarray(), np.eye(9))
    assert np.array_equal(oracles.column_norms(full), np.ones(9))


def test_phi_gram_is_integer_diagonal_with_unit_row_sums():
    for kind in STRUCTURE_KINDS:
        for dim in range(1, 13):
            basis = structure_basis(kind, dim)
            phi = oracles.phi(basis).toarray()
            gram = phi.T @ phi
            counts = np.diag(gram)
            assert np.array_equal(gram, np.diag(counts))
            assert np.array_equal(counts, counts.astype(np.int64).astype(np.float64))
            assert np.all(counts >= 1)
            assert np.array_equal(basis.counts.astype(float), counts)
            assert np.array_equal(oracles.column_norms(basis), np.sqrt(counts))
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
        mat = oracles.reconstruct(basis, params)
        assert np.array_equal(basis.extract(mat), params)
        assert np.array_equal(oracles.reconstruct(basis, basis.extract(mat)), mat)


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
    # The structured and unstructured numbers share one route, so the full
    # triple is checked against the materialized maps, not against inf_cn.
    rng = np.random.default_rng(41)
    for _ in range(5):
        n, m, p = (int(v) for v in rng.integers(2, 5, size=3))
        triple = StructureTriple.full()
        blocks = random_dspp(rng, n, m, p)
        psi = float(np.linalg.norm(assemble(blocks)))
        chi = float(np.linalg.norm(blocks.b))
        weights = PerturbationWeights.scalar(psi, chi)
        for kind in ("full", "x", "y", "z"):
            sel = selector(kind, n, m, p)
            system = SolvedSystem.of(blocks, sel)
            s2 = structured_ncn(system, weights, "ncn", triple)
            assert rel_err(s2.value, oracles.ncn(blocks, sel, psi, chi)) < 1e-12
            for xi in ("mcn", "ccn"):
                got = structured_inf_cn(system, xi, triple).value
                assert rel_err(got, oracles.structured_inf(blocks, sel, xi, triple)) < 1e-12


def test_structured_never_exceeds_unstructured():
    rng = np.random.default_rng(42)
    for _ in range(6):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        triple = StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
        blocks = symmetric_toeplitz_instance(rng, n, m, p)
        psi = float(np.linalg.norm(assemble(blocks)))
        chi = float(np.linalg.norm(blocks.b))
        for kind in ("full", "x", "y", "z"):
            system = SolvedSystem.of(blocks, selector(kind, n, m, p))
            s2 = structured_ncn(system, PerturbationWeights.scalar(psi, chi), "ncn", triple)
            assert s2.value <= ncn(system, psi, chi).value * (1 + DOMINANCE_RTOL)
            for flavor in ("mcn", "ccn"):
                sv = structured_inf_cn(system, flavor, triple)
                assert sv.value <= inf_cn(system, flavor).value * (1 + DOMINANCE_RTOL)
                assert sv.flavor == "structuredInf"


def test_structured_flavor_labels_and_validation():
    rng = np.random.default_rng(43)
    blocks = symmetric_toeplitz_instance(rng, 3, 3, 2)
    sel = selector("x", 3, 3, 2)
    system = SolvedSystem.of(blocks, sel)
    triple = StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
    weights = PerturbationWeights.scalar(1.0, 1.0)
    assert structured_ncn(system, weights, "ncn", triple).flavor == "structured2"
    assert triple == ("symmetric", "toeplitz_sym", "toeplitz_sym")
    with pytest.raises(ValueError):
        structured_inf_cn(system, "ncn", triple)
    for make in (lambda: StructureTriple("circulant", "full", "full"),
                 lambda: triple._replace(d="circulant")):
        with pytest.raises(ValueError):
            make()
    with pytest.raises(NotInSubspace):
        structured_ncn(SolvedSystem.of(random_dspp(rng, 3, 3, 2), sel), weights, "ncn", triple)


def test_structured_memory_stays_within_budget():
    # A 128 MB ceiling, far above the chunked kernels' need; the
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


def test_membership_check_memory_stays_within_two_blocks():
    # The check reads each kind off the matrix itself; the index maps of
    # structure_basis alone were several dim^2 int64 arrays.
    rng = np.random.default_rng(44)
    dim = 1024
    dense = rng.standard_normal((dim, dim))
    members = {
        "symmetric": dense + dense.T,
        "toeplitz_sym": scipy.linalg.toeplitz(rng.standard_normal(dim)),
        "diagonal": np.diag(rng.standard_normal(dim)),
        "full": dense,
    }
    for kind, mat in members.items():
        tracemalloc.start()
        try:
            _checked_kinds((kind,), (mat,))
            if kind != "full":
                with pytest.raises(NotInSubspace):
                    _checked_kinds((kind,), (dense,))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2 * dense.nbytes + 2**20, kind
