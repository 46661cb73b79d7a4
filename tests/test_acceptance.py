"""Acceptance gate: the eleven release criteria, one test each.

Every test appends a PASS/FAIL line to the terminal summary (see conftest),
so a plain ``pytest -v`` run shows the complete checklist.
"""

import subprocess
import sys
import time

import numpy as np
import scipy.sparse

import oracles
from conftest import ACCEPTANCE_LINES, random_dspp, rel_err
from oracles import definition_ratio, extremal_direction, first_order_residual, structure_basis
from dsppcond.dspp import DsppBlocks, norm_fro_system, selector, solve_dspp
from dsppcond.eils import EilsProblem, default_scalar_weights, eils_cn, eils_reduce
from dsppcond.experiments import (
    gen_example1,
    gen_example2,
    perturb,
    run_experiment,
)
from dsppcond.partial_cn import (
    DOMINANCE_RTOL,
    PerturbationWeights,
    SolvedSystem,
    inf_cn,
    inf_cn_upper,
    ncn,
    ncn_upper,
    unified_cn,
)
from dsppcond.structured import (
    STRUCTURE_KINDS,
    StructureTriple,
    structured_inf_cn,
    structured_ncn,
)

SELECTOR_CYCLE = ("full", "x", "y", "z")


def _report(num: int, desc: str, ok: bool, elapsed: float | None = None) -> None:
    suffix = f" ({elapsed:.1f}s)" if elapsed is not None else ""
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {desc}{suffix}"
    ACCEPTANCE_LINES.append(line)
    assert ok, line


def fifty_instances():
    """The shared random corpus for criteria 1 and 2."""
    rng = np.random.default_rng(2024)
    out = []
    for _ in range(50):
        n, m, p = (int(v) for v in rng.integers(2, 9, size=3))
        out.append(random_dspp(rng, n, m, p))
    return out


def test_criterion_01_formula_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for i, blocks in enumerate(fifty_instances()):
        sel = selector(SELECTOR_CYCLE[i % 4], blocks.n, blocks.m, blocks.p)
        psi = norm_fro_system(blocks)
        chi = float(np.linalg.norm(blocks.b, 2))
        a = oracles.ncn(blocks, sel, psi, chi)
        b = ncn(SolvedSystem.of(blocks, sel), psi, chi).value
        worst = max(worst, rel_err(a, b))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(1, f"direct and factored 2-norm formulas agree on 50 instances "
               f"(worst rel {worst:.2e})", ok, elapsed)


def test_criterion_02_dominance_suite():
    start = time.perf_counter()
    instances = fifty_instances()
    instances += [gen_example1(q, 42) for q in (4, 6, 8)]
    instances += [gen_example2(q, 42)[0] for q in (2, 3)]
    checked = 0
    ok = True
    for blocks in instances:
        psi = norm_fro_system(blocks)
        chi = float(np.linalg.norm(blocks.b, 2))
        for kind in SELECTOR_CYCLE:
            system = SolvedSystem.of(blocks, selector(kind, blocks.n, blocks.m, blocks.p))
            v2 = ncn(system, psi, chi).value
            u2 = ncn_upper(system, psi, chi).value
            vm = inf_cn(system, "mcn").value
            vc = inf_cn(system, "ccn").value
            um, uc = (v.value for v in inf_cn_upper(system))
            ok = ok and v2 <= u2 * (1 + DOMINANCE_RTOL)
            ok = ok and vm <= um * (1 + DOMINANCE_RTOL)
            ok = ok and vc <= uc * (1 + DOMINANCE_RTOL)
            checked += 3
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    _report(2, f"{checked} upper-bound dominances hold with <={DOMINANCE_RTOL:g} slack "
               f"(55 instances, 4 selectors)", ok, elapsed)


def test_criterion_03_definition_consistency():
    start = time.perf_counter()
    rng = np.random.default_rng(303)
    ok = True
    worst_gap = 0.0
    worst_attain = 0.0
    for i in range(5):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        sel = selector(SELECTOR_CYCLE[i % 4], n, m, p)
        psi = norm_fro_system(blocks)
        chi = float(np.linalg.norm(blocks.b, 2))
        scalar_w = PerturbationWeights.scalar(psi, chi)
        data_w = PerturbationWeights.from_problem(blocks)
        system = SolvedSystem.of(blocks, sel)
        cn2 = ncn(system, psi, chi).value
        vm = inf_cn(system, "mcn").value
        vc = inf_cn(system, "ccn").value
        mats = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
        for _ in range(1000):
            raw = tuple(rng.standard_normal(mat.shape) for mat in mats)
            masked = tuple(g * mat for g, mat in zip(raw, mats))
            r2 = definition_ratio(system, scalar_w, "ncn", "two", raw)
            rm = definition_ratio(system, data_w, "mcn", "inf", masked)
            rc = definition_ratio(system, data_w, "ccn", "inf", masked)
            worst_gap = max(worst_gap, r2 / cn2, rm / vm, rc / vc)
        deltas, sigma = extremal_direction(system, scalar_w, "ncn")
        attained = definition_ratio(system, scalar_w, "ncn", "two", deltas)
        worst_attain = max(worst_attain, rel_err(attained, cn2), rel_err(sigma, cn2))
    ok = worst_gap <= 1 + 1e-10 and worst_attain <= 1e-8
    elapsed = time.perf_counter() - start
    _report(3, f"5000 sampled directions stay below the condition numbers "
               f"(max ratio {worst_gap:.12f}) and the constructed direction "
               f"attains the 2-norm value (rel {worst_attain:.2e})", ok, elapsed)


def test_criterion_04_first_order_expansion():
    start = time.perf_counter()
    blocks = gen_example1(4, 42)
    check4 = first_order_residual(blocks, perturb(blocks, 4, 43))
    (_, r1), (_, r2), (_, r3) = check4.curve
    order1 = np.log2(r1 / r2)
    order2 = np.log2(r2 / r3)
    check8 = first_order_residual(blocks, perturb(blocks, 8, 43))
    rel = float(np.linalg.norm(check8.actual - check8.predicted, 2))
    rel /= float(np.linalg.norm(check8.actual, 2))
    ok = order1 >= 1.9 and order2 >= 1.9 and rel <= 1e-5
    elapsed = time.perf_counter() - start
    _report(4, f"remainder scales at orders {order1:.3f}, {order2:.3f} "
               f"and the magnitude-8 prediction is relative {rel:.2e}", ok, elapsed)


def test_criterion_05_error_bound_reproduction():
    start = time.perf_counter()
    rows = run_experiment("example1", list(range(4, 17, 2)), s=8, seed=42)
    ok = len(rows) == 28
    ratios_m, ratios_c = [], []
    for row in rows:
        ok = ok and row.r_k <= row.k2 and row.r_m <= row.km and row.r_c <= row.kc
        ratios_m.append(row.km / row.r_m)
        ratios_c.append(row.kc / row.r_c)
    ok = ok and all(1.0 <= r <= 1e3 for r in ratios_m + ratios_c)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 300.0
    _report(5, f"all 28 rows of the size sweep keep errors below predictions; "
               f"bound-to-error ratios span [{min(ratios_m + ratios_c):.1f}, "
               f"{max(ratios_m + ratios_c):.1f}]", ok, elapsed)


def test_criterion_06_upper_bound_sharpness():
    start = time.perf_counter()
    rows = run_experiment("example1", [4], s=8, seed=42)
    worst2 = max(row.k2_upper / row.k2 for row in rows)
    worstm = max(row.km_upper / row.km for row in rows)
    worstc = max(row.kc_upper / row.kc for row in rows)
    ok = worst2 <= 3.0 and worstm <= 1.5 and worstc <= 1.5
    elapsed = time.perf_counter() - start
    _report(6, f"bound overshoot factors {worst2:.3f} (<=3), {worstm:.3f} "
               f"(<=1.5), {worstc:.3f} (<=1.5) at q=4", ok, elapsed)


def test_criterion_07_structured_dominance():
    start = time.perf_counter()
    rows = run_experiment("example2", [2, 3, 4], s=8, seed=42, structured=True)
    ok = len(rows) == 12
    gain_m = 0
    gain_c = 0
    for row in rows:
        ok = ok and row.ncn_structured <= row.ncn_value * (1 + DOMINANCE_RTOL)
        ok = ok and row.mcn_structured <= row.mcn_value * (1 + DOMINANCE_RTOL)
        ok = ok and row.ccn_structured <= row.ccn_value * (1 + DOMINANCE_RTOL)
        gain_m += row.mcn_value / row.mcn_structured >= 1.05
        gain_c += row.ccn_value / row.ccn_structured >= 1.05
    ok = ok and gain_m >= 6 and gain_c >= 6
    elapsed = time.perf_counter() - start
    _report(7, f"structured values never exceed unstructured on 12 rows; "
               f"max-norm gains >=1.05x in {gain_m}/12 (mixed) and "
               f"{gain_c}/12 (componentwise) rows", ok, elapsed)


def test_criterion_08_structure_basis_algebra():
    start = time.perf_counter()
    ok = True
    for kind in STRUCTURE_KINDS:
        for dim in range(1, 65):
            basis = structure_basis(kind, dim)
            phi = oracles.phi(basis)
            gram = scipy.sparse.coo_array(phi.T @ phi)
            ok = ok and bool(np.all(gram.row == gram.col))
            dense_diag = np.zeros(basis.generators)
            dense_diag[gram.row] = gram.data
            ok = ok and np.array_equal(dense_diag, basis.counts.astype(float))
            ok = ok and np.array_equal(
                oracles.column_norms(basis), np.sqrt(basis.counts.astype(float))
            )
            ok = ok and float(phi.sum(axis=1).max()) <= 1.0
    rng = np.random.default_rng(808)
    worst = 0.0
    for i in range(5):
        n, m, p = (int(v) for v in rng.integers(2, 6, size=3))
        blocks = random_dspp(rng, n, m, p)
        triple = StructureTriple.full()
        sel = selector(SELECTOR_CYCLE[i % 4], n, m, p)
        psi = norm_fro_system(blocks)
        chi = float(np.linalg.norm(blocks.b, 2))
        weights = PerturbationWeights.scalar(psi, chi)
        system = SolvedSystem.of(blocks, sel)
        worst = max(worst, rel_err(
            structured_ncn(system, weights, "ncn", triple).value,
            oracles.ncn(blocks, sel, psi, chi),
        ))
        for flavor in ("mcn", "ccn"):
            worst = max(worst, rel_err(
                structured_inf_cn(system, flavor, triple).value,
                oracles.structured_inf(blocks, sel, flavor, triple),
            ))
    ok = ok and worst <= 1e-12
    elapsed = time.perf_counter() - start
    _report(8, f"basis Gram matrices are exact integer diagonals up to dim 64 "
               f"and full-structure values match unstructured (rel {worst:.2e})",
            ok, elapsed)


def random_eils(rng):
    n = int(rng.integers(4, 11))
    m = int(rng.integers(2, min(6, n - 1) + 1))
    p = int(rng.integers(1, min(3, m) + 1))
    mmat = rng.standard_normal((n, m))
    mmat[n - 1 :, :] *= 0.03
    return EilsProblem(
        M=mmat, C=rng.standard_normal((p, m)), n1=n - 1, n2=1,
        b=rng.standard_normal(n), d=rng.standard_normal(p),
    )


def test_criterion_09_eils_specialization():
    start = time.perf_counter()
    rng = np.random.default_rng(909)
    worst = 0.0
    constraint_ok = True
    for i in range(20):
        prob = random_eils(rng)
        blocks = eils_reduce(prob)
        psi, chi = default_scalar_weights(prob)
        chi_vec = np.concatenate([np.full(prob.n, chi), np.zeros(prob.m), np.full(prob.p, chi)])
        weights = PerturbationWeights.entrywise(
            np.zeros((prob.n, prob.n)),
            np.full((prob.m, prob.n), psi),
            np.full((prob.p, prob.m), psi),
            np.zeros((prob.m, prob.m)),
            np.zeros((prob.p, prob.p)),
            chi_vec,
        )
        system = SolvedSystem.of(blocks, selector(SELECTOR_CYCLE[i % 4], prob.n, prob.m, prob.p))
        for xi, norm in (("ncn", "two"), ("mcn", "inf"), ("ccn", "inf")):
            worst = max(worst, rel_err(
                eils_cn(system, psi, chi, xi, norm).value,
                unified_cn(system, weights, xi, norm).value,
            ))
        y = solve_dspp(blocks).y
        resid = float(np.linalg.norm(prob.C @ y - prob.d, 2))
        constraint_ok = constraint_ok and resid <= 1e-8 * max(1.0, float(np.linalg.norm(prob.d)))
    ok = worst <= 1e-12 and constraint_ok
    elapsed = time.perf_counter() - start
    _report(9, f"specialized values equal the zero-weighted general values on "
               f"20 instances (worst rel {worst:.2e}) and constraints hold",
            ok, elapsed)


def test_criterion_10_hand_oracle_values():
    blocks = DsppBlocks(
        A=np.eye(2), B=np.zeros((2, 2)), C=np.zeros((2, 2)),
        D=-np.eye(2), E=np.eye(2),
        b=np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0]),
    )
    system = SolvedSystem.of(blocks, selector("x", 2, 2, 2))
    vm = inf_cn(system, "mcn").value
    vc = inf_cn(system, "ccn").value
    um, uc = (v.value for v in inf_cn_upper(system))
    ok = all(abs(v - 2.0) <= 1e-14 for v in (vm, vc, um, uc))
    _report(10, f"identity system gives mcn={vm}, ccn={vc} and max-norm "
                f"bounds {um}, {uc}, all exactly 2", ok)


def test_criterion_11_determinism():
    start = time.perf_counter()
    argv = [sys.executable, "-m", "dsppcond.cli", "experiment", "example1",
            "--q", "4", "--seed", "42", "--s", "8"]
    first = subprocess.run(argv, capture_output=True, timeout=120)
    second = subprocess.run(argv, capture_output=True, timeout=120)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    ok = ok and first.stdout.startswith(b"# generator=")
    elapsed = time.perf_counter() - start
    _report(11, "two fresh-process experiment runs emit byte-identical CSV",
            ok, elapsed)
