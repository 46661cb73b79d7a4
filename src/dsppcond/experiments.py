"""Perturbation experiments validating the closed-form condition numbers.

Two reproducible problem families, componentwise random perturbations of the
form 10^(-s) * g . data (g standard normal, entrywise product), measured
forward errors against condition-number predictions, and deterministic
CSV/JSON reports.

Randomness: every stream comes from numpy's PCG64 bit generator with
standard_normal variates (ziggurat). A family generator consumes its draws in
a documented order (example1: b; example2: d, e, b) and a perturbation draws
A, B, C, D, E, b in that order, column-major within each block, every entry
of a CSR block too. Experiment rows derive child seeds from
SeedSequence((seed, q, selector_index)), so rows are independent.

Storage: example1's blocks are :class:`~dsppcond.dspp.CsrMatrix` blocks from
generation on, and so are their perturbations, so every stage of a task but
L S^{-1} runs in O(nnz) memory; example2's are dense.

Perturbed solves: a row's solution change dw = w~ - w is refined in
increment form (:func:`perturbed_change`) on its system's factors wherever
the estimate ||dS||_1 / (rcond ||S||_1) of ||S^-1 dS||_1 is below 1/2 and w~
passes the solve's residual test, and otherwise on a factorization of
S + dS. At
s = 8 every row of the benchmark sweep refines on S's factors, so a system
is factorized once for all its rows.

Tasks: rows that share one system matrix run as one task, whose rows share
one :class:`~dsppcond.partial_cn.Factors`: the system is factorized once and
each part x, y, z of S^{-1} solved at most once; a row's L S^{-1} is a
read-only view of those rows. example1's A..E depend on q alone, so the
selectors of one q share a task; example2 draws D and E per row, so each of
its rows is a task. A system whose l^3 exceeds about one worker's share of
the experiment's sum of l^3 is split into several tasks, unless it has a
full row, and tasks run largest system first. A task holds S's LU only
while something solves with it: it measures every row of a system (solve,
perturb, refine, errors), forms their L S^{-1}, releases the factors, and
only then computes the numbers, which read L S^{-1}, the solution and the
blocks alone. The 2-norm bounds come last, with the blocks released, on one
Gram per maximal range of the task's rows, formed in those rows of
L S^{-1}.

Parallelism: every row runs with numpy's OpenBLAS, which does all the
package's BLAS and LAPACK work, on one thread, and each part of S^{-1} is
always solved by the same call, so a report is bitwise the same whatever
the core count, OPENBLAS_NUM_THREADS or task split, and any subset of rows
reproduces in isolation (see run_experiment for K2U). run_experiment
computes the tasks of a large enough experiment in a pool of forked worker
processes, one per usable CPU up to one per row and no more than free
memory holds; the others run in the calling process, with the same results.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import threading
import tracemalloc
from dataclasses import dataclass, replace

import numpy as np

from ._report import DEFAULT_SELECTORS, FAMILIES, RNG_ALGORITHM, format_float, report_meta
from .dspp import (
    CsrMatrix, DsppBlocks, Selector, Solution, _added, _block_product, _max_ratio, _residual_bound,
    _system_norms, _system_sumsq, _times_draws, factorize, norm_fro_system, selector, solve_dspp,
)
from .errors import SingularMatrix, ZeroXi
from .linalg import _CHUNK_ENTRY_LIMIT, BandLuSolver, LuSolver, _blas_single_thread, _norm_upper, ddagger
from .partial_cn import Factors, PerturbationWeights, SolvedSystem, _ncn_upper, inf_cn, inf_cn_upper, ncn
from .structured import StructureTriple, structured_inf_cn, structured_ncn

# CSV layout; the structured columns appear only when rows carry them.
CSV_COLUMNS = ["selector", "q", "r_k", "K2", "K2U", "r_m", "Km", "KmU", "r_c", "Kc", "KcU", "eps1", "eps2"]
CSV_STRUCTURED_COLUMNS = ["ncn", "ncn_s", "mcn", "mcn_s", "ccn", "ccn_s"]


def _generator(seed) -> np.random.Generator:
    seed = int(seed)
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return np.random.Generator(np.random.PCG64(seed))


def _kron(a, b, q: int) -> tuple:
    """kron(a, b) for a and a q x q b in coordinate form (rows, cols, values)."""
    (ra, ca, va), (rb, cb, vb) = a, b
    return (ra[:, None] * q + rb).ravel(), (ca[:, None] * q + cb).ravel(), (va[:, None] * vb).ravel()


def _csr(shape, *parts) -> CsrMatrix:
    """The sum of the coordinate-form ``parts``, each at a (row, column) offset."""
    placed = [(r + r0, c + c0, v) for (r, c, v), r0, c0 in parts]
    return CsrMatrix.from_entries(*(np.concatenate(t) for t in zip(*placed)), shape)


def gen_example1(q: int, seed) -> DsppBlocks:
    """Discretized-flow family of size l = 4 q^2 (n = 2q^2, m = p = q^2).

    A stacks two copies of the 2-D Laplacian I kron J + J kron I with
    J = tridiag(-1, 2, -1)/(q+1)^2; B = [I kron Z, Z kron I] with the
    one-sided difference Z = tridiag(0, 1, -1)/(q+1); C = Y kron Z with
    Y = diag(1, q+1, ..., q^2-q+1); D and E are identities; b is standard
    normal from the seed. The blocks are built from their nonzeros straight
    into :class:`~dsppcond.dspp.CsrMatrix` form, with np.kron's values.
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    rhs = _example1_rhs(q, seed)
    i, qq = np.arange(q), q * q
    eye, y = (i, i, np.ones(q)), (i, i, 1.0 + q * i)
    j = (np.r_[i, i[1:], i[:-1]], np.r_[i, i[:-1], i[1:]], np.r_[2.0 * np.ones(q), -np.ones(2 * q - 2)] / (q + 1) ** 2)
    z = (np.r_[i, i[:-1]], np.r_[i, i[1:]], np.r_[np.ones(q), -np.ones(q - 1)] / (q + 1))
    lap = (_kron(eye, j, q), _kron(j, eye, q))  # their diagonals add up
    a = _csr((2 * qq, 2 * qq), *((part, off, off) for off in (0, qq) for part in lap))
    b = _csr((qq, 2 * qq), (_kron(eye, z, q), 0, 0), (_kron(z, eye, q), 0, qq))
    c = _csr((qq, qq), (_kron(y, z, q), 0, 0))
    d, e = (_csr((qq, qq), (_kron(eye, eye, q), 0, 0)) for _ in range(2))
    return DsppBlocks(A=a, B=b, C=c, D=d, E=e, b=rhs)


def _toeplitz(gen) -> np.ndarray:
    """The symmetric Toeplitz matrix T_ij = gen[|i - j|]."""
    idx = np.arange(gen.size)
    return gen[np.abs(idx[:, None] - idx[None, :])]


def _example1_rhs(q: int, seed) -> np.ndarray:
    """The right-hand side of :func:`gen_example1`, its one seeded draw."""
    return _generator(seed).standard_normal(4 * q * q)


def gen_example2(q: int, seed) -> tuple[DsppBlocks, StructureTriple]:
    """Kernel-regularization family of size l = 8 q^2 + 2 q, with structure.

    With qt = q^2 and qh = q(q+1): A = blkdiag(2 Z Z^T + I, S2, S3) where
    Z_ij = exp(-2 ((i/3)^2 + (j/3)^2)) on a qh grid and S2, S3 are the
    documented polynomial diagonals; B = [N, -I, I] with N stacking
    N_hat kron I and I kron N_hat for N_hat = bidiag(2, -1) of shape
    q x (q+1); C = [M_hat kron I, I kron M_hat] for the documented M_hat; D
    and E are random symmetric Toeplitz (generators drawn in order d, e); b
    standard normal. Returns the blocks and the matching structure triple
    (symmetric, toeplitz_sym, toeplitz_sym).
    """
    if q < 2:
        raise ValueError("q must be >= 2")
    rng = _generator(seed)
    qt = q * q
    qh = q * (q + 1)
    idx = np.arange(1, qh + 1) / 3.0
    zmat = np.exp(-2.0 * (idx[:, None] ** 2 + idx[None, :] ** 2))
    s2 = np.concatenate([np.ones(qt), 1e-5 * np.arange(1, qt + 1) ** 2])
    s3 = 1e-5 * (np.arange(1, 2 * qt + 1) + qt) ** 2
    a = np.diag(np.concatenate([np.zeros(qh), s2, s3]))
    a[:qh, :qh] = 2.0 * zmat @ zmat.T + np.eye(qh)

    nhat = np.zeros((q, q + 1))
    nhat[np.arange(q), np.arange(q)] = 2.0
    nhat[np.arange(q), np.arange(1, q + 1)] = -1.0
    eye_q = np.eye(q)
    nmat = np.vstack([np.kron(nhat, eye_q), np.kron(eye_q, nhat)])
    bmat = np.hstack([nmat, -np.eye(2 * qt), np.eye(2 * qt)])

    off = np.abs(np.subtract.outer(np.arange(q), np.arange(q)))
    mhat = np.vstack([(-1.0) ** off * (q - off) / q, np.eye(1, q, q - 1)])
    np.fill_diagonal(mhat, q * np.arange(1, q + 1) + 1.0)
    cmat = np.hstack([np.kron(mhat, eye_q), np.kron(eye_q, mhat)])

    n, m, p = 5 * qt + q, 2 * qt, qt + q
    dgen = rng.standard_normal(m)
    egen = rng.standard_normal(p)
    rhs = rng.standard_normal(n + m + p)
    blocks = DsppBlocks(
        A=a, B=bmat, C=cmat,
        D=_toeplitz(dgen), E=_toeplitz(egen), b=rhs,
    )
    return blocks, StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")


@dataclass(frozen=True)
class PerturbationSet:
    """Componentwise perturbation deltas of all blocks, at magnitude 10^-s."""

    dA: np.ndarray
    dB: np.ndarray
    dC: np.ndarray
    dD: np.ndarray
    dE: np.ndarray
    db: np.ndarray
    s: int

    @property
    def deltas(self) -> tuple:
        return (self.dA, self.dB, self.dC, self.dD, self.dE, self.db)


def perturb(blocks: DsppBlocks, s: int, seed) -> PerturbationSet:
    """Draw dX = 10^-s * g . X for every block and the right-hand side.

    Draw order is A, B, C, D, E, b; within a block the normal stream fills
    column-major, in chunks of whole columns of at most ``_CHUNK_ENTRY_LIMIT``
    entries (one column, if longer), which equal one draw. Each chunk times
    10^-s times the block's matching columns fills the delta, so entries are
    (g 10^-s) x, zero data entries stay exactly zero, and no block-sized
    temporary is formed. A delta takes its block's form: C-ordered for an
    ndarray; for a :class:`~dsppcond.dspp.CsrMatrix`, its values at the
    block's stored entries, on the block's own index arrays. Every entry is
    drawn in either form, so the stream and the deltas are the same.
    """
    s = int(s)
    if s < 1:
        raise ValueError("magnitude exponent s must be >= 1")
    rng, data = _generator(seed), (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    width = [max(1, _CHUNK_ENTRY_LIMIT // max(1, mat.shape[0])) for mat in data]
    return PerturbationSet(*(_times_draws(mat, rng, 10.0 ** (-s), w) for mat, w in zip(data, width)), s=s)


def apply_perturbation(blocks: DsppBlocks, pert: PerturbationSet) -> DsppBlocks:
    """The perturbed blocks: each block plus its delta, CSR where either is."""
    data = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    return DsppBlocks(*(_added(x, d) for x, d in zip(data, pert.deltas)))


def perturbed_change(
    blocks: DsppBlocks, sol: Solution, lu: LuSolver | BandLuSolver, pert: PerturbationSet
) -> np.ndarray:
    """The solution change dw = w~ - w of the perturbed system
    (S + dS) w~ = b + db, from ``sol``, S w = b, and ``lu``, S's factors.

    One algorithm, iterative refinement in increment form (Skeel, Math.
    Comp. 35, 1980; Higham, Accuracy and Stability of Numerical Algorithms,
    ch. 12) on factors F: with r0 = db - dS w, dw <- dw + F^-1 (r0 - S dw -
    dS dw), S and dS applied blockwise, while each correction's 1-norm is
    below half the previous one's. dw is not the difference of two nearby
    solutions, so it has no cancellation. It is accepted when the residual
    of w~ = w + dw, (b - S w) + (r0 - (S + dS) dw), passes the solve's test
    (:func:`~dsppcond.dspp._residual_bound`) with F's ||S + dS||_inf.

    An estimate picks F: rho = ||dS||_1 / (rcond ||S||_1), with the rcond
    and ||S||_1 that ``lu`` kept, estimates ||S^-1 dS||_1. rcond is
    ``dgecon``'s (or ``dgbcon``'s) estimate, at least the true value, so rho
    can fall below ||S^-1||_1 ||dS||_1; it is no proof that S + dS is
    nonsingular. If
    rho < 1/2 and the estimated rcond (1 - rho) / (1 + rho rcond) of S + dS
    clears the floor l eps of :class:`~dsppcond.linalg.LuSolver`, F is
    ``lu``: no perturbed block or l x l matrix is formed, and the test takes
    the lower end ||S||_inf - ||dS||_inf (||dS|| blockwise from the deltas),
    so it is at least as strict. The residual test is the acceptance rule.
    Otherwise, or where that w~ fails the test, F is a factorization of
    S + dS, with its own ||.||_inf; a singular S + dS, or a w~ that fails
    there too, raises :class:`~dsppcond.errors.SingularMatrix`.
    """
    mats = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)
    deltas = pert.deltas[:5]
    d_one, d_inf = _system_norms(deltas)
    rho = d_one / (lu.rcond * lu.norm_one)
    certified = rho < 0.5 and lu.rcond * (1.0 - rho) / (1.0 + rho * lu.rcond) >= blocks.l * np.finfo(float).eps

    def attempts():
        if certified:
            yield lu, lu.norm_inf - d_inf
        tilde = factorize(apply_perturbation(blocks, pert))
        yield tilde, tilde.norm_inf

    cuts = [blocks.n, blocks.n + blocks.m]
    r0 = pert.db - _block_product(deltas, sol.x, sol.y, sol.z)
    for f, norm_inf in attempts():
        dw, r, size = np.zeros(blocks.l), r0, np.inf
        while True:
            c = f.solve(r)
            step = float(np.linalg.norm(c, 1))
            if not step < size / 2:
                break
            dw += c
            size = step
            parts = np.split(dw, cuts)
            r = r0 - _block_product(mats, *parts) - _block_product(deltas, *parts)
        resid = float(np.linalg.norm(blocks.b - _block_product(mats, sol.x, sol.y, sol.z) + r))
        bound = _residual_bound(norm_inf, sol.w + dw, blocks.b + pert.db)
        if resid <= bound:
            return dw
    raise SingularMatrix(f"perturbed solve residual {resid:.3e} exceeds {bound:.3e}")


def forward_errors(sol: Solution, dw: np.ndarray, sel: Selector) -> tuple[float, float, float]:
    """Measured relative changes of L w by the solution change ``dw``:
    2-norm, max-norm, componentwise."""
    lw = sel.take(sol.w)
    dlw = sel.take(dw)
    n2 = float(np.linalg.norm(lw, 2))
    ninf = float(np.max(np.abs(lw)))
    if n2 == 0.0 or ninf == 0.0:
        raise ZeroXi("L w is zero, relative forward errors are undefined")
    r_k = float(np.linalg.norm(dlw, 2)) / n2
    r_m = float(np.max(np.abs(dlw))) / ninf
    r_c = float(np.max(np.abs(ddagger(lw) * dlw)))
    return r_k, r_m, r_c


def epsilons(pert: PerturbationSet, blocks: DsppBlocks) -> tuple[float, float]:
    """Normwise and componentwise perturbation magnitudes.

    eps1 compares Frobenius norms of the assembled [dS, db] against [S, b]
    (B and C enter twice, computed blockwise). eps2 is the smallest eps with
    |dS| <= eps |S| and |db| <= eps |b|; a perturbation on a zero data entry
    raises :class:`IncompatibleZeroPattern`. The check and eps2 read each
    block and its delta by :func:`~dsppcond.dspp._max_ratio`: a dense pair
    by row chunks, a CSR one by its nonzeros.
    """
    num = _system_sumsq(pert.deltas[:5]) + float(np.vdot(pert.db, pert.db))
    den = _system_sumsq((blocks.A, blocks.B, blocks.C, blocks.D, blocks.E)) + float(np.vdot(blocks.b, blocks.b))
    eps1 = float(np.sqrt(num / den))

    data = (blocks.A, blocks.B, blocks.C, blocks.D, blocks.E, blocks.b)
    eps2 = max(_max_ratio(delta, base) for delta, base in zip(pert.deltas, data))
    return eps1, eps2


@dataclass(frozen=True)
class ExperimentRow:
    """One measured row: forward errors against eps-scaled predictions.

    K2/K2U premultiply the 2-norm condition number and its bound by eps1;
    Km/KmU and Kc/KcU premultiply the max-norm pair by eps2. When structured
    values are computed, the raw (un-premultiplied) condition numbers and
    their structured counterparts ride along.
    """

    selector: str
    q: int
    r_k: float
    k2: float
    k2_upper: float
    r_m: float
    km: float
    km_upper: float
    r_c: float
    kc: float
    kc_upper: float
    eps1: float
    eps2: float
    ncn_value: float | None = None
    ncn_structured: float | None = None
    mcn_value: float | None = None
    mcn_structured: float | None = None
    ccn_value: float | None = None
    ccn_structured: float | None = None

    def __post_init__(self):
        for name in ("r_k", "k2", "k2_upper", "r_m", "km", "km_upper", "r_c", "kc", "kc_upper", "eps1", "eps2"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")

    @property
    def has_structured(self) -> bool:
        return self.ncn_structured is not None


def _row_seeds(seed, q: int, selector_index: int) -> tuple[int, int]:
    ss = np.random.SeedSequence(entropy=(int(seed), int(q), int(selector_index)))
    gen_seed, pert_seed = ss.generate_state(2, dtype=np.uint64)
    return int(gen_seed), int(pert_seed)


def _family_system(
    family: str, q: int, gen_seed: int, prev: DsppBlocks | None
) -> tuple[DsppBlocks, StructureTriple]:
    """The family's blocks at size q and the structure of its A, D, E.

    example1's A..E depend on q only, so given the blocks ``prev`` of an
    earlier row at the same q, the row keeps prev's A..E arrays and draws
    only its b, from the stream :func:`gen_example1` uses.
    """
    if family == "example1":
        triple = StructureTriple("symmetric", "toeplitz_sym", "toeplitz_sym")
        if prev is None:
            return gen_example1(q, gen_seed), triple
        return replace(prev, b=_example1_rhs(q, gen_seed)), triple
    return gen_example2(q, gen_seed)


def _measure(
    blocks: DsppBlocks, sol: Solution, lu: LuSolver | BandLuSolver, sel: Selector, s, pert_seed
) -> tuple:
    """r_k, r_m, r_c, eps1 and eps2 of one row: perturb, refine the
    solution change on ``lu``, S's factors (or on those of S + dS), and
    measure. The perturbation is released on return."""
    pert = perturb(blocks, s, pert_seed)
    dw = perturbed_change(blocks, sol, lu, pert)
    return (*forward_errors(sol, dw, sel), *epsilons(pert, blocks))


def _predict(system: SolvedSystem, triple, q, measured, structured) -> tuple[dict, float, float]:
    """The fields of one solved system's row that read its data blocks: its
    measured ``(r_k, r_m, r_c, eps1, eps2)`` against every prediction but
    the 2-norm bound, and the weights psi, chi that the bound takes
    (:func:`_system_rows`'s phase 4)."""
    blocks, sel = system.blocks, system.sel
    r_k, r_m, r_c, eps1, eps2 = measured
    psi = norm_fro_system(blocks)
    chi = float(np.linalg.norm(blocks.b, 2))
    cn2 = ncn(system, psi, chi).value
    mcn_v = inf_cn(system, "mcn").value
    ccn_v = inf_cn(system, "ccn").value
    mcn_u, ccn_u = (v.value for v in inf_cn_upper(system))

    extra = {}
    if structured:
        w = PerturbationWeights.scalar(psi, chi)
        extra = dict(
            ncn_value=cn2,
            ncn_structured=structured_ncn(system, w, "ncn", triple).value,
            mcn_value=mcn_v,
            mcn_structured=structured_inf_cn(system, "mcn", triple).value,
            ccn_value=ccn_v,
            ccn_structured=structured_inf_cn(system, "ccn", triple).value,
        )
    fields = dict(
        selector=sel.kind, q=int(q),
        r_k=r_k, k2=eps1 * cn2,
        r_m=r_m, km=eps2 * mcn_v, km_upper=eps2 * mcn_u,
        r_c=r_c, kc=eps2 * ccn_v, kc_upper=eps2 * ccn_u,
        eps1=eps1, eps2=eps2, **extra,
    )
    return fields, psi, chi


def _system_rows(family, q, rows, s, seed, structured) -> list[ExperimentRow]:
    """The experiment rows ``rows``, (selector index, selector kind) pairs
    whose systems share one matrix S, in phases that hold S's LU only while
    something solves with it, and the data blocks only while something
    reads them:

    1. measure each row: solve, perturb, refine the solution change and
       take its errors and eps1, eps2 (:func:`_measure`);
    2. form each row's L S^{-1} from one :class:`Factors`, which solves each
       part of S^{-T} the rows read once;
    3. release the factors, then compute every row's numbers but the
       2-norm bound (:func:`_predict`), which read L S^{-1}, the solution
       and the blocks;
    4. release the blocks, then certify every row's 2-norm bound on the
       Gram of its maximal range, the widest of the task that holds it: one
       Gram per such range, formed in its own rows of L S^{-1}, and each
       row's end read off its diagonal block.

    The values do not depend on the phases; only the peak memory does.
    """
    measured, blocks, factors = [], None, None
    for idx, kind in rows:
        gen_seed, pert_seed = _row_seeds(seed, q, idx)
        blocks, triple = _family_system(family, q, gen_seed, blocks)
        if factors is None:
            factors = Factors(blocks)
        sel = selector(kind, blocks.n, blocks.m, blocks.p)
        sol = solve_dspp(blocks, factors.lu)
        measured.append((blocks, sel, sol, _measure(blocks, sol, factors.lu, sel, s, pert_seed)))
    systems = [(SolvedSystem(b, sel, sol, factors.rows(sel)), m) for b, sel, sol, m in measured]
    del factors, measured, blocks
    predicted = [
        (*_predict(system, triple, q, m, structured), system.rows, system.sol, system.sel)
        for system, m in systems
    ]
    del systems
    # Ranges nest or are disjoint: each row's bound is certified on the Gram of its
    # maximal range, formed in the rows of L S^-1 of its cover, the row spanning it.
    sels, bounds = [sel for *_, sel in predicted], {}
    covers = [max((j for j, c in enumerate(sels) if c.lo <= s.lo and s.hi <= c.hi), key=lambda j: sels[j].k)
              for s in sels]
    for j in dict.fromkeys(covers):
        members = [i for i, cover in enumerate(covers) if cover == j]
        rows, lo = predicted[j][3], sels[j].lo
        rows.flags.writeable = True
        ends = _norm_upper(rows, [(sels[i].lo - lo, sels[i].hi - lo) for i in members], overwrite=True)
        for i, end in zip(members, ends):
            _, psi, chi, _, sol, sel = predicted[i]
            bounds[i] = _ncn_upper(end, sol, sel, psi, chi).value
    return [ExperimentRow(k2_upper=f["eps1"] * bounds[i], **f) for i, (f, *_) in enumerate(predicted)]


# A pool costs about 0.1 s to fork and to warm its workers (2 vCPUs); rows
# whose system sizes l have squares summing to less than this take about as
# long on one thread (0.3 s for the example1 rows at q = 4..10), so they run
# in-process.
_POOL_MIN_WORK = 1 << 20

# A task's peak memory over its process's, in bytes per l^2: measured 2.8-5.3
# doubles per l^2 of peak RSS over a warmed-up process's (2.6-3.6 traced by
# tracemalloc; the top of each range at l = 256 and 300) for example1 tasks
# of all four selectors and of x or y alone at l = 256..1600, and example2
# `full` rows at l = 300..1596, with and without structured values, at
# s = 8, with S's LU and the blocks dense; example1's tasks, with CSR blocks
# and a band LU, now read 0.4-2.0. A task holds at most two l x l arrays:
# beside its blocks, S's dense LU (none for a band one) and the buffer of
# S^{-1} rows while they are formed; then the buffer, holding the Grams.
_TASK_PEAK_BYTES_PER_L2 = 12 * 8


def _system_size(family: str, q: int) -> int:
    """l = n + m + p of the family's system at size q."""
    return 4 * q * q if family == "example1" else 8 * q * q + 2 * q


def _free_memory() -> int | None:
    """Free physical memory in bytes, or None where the platform cannot say."""
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None


def _pool_workers(sizes: list[int]) -> int:
    """Worker processes for rows of system sizes ``sizes``, or 1 to run them
    in the calling process.

    Up to one worker per usable CPU and per row, and no more than free memory
    holds tasks of the largest size at once. One worker would only add the
    fork, and so would rows too small to pay for it. A daemonic process
    (a pool worker itself) cannot have children, forking a process with
    other Python threads can deadlock on a lock one of them holds, and
    tracemalloc sees only its own process, so these run their rows in-process.
    """
    if (
        sum(l * l for l in sizes) < _POOL_MIN_WORK
        or multiprocessing.current_process().daemon
        or threading.active_count() > 1
        or tracemalloc.is_tracing()
    ):
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(cpus, len(sizes))
    free = _free_memory()
    if free is not None:
        workers = min(workers, free // (_TASK_PEAK_BYTES_PER_L2 * max(sizes, default=1) ** 2))
    return max(1, workers)


def _task_counts(sizes: list[int], rows: list[int], workers: int) -> list[int]:
    """The number of tasks of each system, for systems of sizes l ``sizes``
    with ``rows`` rows each, on ``workers`` workers:
    t = min(rows, max(1, round(W l^3 / sum l^3))), the sum over all the
    systems. A system with up to about one worker's share of the
    factorization work runs as one task, a larger one is split so that no
    worker waits long on it."""
    total = sum(l**3 for l in sizes)
    return [min(r, max(1, round(workers * l**3 / total))) for l, r in zip(sizes, rows)]


def _single_thread_task(*task) -> list[ExperimentRow]:
    with _blas_single_thread():
        return _system_rows(*task)


def run_experiment(
    family: str,
    q_list,
    s: int = 8,
    seed=42,
    selectors=DEFAULT_SELECTORS,
    structured: bool = False,
) -> list[ExperimentRow]:
    """One row per (q, selector): generate, perturb, measure, predict.

    Each row reseeds from (seed, q, selector index), so any subset of rows is
    reproducible in isolation. The 2-norm prediction uses scalar weights
    Psi = ||S||_F, chi = ||b||_2; the max-norm predictions use the data itself.
    With ``structured=True`` the raw condition numbers and their structured
    counterparts (symmetric A, symmetric Toeplitz D and E) are added.

    The unit of work is a task: rows that share one system matrix, and so
    its factorization and its rows of S^{-1} (one ``partial_cn.Factors``).
    example1's A..E depend on q alone, so the selectors of one q share a
    system; example2 draws D and E per row, so each of its rows has its own.
    With W the worker count of ``_pool_workers``, each system's rows are
    split into ``_task_counts`` tasks (one, unless the system carries more
    than about a worker's share of sum l^3 and has no full row, whose Gram
    certifies all its 2-norm bounds), and the tasks run largest system
    first. Every row runs with numpy's OpenBLAS, the package's one BLAS and
    LAPACK, on one thread, and each part of S^{-1} is solved by the same
    call whatever else shares its task, so a row is bitwise the same under
    any split and worker count, and alone but for the last bit of K2U where
    an x, y or z row's Gram is a block of a full row's, summed otherwise.

    With W > 1 the tasks run in a pool of min(W, tasks) workers, forked
    where the platform can fork; otherwise they run here, one after
    another, each task's systems released before the next is built. Rows
    come back in order either way. An error raised in a task is raised here
    with its type, and every worker has exited and been reaped when this
    returns or raises.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    rows = [(q, idx, kind) for q in q_list for idx, kind in enumerate(selectors)]
    systems: dict = {}  # the positions of each system's rows
    for pos, (q, idx, _) in enumerate(rows):
        systems.setdefault((q, None if family == "example1" else idx), []).append(pos)
    workers = _pool_workers([_system_size(family, q) for q, _, _ in rows])
    sizes = [_system_size(family, q) for q, _ in systems]
    tasks = []
    for l, members, t in zip(
        sizes, systems.values(), _task_counts(sizes, [len(m) for m in systems.values()], workers)
    ):
        # A full row's Gram certifies its system's 2-norm bounds (_system_rows).
        t = 1 if any(rows[pos][2] == "full" for pos in members) else t
        cuts = [len(members) * i // t for i in range(t + 1)]
        tasks += [(l, members[a:b]) for a, b in zip(cuts, cuts[1:])]
    tasks.sort(key=lambda task: -task[0])
    args = [
        (family, rows[members[0]][0], tuple(rows[pos][1:] for pos in members), s, seed, structured)
        for _, members in tasks
    ]
    if workers == 1:
        results = [_single_thread_task(*task) for task in args]
    else:
        context = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
        with context.Pool(min(workers, len(args))) as pool:
            results = pool.starmap(_single_thread_task, args, chunksize=1)
            pool.close()
            pool.join()
    out = [None] * len(rows)
    for (_, members), task_rows in zip(tasks, results):
        for pos, row in zip(members, task_rows):
            out[pos] = row
    return out


def _row_values(row: ExperimentRow) -> list:
    vals = [row.selector, row.q, row.r_k, row.k2, row.k2_upper, row.r_m, row.km,
            row.km_upper, row.r_c, row.kc, row.kc_upper, row.eps1, row.eps2]
    if row.has_structured:
        vals += [row.ncn_value, row.ncn_structured, row.mcn_value,
                 row.mcn_structured, row.ccn_value, row.ccn_structured]
    return vals


def write_csv_report(rows, fh, meta: dict) -> None:
    """Deterministic CSV: '#' header lines with the metadata, then the rows."""
    for key, value in meta.items():
        fh.write(f"# {key}={value}\n")
    structured = bool(rows) and rows[0].has_structured
    cols = CSV_COLUMNS + (CSV_STRUCTURED_COLUMNS if structured else [])
    fh.write(",".join(cols) + "\n")
    for row in rows:
        if row.has_structured != structured:
            raise ValueError("mixed structured and unstructured rows")
        cells = []
        for v in _row_values(row):
            if isinstance(v, str):
                cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(format_float(float(v)))
        fh.write(",".join(cells) + "\n")


def rows_to_dicts(rows) -> list[dict]:
    out = []
    for row in rows:
        structured = row.has_structured
        cols = CSV_COLUMNS + (CSV_STRUCTURED_COLUMNS if structured else [])
        out.append({c: v for c, v in zip(cols, _row_values(row))})
    return out


def write_json_report(rows, fh, meta: dict) -> None:
    """JSON mirror of the CSV with full float fidelity."""
    json.dump({"meta": meta, "rows": rows_to_dicts(rows)}, fh, indent=2)
    fh.write("\n")


__all__ = [
    "RNG_ALGORITHM",
    "FAMILIES",
    "DEFAULT_SELECTORS",
    "CSV_COLUMNS",
    "CSV_STRUCTURED_COLUMNS",
    "PerturbationSet",
    "ExperimentRow",
    "gen_example1",
    "gen_example2",
    "perturb",
    "apply_perturbation",
    "perturbed_change",
    "forward_errors",
    "epsilons",
    "run_experiment",
    "report_meta",
    "format_float",
    "write_csv_report",
    "write_json_report",
    "rows_to_dicts",
]
