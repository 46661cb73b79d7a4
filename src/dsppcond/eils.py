"""Equality constrained indefinite least squares.

The problem

    min_y (b - M y)^T J (b - M y)   subject to   C y = d,

with M of size n x m (n >= m), C of size p x m, and the signature matrix
J = diag(I_{n1}, -I_{n2}), has a unique solution when C has full row rank and
the quadratic form y^T (M^T J M) y is positive on the null space of C. Its
stationarity conditions embed into a double saddle point system

    [ J    M   0   ] [x]        [b]
    [ M^T  0   C^T ] [y]   =    [0]      (x = J (b - M y), z = lambda)
    [ 0    C   0   ] [lambda]   [d]

so the condition numbers of (y, lambda, ...) reduce to the general machinery
with the A, D, E blocks and the middle right-hand side held exactly fixed:
only M (entering as B^T), C, b, and d may be perturbed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dspp import DsppBlocks, Solution, _check_numbers
from .errors import (
    DimensionMismatch,
    IndefiniteProblem,
    MalformedProblem,
    RankDeficientC,
    SingularMatrix,
)
from .linalg import _norm_inf, as_matrix, as_vector
from .partial_cn import CnValue, PerturbationWeights, SolvedSystem, _as_xi, _inf_value, _positive, unified_cn

# Rank tolerance for the constraint matrix, relative to its inf-norm.
RANK_RTOL = 1e-10

# Constraint residual acceptance, matching the solve residual convention.
CONSTRAINT_RTOL = 1e-8


def signature_matrix(n1: int, n2: int) -> np.ndarray:
    """diag(I_{n1}, -I_{n2})."""
    return np.diag(np.concatenate([np.ones(n1), -np.ones(n2)]))


@dataclass(frozen=True)
class EilsProblem:
    """Problem data; construction checks the well-posedness conditions.

    Raises :class:`RankDeficientC` when C loses row rank and
    :class:`IndefiniteProblem` when M^T J M is not positive definite on the
    null space of C.
    """

    M: np.ndarray
    C: np.ndarray
    n1: int
    n2: int
    b: np.ndarray
    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "M", as_matrix(self.M, "M"))
        object.__setattr__(self, "C", as_matrix(self.C, "C"))
        object.__setattr__(self, "b", as_vector(self.b, "b"))
        object.__setattr__(self, "d", as_vector(self.d, "d"))
        n, m = self.M.shape
        p = self.C.shape[0]
        if self.n1 < 0 or self.n2 < 0 or self.n1 + self.n2 != n:
            raise DimensionMismatch(f"n1 + n2 must equal {n}, got {self.n1} + {self.n2}")
        if n < m:
            raise DimensionMismatch(f"M must have at least as many rows as columns, got {n}x{m}")
        if min(m, p) < 1:
            raise DimensionMismatch("y and the constraints must be nonempty")
        if self.C.shape[1] != m:
            raise DimensionMismatch(f"C has shape {self.C.shape}, expected ({p}, {m})")
        if self.b.size != n or self.d.size != p:
            raise DimensionMismatch("b must have length n and d length p")

        _, sigma, vt = np.linalg.svd(self.C)
        rank = int(np.sum(sigma > RANK_RTOL * _norm_inf(self.C)))
        if rank < p:
            raise RankDeficientC(f"constraint matrix has rank {rank} < {p}")

        if m > p:
            null = vt[p:, :].T
            j = signature_matrix(self.n1, self.n2)
            gram = null.T @ (self.M.T @ j @ self.M) @ null
            gram = (gram + gram.T) / 2.0
            if float(np.linalg.eigvalsh(gram)[0]) <= 0.0:
                raise IndefiniteProblem(
                    "quadratic form is not positive definite on the constraint null space"
                )

    @property
    def n(self) -> int:
        return self.M.shape[0]

    @property
    def m(self) -> int:
        return self.M.shape[1]

    @property
    def p(self) -> int:
        return self.C.shape[0]


@dataclass(frozen=True)
class EilsSolution:
    """Estimate y, multiplier lam, the sign-weighted residual part x = J r,
    and the plain residual r = b - M y."""

    y: np.ndarray
    lam: np.ndarray
    x: np.ndarray
    residual: np.ndarray


def eils_reduce(prob: EilsProblem) -> DsppBlocks:
    """Embed the problem as a double saddle point system (D = 0, E = 0)."""
    n, m, p = prob.n, prob.m, prob.p
    return DsppBlocks(
        A=signature_matrix(prob.n1, prob.n2),
        B=prob.M.T,
        C=prob.C,
        D=np.zeros((m, m)),
        E=np.zeros((p, p)),
        b=np.concatenate([prob.b, np.zeros(m), prob.d]),
    )


def solve_eils(prob: EilsProblem, sol: Solution) -> EilsSolution:
    """The EILS solution read off ``sol``, the solution of the embedded system
    :func:`eils_reduce` (``prob``), with the constraint residual verified."""
    y = sol.y
    resid_c = float(np.linalg.norm(prob.C @ y - prob.d, 2))
    bound = CONSTRAINT_RTOL * (
        _norm_inf(prob.C) * float(np.linalg.norm(y, 2)) + float(np.linalg.norm(prob.d, 2))
    )
    if resid_c > bound:
        raise SingularMatrix(f"constraint residual {resid_c:.3e} exceeds {bound:.3e}")
    return EilsSolution(y=y, lam=sol.z, x=sol.x, residual=prob.b - prob.M @ y)


def _eils_weights(blocks: DsppBlocks, psi, chi) -> PerturbationWeights:
    """Weights of the embedded system: (M, C) and (b, d) as given (a scalar must
    be positive, and stays a number), 0 on A, D, E and the middle of b."""
    n, m, p = blocks.n, blocks.m, blocks.p
    psi_m, psi_c = (_positive(psi),) * 2 if np.isscalar(psi) else psi
    chi = np.full(n + p, _positive(chi)) if np.isscalar(chi) else as_vector(chi, "chi")
    return PerturbationWeights.entrywise(
        0.0, np.transpose(psi_m), psi_c, 0.0, 0.0, np.concatenate([chi[:n], np.zeros(m), chi[n:]])
    )


def default_scalar_weights(prob: EilsProblem) -> tuple[float, float]:
    """Data-norm weights: Psi over (M, C) jointly, chi over (b, d) jointly."""
    psi = float(np.sqrt(np.sum(prob.M ** 2) + np.sum(prob.C ** 2)))
    chi = float(np.linalg.norm(np.concatenate([prob.b, prob.d]), 2))
    return psi, chi


def eils_cn(system: SolvedSystem, psi, chi, xi, norm: str) -> CnValue:
    """Condition number of L w for the embedded system, perturbing only
    (M, C) and (b, d).

    ``system`` is the solved embedding
    ``SolvedSystem.of(eils_reduce(prob), sel)``, whose blocks fix n, m, p.
    ``psi`` is a positive scalar or a pair of matrices shaped like (M, C);
    ``chi`` is a positive scalar or a length n+p vector. This is
    :func:`unified_cn` of the reduced system with weights pinned to zero on
    A, D, E and the middle right-hand side block; for the data weights
    (|M|, |C|), |[b; d]| and the max norm, :func:`eils_inf_cn` gives the same
    value from the system's shared numerator. A zero L w raises
    :class:`ZeroXi` before the weights are checked, since weights taken from
    the data vanish with it.
    """
    if norm not in ("two", "inf"):
        raise ValueError(f"norm must be 'two' or 'inf', got {norm!r}")
    _as_xi(xi).resolve(system.lw)
    weights = _eils_weights(system.blocks, psi, chi)
    value = unified_cn(system, weights, xi, norm).value
    return CnValue(value, "eils2" if norm == "two" else "eilsInf")


def eils_inf_cn(system: SolvedSystem, xi) -> CnValue:
    """Mixed ("mcn") or componentwise ("ccn") condition number of L w for the
    embedded system, with the data weights (|M|, |C|) and |[b; d]|.

    With A, D, E weighted 0 and chi = |[b; 0; d]|, the |b| of the embedding,
    the max-norm numerator of :func:`eils_cn` is exactly the system's shared
    ``bc_numerator``, so the two numbers read it and the pair kernel runs
    once per block. The value equals
    ``eils_cn(system, (|M|, |C|), |[b; d]|, xi, "inf")`` bit for bit.
    """
    xi = _as_xi(xi)
    if xi.kind not in ("mcn", "ccn"):
        raise ValueError(f"eils_inf_cn supports xi 'mcn' or 'ccn', got {xi.kind!r}")
    return CnValue(_inf_value(xi.resolve(system.lw), system.bc_numerator), "eilsInf")


def eils_from_dict(doc) -> EilsProblem:
    """Parse the JSON document {M, C, n1, n2, b, d}; a data entry that is not
    a number is malformed."""
    if not isinstance(doc, dict):
        raise MalformedProblem("problem document must be a JSON object")
    missing = [k for k in ("M", "C", "n1", "n2", "b", "d") if k not in doc]
    if missing:
        raise MalformedProblem(f"problem document missing keys: {', '.join(missing)}")
    _check_numbers(doc, "MCbd")
    try:
        return EilsProblem(
            M=doc["M"], C=doc["C"], n1=int(doc["n1"]), n2=int(doc["n2"]),
            b=doc["b"], d=doc["d"],
        )
    except (DimensionMismatch, ValueError, TypeError, OverflowError) as exc:
        raise MalformedProblem(str(exc)) from exc


def eils_to_dict(prob: EilsProblem) -> dict:
    return {
        "M": prob.M.tolist(),
        "C": prob.C.tolist(),
        "n1": prob.n1,
        "n2": prob.n2,
        "b": prob.b.tolist(),
        "d": prob.d.tolist(),
    }


__all__ = [
    "EilsProblem",
    "EilsSolution",
    "signature_matrix",
    "eils_reduce",
    "solve_eils",
    "eils_cn",
    "eils_inf_cn",
    "default_scalar_weights",
    "eils_from_dict",
    "eils_to_dict",
]
