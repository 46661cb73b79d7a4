"""Partial condition numbers for double saddle point systems.

The package computes how sensitive a projected part L w of the solution of

    [ A   B^T  0   ] [x]   [b1]
    [ B  -D    C^T ] [y] = [b2]
    [ 0   C    E   ] [z]   [b3]

is to perturbations of the data: normwise (2-norm), mixed and componentwise
(max-norm) condition numbers, cheap upper bounds, structure-respecting
variants (symmetric, symmetric Toeplitz, diagonal blocks), a specialization
to equality constrained indefinite least squares, and a seeded experiment
harness that validates the closed forms against random perturbations.
"""

from ._version import __version__
from .errors import (
    DimensionMismatch,
    DominanceViolation,
    DsppcondError,
    IncompatibleZeroPattern,
    IndefiniteProblem,
    MalformedProblem,
    NotInSubspace,
    RankDeficientC,
    SingularMatrix,
    UncertifiedBound,
    ZeroMatrix,
    ZeroXi,
)
from .linalg import LuSolver, ddagger
from .dspp import (
    SELECTOR_KINDS,
    DsppBlocks,
    Selector,
    Solution,
    assemble,
    factorize,
    norm_fro_system,
    problem_from_dict,
    problem_to_dict,
    selector,
    solve_dspp,
)
from .partial_cn import (
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
from .structured import (
    STRUCTURE_KINDS,
    StructureTriple,
    structured_inf_cn,
    structured_ncn,
)
from .eils import (
    EilsProblem,
    EilsSolution,
    default_scalar_weights,
    eils_cn,
    eils_from_dict,
    eils_inf_cn,
    eils_reduce,
    eils_to_dict,
    signature_matrix,
    solve_eils,
)
from .experiments import (
    DEFAULT_SELECTORS,
    FAMILIES,
    RNG_ALGORITHM,
    ExperimentRow,
    PerturbationSet,
    apply_perturbation,
    epsilons,
    forward_errors,
    gen_example1,
    gen_example2,
    perturb,
    perturbed_change,
    report_meta,
    run_experiment,
    write_csv_report,
    write_json_report,
)

__all__ = [
    "__version__",
    # errors
    "DsppcondError",
    "DimensionMismatch",
    "SingularMatrix",
    "UncertifiedBound",
    "ZeroMatrix",
    "ZeroXi",
    "NotInSubspace",
    "RankDeficientC",
    "IndefiniteProblem",
    "IncompatibleZeroPattern",
    "MalformedProblem",
    "DominanceViolation",
    # dense kernels
    "ddagger",
    "LuSolver",
    # problem container and solve
    "DsppBlocks",
    "Solution",
    "Selector",
    "SELECTOR_KINDS",
    "assemble",
    "factorize",
    "solve_dspp",
    "selector",
    "problem_from_dict",
    "problem_to_dict",
    "norm_fro_system",
    # condition numbers
    "CnValue",
    "PerturbationWeights",
    "XiChoice",
    "Factors",
    "SolvedSystem",
    "unified_cn",
    "ncn",
    "ncn_upper",
    "inf_cn",
    "inf_cn_upper",
    # structured variants
    "STRUCTURE_KINDS",
    "StructureTriple",
    "structured_ncn",
    "structured_inf_cn",
    # constrained least squares
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
    # experiments
    "RNG_ALGORITHM",
    "FAMILIES",
    "DEFAULT_SELECTORS",
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
    "write_csv_report",
    "write_json_report",
]
