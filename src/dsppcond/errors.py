"""Exception types shared across the package."""


class DsppcondError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(DsppcondError):
    """Operands or blocks have incompatible shapes."""


class SingularMatrix(DsppcondError):
    """A pivoted factorization found the matrix numerically singular."""


class ZeroMatrix(DsppcondError):
    """The operation needs a nonzero matrix."""


class ZeroXi(DsppcondError):
    """The normalizer derived from the projected solution is zero."""


class NotInSubspace(DsppcondError):
    """A matrix does not lie in the claimed structure subspace."""


class RankDeficientC(DsppcondError):
    """The constraint matrix does not have full row rank."""


class IndefiniteProblem(DsppcondError):
    """The quadratic form is not positive on the constraint null space."""


class IncompatibleZeroPattern(DsppcondError):
    """A perturbation hits an entry that is exactly zero in the data."""


class MalformedProblem(DsppcondError):
    """An input document does not describe a valid problem."""


class DominanceViolation(DsppcondError):
    """A computed condition number exceeds its upper bound."""


class UncertifiedBound(DsppcondError):
    """No top eigenvalue for a bound passed its Cholesky certificate."""
