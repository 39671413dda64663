"""Exception types shared across the package."""


class ConvlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ConvlabError, ValueError):
    """Input refused where it enters the package; a ValueError too."""


class InvalidCoefficients(ConvlabError):
    """Coefficient vector violates its invariants (empty, negative, or all zero)."""


class GridMismatch(ConvlabError):
    """Two fields that must share a grid do not."""


class InvalidOrder(ConvlabError):
    """Convolution power requested with order below 1."""


class MassTooLarge(ConvlabError):
    """Seed mass exceeds the admissible bound Q(t_Q); the iteration may diverge."""


class NotConverged(ConvlabError):
    """Fixed-point iteration hit its cap before reaching tolerance.

    Carries the partial result so callers can still inspect it:
    ``field`` (or ``solution``) and ``report`` are attached when available.
    """

    def __init__(self, message, field=None, report=None, solution=None):
        super().__init__(message)
        self.field = field
        self.report = report
        self.solution = solution


class ConvergenceFailure(ConvlabError):
    """A root finder failed to meet its residual contract."""


class DecayGuard(ConvlabError):
    """Witness scale under-resolved: t * M / L, the scale t in grid spacings,
    below the witness threshold."""


class CeilingViolated(ConvlabError):
    """Converged solution exceeds the u <= 1 ceiling; certificate not applicable.

    Carries the offending solution as ``solution``.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
