"""Exception types shared across the package."""


class ConvlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ConvlabError, ValueError):
    """Every refusal of an input where it enters the package; a ValueError too."""


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


class CeilingViolated(ConvlabError):
    """Converged solution exceeds the u <= 1 ceiling; certificate not applicable.

    Carries the offending solution as ``solution``.
    """

    def __init__(self, message, solution=None):
        super().__init__(message)
        self.solution = solution
