"""Exception types shared across the package, and the integer check that
every integer parameter passes where it enters."""

import operator


class ConvlabError(Exception):
    """Base class for all package-specific errors."""


class InvalidInput(ConvlabError, ValueError):
    """Every refusal of an input where it enters the package; a ValueError too."""


def _require_index(name: str, value) -> int:
    """value as an int if it is one (an int or a numpy integer, by
    operator.index); InvalidInput naming it otherwise, 1.5 and 2.0 alike."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInput(f"{name} must be an integer, got {value!r}") from None


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
