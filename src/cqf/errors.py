"""Exception hierarchy shared across the package."""


class CqfError(Exception):
    """Base class for all errors raised by this package."""


class SpaceMismatchError(CqfError):
    """Operators defined on different product spaces were combined."""


class AlgebraError(CqfError):
    """Malformed operator expression (e.g. a sum where a product is required)."""


class EvaluationError(CqfError):
    """A symbol had no value bound during numeric evaluation."""


class CapacityError(CqfError):
    """A hard size limit was exceeded (partition count, equation count)."""


class ClosureError(CqfError):
    """A required average is not available in the equation system."""


class ConsistencyError(CqfError):
    """Internal structural invariant violated (indicates a bug upstream)."""


class IntegrationError(CqfError):
    """Time integration failed (NaN/Inf, step size underflow or step budget
    exhausted)."""

    def __init__(self, message: str, last_time: float):
        super().__init__(message)
        self.last_time = last_time


class NonStationaryError(CqfError):
    """No steady state the dynamics reaches was found: the search did not
    converge, or the root it converged to is unstable.

    ``certificate`` holds the final residual, iterations and spectral
    abscissa when the search used the Jacobian, else None.
    """

    def __init__(self, message: str, residual: float, time: float,
                 certificate=None):
        super().__init__(message)
        self.residual = residual
        self.time = time
        self.certificate = certificate


class DslError(CqfError):
    """Model file syntax or semantic error, carrying a source location."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{line}:{column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class ArchiveError(CqfError):
    """Equation archive could not be read or written."""
