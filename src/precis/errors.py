"""Exception hierarchy shared across the package."""


def failure(exc: Exception) -> str:
    """The "ErrorType: message" text under which reports record a failure."""
    return f"{type(exc).__name__}: {exc}"


class PrecisError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(PrecisError):
    """Malformed input file. Carries the 1-based row number when known."""

    def __init__(self, message: str, row: int | None = None):
        self.row = row
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)


class EmptyPanelError(PrecisError):
    """No rows survive parsing / date filtering."""


class UnfillableLeadingGapError(PrecisError):
    """A column starts with a missing value, so forward fill has no source."""

    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} has a leading missing value; forward fill is undefined")


class DegenerateColumnError(PrecisError):
    """A column has zero variance (or is otherwise unusable)."""


class SymmetryError(PrecisError):
    """Matrix is not symmetric within tolerance."""


class InsufficientDataError(PrecisError):
    """Fewer observations than the operation requires."""


class NotPSDError(PrecisError):
    """Matrix has a significantly negative eigenvalue."""


class SingularMatrixError(PrecisError):
    """Matrix is singular (smallest eigenvalue at or below the cutoff)."""


class DegenerateMatrixError(PrecisError):
    """Matrix is degenerate for the requested operation (e.g. zero diagonal)."""


class MulticollinearityError(PrecisError):
    """Regression design is rank deficient."""


class NonconvergenceError(PrecisError):
    """Iteration budget exhausted."""


class TuningError(PrecisError):
    """An empty or unsorted rho grid; also names the failure of a search with no converged point."""


class UndefinedMetricError(PrecisError):
    """Metric is undefined for the given inputs (e.g. zero variance)."""


class ConfigError(PrecisError):
    """Invalid run configuration."""
