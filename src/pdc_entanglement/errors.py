"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Raised when an input violates a documented precondition."""


class NumericalDomainError(ArithmeticError):
    """Raised when a result leaves the float64 range, or when the generic
    covariance-matrix route cannot resolve a matrix (not a covariance
    matrix, or its entanglement verdict lost to rounding)."""


class TruncationError(RuntimeError):
    """Raised when a Fock-space truncation is too aggressive for the
    requested evolution; the caller must raise ``n_cut``."""


class IntegrationError(RuntimeError):
    """Raised when an oracle's end point, trace or phase leaves the float
    range."""
