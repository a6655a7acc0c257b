"""Exception types shared across the package."""


class InfdivError(Exception):
    """Base class for all package errors."""


class ShapeError(InfdivError):
    """Input has the wrong dimensions or block split for the operation."""


class NotPositiveDefinite(InfdivError):
    """A matrix required to be positive definite is not."""


class CapExceeded(InfdivError):
    """A size or degree cap protecting runtime/memory was exceeded."""


class NonFiniteResult(InfdivError):
    """A computation produced NaN or infinity where a finite value is needed."""


class PreconditionViolated(InfdivError):
    """A documented precondition of the operation does not hold."""


class DegenerateInput(InfdivError):
    """Input is degenerate for the requested operation (e.g. lambda_max <= 0)."""
