"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`SpecdenError`, so callers can catch one base class.  The
subclasses map onto distinct failure modes; each class carries the CLI
exit code and the label :mod:`specden.cli` reports it with.
"""

__all__ = [
    "SpecdenError",
    "ValidationError",
    "OutOfRegimeError",
    "ResourceLimitError",
    "NumericError",
    "CoarseGridWarning",
]


class SpecdenError(Exception):
    """Base class for all errors raised by specden."""

    exit_code = 2
    label = "error"


class ValidationError(SpecdenError, ValueError):
    """Invalid parameters or malformed inputs."""


class OutOfRegimeError(SpecdenError, RuntimeError):
    """A planner was asked for a target outside its domain of validity.

    Raised for example when the requested pointwise accuracy is too loose
    for any truncation order to be meaningful, or when a closed form is
    evaluated outside the parameter range where it is a bound.
    """

    exit_code = 3
    label = "out of regime"


class ResourceLimitError(SpecdenError, RuntimeError):
    """A planned computation exceeds a configured resource cap."""

    exit_code = 4
    label = "resource cap"


class NumericError(SpecdenError, ArithmeticError):
    """A numerical routine failed to converge or produced non-finite values."""


class CoarseGridWarning(UserWarning):
    """Quadrature grid is coarse relative to the kernel width."""
