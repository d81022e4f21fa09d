"""Exception types shared across the package.

Every error raised deliberately by this package derives from
:class:`SpecdenError`, so callers can catch one base class.  The
subclasses map onto distinct failure modes (and onto distinct CLI exit
codes, see :mod:`specden.cli`).
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


class ValidationError(SpecdenError, ValueError):
    """Invalid parameters or malformed inputs."""


class OutOfRegimeError(SpecdenError, RuntimeError):
    """A planner was asked for a target outside its domain of validity.

    Raised for example when the requested pointwise accuracy is too loose
    for any truncation order to be meaningful, or when a closed form is
    evaluated outside the parameter range where it is a bound.
    """


class ResourceLimitError(SpecdenError, RuntimeError):
    """A planned computation exceeds a configured resource cap."""


class NumericError(SpecdenError, ArithmeticError):
    """A numerical routine failed to converge or produced non-finite values."""


class CoarseGridWarning(UserWarning):
    """Quadrature grid is coarse relative to the kernel width."""
