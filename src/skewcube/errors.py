"""Exception types shared across the package.

Each class carries the command-line exit code it maps to, so the CLI has a
single handler that returns ``e.exit_code``:

* 2, usage or parse failure: ``UsageError`` and its subclasses ``ParseError``
  and ``OddDimension``. ``UsageError`` is also a ``ValueError``, the type the
  library's argument checks raised before it existed.
* 3, validation failure: every other ``SkewcubeError`` (the default).
* 4, precondition violation: ``OddModulus``, ``DegreeTooHigh``,
  ``BadSubsetSize``, ``BadModulus`` and ``DegreeOutOfRange``.
"""

from __future__ import annotations


class SkewcubeError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 3


class UsageError(SkewcubeError, ValueError):
    """An argument is malformed or out of range for the call."""
    exit_code = 2


class ParseError(UsageError):
    """A file or token could not be parsed; carries a line number when known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class DimensionMismatch(SkewcubeError):
    """Objects with different cube dimensions were combined."""


class DimensionTooLarge(SkewcubeError):
    """The requested dimension exceeds the exhaustive-enumeration cap."""


class EmptyFamily(SkewcubeError):
    """A cover family must contain at least one plane."""


class MTooLarge(DimensionTooLarge):
    """The doubling construction would exceed the exhaustive cap."""


class OddDimension(UsageError):
    """An even dimension is required."""


class BadModulus(SkewcubeError):
    """The weight modulus is out of range for this operation."""
    exit_code = 4


class OddModulus(SkewcubeError):
    """The interpolation construction needs a modulus divisible by 2."""
    exit_code = 4


class DegreeTooHigh(SkewcubeError):
    """The degree violates the feasibility bound d <= n/m - 1/2."""
    exit_code = 4


class BadSubsetSize(SkewcubeError):
    """The target subset does not match the requested degree."""
    exit_code = 4


class DegreeOutOfRange(SkewcubeError):
    """A polynomial degree outside [0, n] was requested."""
    exit_code = 4


class MissingValue(SkewcubeError):
    """The function is undefined at a point the measure needs."""


class SignConflict(SkewcubeError):
    """Atom merging saw one point with both signs (must never happen)."""


class ZeroCoefficient(SkewcubeError):
    """All coefficients must be nonzero here."""


class SystemTooLarge(SkewcubeError):
    """The linear system exceeds the row-count cap."""


class PoolTooLarge(SkewcubeError):
    """The candidate-plane pool would exceed the enumeration cap."""


class PoolInsufficient(SkewcubeError):
    """The plane pool cannot cover the cube."""
