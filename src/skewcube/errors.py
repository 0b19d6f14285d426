"""Exception types shared across the package.

Each class carries the command-line exit code it maps to, so the CLI has a
single handler that returns ``e.exit_code``:

* 2, usage or parse failure: ``UsageError`` and its subclass ``ParseError``.
  ``UsageError`` is also a ``ValueError``, the type the library's argument
  checks raised before it existed.
* 3, validation failure: every other ``SkewcubeError`` (the default). Every
  size cap, whether on n, on a construction, a plane pool, a linear system or
  a recovery, raises ``DimensionTooLarge``; its message names the cap.
* 4, precondition violation: ``BadModulus``, ``DegreeTooHigh``,
  ``BadSubsetSize`` and ``DegreeOutOfRange``.

There is one class per meaning: a condition raises the same class wherever
it is checked.
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
    """An input exceeds a size cap."""


class EmptyFamily(SkewcubeError):
    """A cover family must contain at least one plane."""


class BadModulus(SkewcubeError):
    """The weight modulus is out of range for this operation."""
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


class ZeroCoefficient(SkewcubeError):
    """All coefficients must be nonzero here."""


class PoolInsufficient(SkewcubeError):
    """The plane pool cannot cover the cube."""
