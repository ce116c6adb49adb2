"""Exception hierarchy shared across the engine.

The CLI maps these onto exit code 1 (``UsageError``: exit code 2) and
reports the class name, so keep the names stable.
"""

from __future__ import annotations


class SignstabError(Exception):
    """Base class for all domain errors raised by this package."""


class RadicandMismatchError(SignstabError):
    """Arithmetic attempted between values over Q(sqrt(d)) with different d."""


class DimensionMismatchError(SignstabError):
    """Vector or matrix dimensions incompatible with the ambient seed."""


class FrozenIndexError(SignstabError):
    """A mutation or flip was requested at a frozen (or out of range) index."""


class SplitViolationError(SignstabError):
    """A permutation does not preserve the unfrozen/frozen split."""


class SignCoherenceError(SignstabError):
    """A C-matrix column failed sign coherence during a recurrence step."""


class NonStrictSignError(SignstabError):
    """A strict sign sequence was required but some entries are zero."""

    def __init__(self, positions, message=None):
        self.positions = tuple(positions)
        super().__init__(message or f"sign is zero at flip positions {self.positions}")


class LoopRequiredError(SignstabError):
    """The operation needs a mutation loop (end matrix equal to start matrix)."""


class NotRealizableError(SignstabError):
    """No realizable strict completion exists for the given stable sign."""


class MagnitudeError(SignstabError):
    """A number too large for its float or text form: a polynomial
    coefficient past the float range, or a report integer of over 4,300
    digits (Python's int-to-text limit)."""


class FormatError(SignstabError):
    """Malformed input file or scalar literal."""


class UsageError(SignstabError):
    """Command-line flags that do not form a valid request."""
