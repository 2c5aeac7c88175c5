"""Shared exception and warning types."""

from __future__ import annotations


class DimensionMismatchError(ValueError):
    """Operands live in polynomial rings with different variable counts."""


class ResourceLimitError(RuntimeError):
    """A computation exceeded a configured enumeration budget.

    Raised instead of silently truncating; carries enough context to
    report what blew up and by how much.
    """

    def __init__(self, what: str, needed: int, limit: int):
        self.what = what
        self.needed = needed
        self.limit = limit
        super().__init__(f"{what}: needs {needed}, budget is {limit}")


class VerificationError(AssertionError):
    """A computed result failed its independent re-check.

    Raised explicitly rather than by ``assert``, so the check still runs
    under ``python -O``; it still subclasses AssertionError because a failed
    re-check is an internal bug, not bad input.
    """


class NonAssociatedPrimeWarning(UserWarning):
    """Localizing at a prime that is not an associated prime of the ideal."""


class PowersCoincideWarning(UserWarning):
    """Big-height equals the variable count, so every symbolic power equals
    the ordinary power and the containment checks trivialize."""
