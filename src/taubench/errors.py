"""Exception hierarchy shared by all taubench modules."""


class TaubenchError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(TaubenchError):
    """An argument is outside the mathematical domain of the operation."""


class PoleError(DomainError):
    """A denominator in an exact evaluation vanished."""


class TruncationError(TaubenchError):
    """An operator application would push terms beyond the series cap."""


class InsufficientCap(TruncationError):
    """The guarded test window for an operator sweep is empty."""


class InconsistentSystem(TaubenchError):
    """An exact linear system has no solution.

    Carries the exact nonzero residual of the least-inconsistent row set.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class ConventionMismatch(TaubenchError):
    """The graph-sum normalisation failed its base-case self check."""

    def __init__(self, message, ratios=None):
        super().__init__(message)
        self.ratios = ratios


class BudgetError(TaubenchError):
    """A configured resource budget (darts, matchings, ...) was exceeded."""


class NumericError(TaubenchError):
    """A floating-point verification path failed to converge."""
