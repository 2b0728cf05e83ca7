"""Exception types shared across the solver modules."""

__all__ = ["CoefficientError", "TruncationError", "BracketError", "AccuracyError"]


class CoefficientError(ValueError):
    """A Sturm-Liouville coefficient violates its sign constraint (p must be positive)."""


class TruncationError(RuntimeError):
    """Domain enlargement failed to stabilize the eigenvalue within the configured cap.

    Carries the last eigenvalue estimates so callers can judge how far from
    convergence the solve stopped.
    """

    def __init__(self, message, last_values=None):
        super().__init__(message)
        self.last_values = tuple(last_values) if last_values is not None else None


class BracketError(RuntimeError):
    """A root search could not establish (or lost) a sign-change bracket."""


class AccuracyError(RuntimeError):
    """A result failed its own accuracy check."""
