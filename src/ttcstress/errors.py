"""Exception types shared across the package."""
from __future__ import annotations


class TTCStressError(Exception):
    """Base class for every error raised by this package."""


class InputError(TTCStressError, ValueError):
    """Invalid input data or arguments.

    Carries a short machine-readable ``code`` (e.g. ``"row-sum"``,
    ``"negative-entry"``, ``"dimension-mismatch"``) next to the human-readable
    message, so callers can branch without parsing strings.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class PrimitivityError(TTCStressError):
    """The performing-grade transition block is not primitive.

    Without primitivity the propagation map has no unique attracting
    through-the-cycle portfolio, so the solvers refuse to run.
    """

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        # Why the block failed the graph test: the first unreachable grade
        # pair or the period of its cycle (None for other failures).
        self.reason = reason


class ConvergenceError(TTCStressError, RuntimeError):
    """Iterative solver exhausted its iteration budget.

    ``cycle_delta`` is the L1 distance between the last iterate and the one
    two steps before it; a near-zero value flags a period-2 oscillation,
    the signature of a non-primitive performing block.
    """

    def __init__(self, message: str, iterations: int, last_delta: float,
                 cycle_delta: float):
        super().__init__(message)
        self.iterations = iterations
        self.last_delta = last_delta
        self.cycle_delta = cycle_delta

    @property
    def oscillating(self) -> bool:
        return self.cycle_delta < 1e-9
