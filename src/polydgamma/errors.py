"""Exception types shared across the package."""


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative scheme failed to reach the requested tolerance.

    Carries the best value obtained so far together with its error estimate,
    so callers can still inspect the partial result.
    """

    def __init__(self, message, best=None, error_estimate=None):
        super().__init__(message)
        self.best = best
        self.error_estimate = error_estimate
