"""Exception types shared across the package."""


class ValidationError(ValueError):
    """Rejected input or violated structural invariant (bad dims, non-state, ...)."""


class PropagationError(RuntimeError):
    """Numeric invariant breach during a run (trace drift, PSD loss)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
