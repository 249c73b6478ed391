"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A constructor or operation received parameters outside its admissible range."""


class DomainError(ValueError):
    """Input data violates a mathematical precondition (e.g. negative density).

    index is the row of a stacked input that violates it (None when not set).
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class OutOfRangeError(ValueError):
    """A query point lies outside the stored grid or time interval."""


class SolverDivergenceError(RuntimeError):
    """Newton iteration failed to reach the target residual.

    residual is the failing row's last max-norm residual and index its row in
    the solved stack (None when not set).
    """

    def __init__(self, message: str, residual: float, index: int | None = None):
        super().__init__(message)
        self.residual = residual
        self.index = index


class IntegrationError(RuntimeError):
    """Trajectory integration produced a non-finite state."""


class DegenerateRatioError(ValueError):
    """Stability ratio requested for identical potentials."""


class ConfigError(ValueError):
    """Configuration document is malformed or violates a constraint."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
