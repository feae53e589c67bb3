"""Exception types shared across the simulator."""


class WClassError(Exception):
    """Base class for all simulator errors."""


class ModeError(WClassError):
    """A mode is unknown to the registry it was used with."""


class ModeKindError(WClassError):
    """An element received a mode of the wrong kind (atomic vs photonic)."""


class RegistryError(WClassError):
    """Two states from different registries were combined."""


class NormalizationError(WClassError):
    """An operation that needs a non-zero (or unit-norm) state got a bad one."""


class ProtocolSequencingError(WClassError):
    """A protocol step was applied out of order (e.g. occupied stokes mode)."""


class AttemptsExhaustedError(WClassError):
    """Repeat-until-success ran out of its attempt budget."""

    def __init__(self, message: str, stage: str | None = None, attempts: int = 0):
        super().__init__(message)
        self.stage = stage
        self.attempts = attempts


class InsufficientDataError(WClassError):
    """An estimator had no successful trials to work with."""


class PreconditionError(WClassError):
    """Input state violates an operation's documented precondition."""


class DomainError(WClassError, ValueError):
    """A numeric argument is outside the formula's domain."""


class UsageError(WClassError):
    """Bad command line or configuration input (exit code 2)."""
