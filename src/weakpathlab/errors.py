"""Exception taxonomy shared by all weakpathlab modules."""


class InvalidArgumentError(ValueError):
    """An argument violates a documented precondition."""


class OutOfRangeError(InvalidArgumentError):
    """A time or index lies outside the valid domain."""


class ResolutionTooCoarseError(InvalidArgumentError):
    """A smoothing window or quadrature cannot resolve the requested scale."""


class NumericalOverflowError(ArithmeticError):
    """A recursion produced a non-finite value."""


class InsufficientSignalError(RuntimeError):
    """Too little signal for a rate fit, or a check that would test nothing."""


class BudgetExceededError(RuntimeError):
    """A projected sampling cost exceeds the configured cap."""


class ConfigError(ValueError):
    """A config document is malformed. ``key_path`` locates the offender."""

    def __init__(self, message: str, key_path: str = ""):
        super().__init__(f"{key_path}: {message}" if key_path else message)
        self.key_path = key_path


class UnknownNameError(ConfigError):
    """A config references a model or functional that is not shipped."""
