"""Exception taxonomy shared by all trapgas modules."""


class TrapGasError(Exception):
    """Base class for all package errors."""


class DomainError(TrapGasError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class ConfigError(TrapGasError, ValueError):
    """A configuration document or option set is invalid."""


class UsageError(TrapGasError, ValueError):
    """An API was called with inconsistent inputs (e.g. mixed methods)."""


class RegimeError(TrapGasError, ValueError):
    """A regime/window precondition of an asymptotic formula is violated.

    The message names the failed inequality so callers can report it.
    """


class AccuracyError(TrapGasError, RuntimeError):
    """A numerical routine could not reach the requested tolerance.

    Attributes
    ----------
    achieved : float
        Error bound actually reached before giving up.
    """

    def __init__(self, message, achieved=float("nan")):
        super().__init__(message)
        self.achieved = achieved


class DataError(TrapGasError, ValueError):
    """Input data unsuitable for a fit or reduction."""
