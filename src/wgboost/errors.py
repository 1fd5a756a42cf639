"""Exception types shared across the package.

The CLI maps these onto process exit codes, so anything user-facing should
raise one of them rather than a bare exception.
"""


class WGBoostError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(WGBoostError):
    """Invalid or inconsistent run configuration."""


class DataError(WGBoostError):
    """Malformed, missing, or out-of-contract input data."""


class NumericError(WGBoostError):
    """A numeric operation failed (overflow, singular solve, non-finite drift).

    ``datum``, when given, is the position of the failing datum in the batch
    the raising function was handed; the message names it as "datum <datum>".
    """

    def __init__(self, message: str, datum: int | None = None) -> None:
        super().__init__(message)
        self.datum = datum
