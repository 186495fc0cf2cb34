"""Exception types shared across the package."""


class DecapropError(Exception):
    """Base class; ``kind`` drives the CLI's machine-parseable error prefix."""

    kind = "error"


class ContractError(DecapropError):
    """An argument violated an operation's contract (shape, range, dtype)."""

    kind = "contract"


class ConfigError(DecapropError):
    """A configuration value is missing, malformed, or inconsistent."""

    kind = "config"


class DataError(DecapropError):
    """A dataset record is malformed or refers to an impossible span."""

    kind = "data"


class IntegrityError(DecapropError):
    """A checkpoint failed validation (truncated, corrupt, wrong version)."""

    kind = "integrity"


class NumericError(DecapropError):
    """A computation went non-finite or failed a numerical check."""

    kind = "numeric"
