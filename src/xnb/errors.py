"""Exception types shared across the package, and the check that a value is a plain number."""


class XnbError(Exception):
    """Base class for all errors raised by this package."""


class DataError(XnbError):
    """Raised when input data cannot be loaded or fails validation."""


class ModelFormatError(XnbError):
    """Raised when a model file is unreadable or has an unexpected schema."""


def check_number(value, what: str) -> None:
    """Raise ValueError unless ``value`` is a float or an int, as JSON writes them: not a string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
