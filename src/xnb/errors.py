"""Exception types shared across the package, and the checks of a plain number and of a list of names."""


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


def check_names(names, what: str) -> tuple:
    """``names`` as a tuple; ValueError unless they are distinct strings. ``what`` names them, plural."""
    names = tuple(names)
    bad = [name for name in names if not isinstance(name, str)]
    if bad:
        raise ValueError(f"{what} must be strings, got {bad[0]!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {what}")
    return names
