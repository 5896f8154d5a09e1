"""Exception types shared across the package, the checks of a plain number and of a list of names, and ``own``."""

from types import MappingProxyType

import numpy as np


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


class _Names(tuple):
    __slots__ = ()  # a tuple of names that check_names has passed


def check_names(names, what: str) -> tuple:
    """``names`` as a tuple; ValueError unless they are distinct strings. ``what`` names them, plural."""
    if isinstance(names, _Names):  # returned by this function before: not walked again
        return names
    names = _Names(names)
    bad = [name for name in names if not isinstance(name, str)]
    if bad:
        raise ValueError(f"{what} must be strings, got {bad[0]!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate {what}")
    return names


def own(record, **fields) -> None:
    """Set ``fields`` on the frozen dataclass ``record``: the one way a record keeps what it checked.

    An array must be the record's own copy; its write flag is cleared. A dict becomes a read-only
    view of a new dict of values made read-only the same way, so no dict a caller holds reaches
    the record. Writing to such a mapping raises TypeError, to such an array ValueError.
    """
    for name, value in fields.items():
        object.__setattr__(record, name, _frozen(value))


def _frozen(value):
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    elif isinstance(value, (dict, MappingProxyType)):
        value = MappingProxyType({key: _frozen(item) for key, item in value.items()})
    return value
