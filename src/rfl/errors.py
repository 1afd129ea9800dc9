"""Exception types shared across the package.

Every error raised by the public API derives from :class:`RflError`, so
callers can catch one base class at an API boundary.  The concrete types
distinguish caller mistakes from numerical failures: the CLI maps
:class:`ConfigError`, :class:`ArgumentError`,
:class:`UnsupportedConfigurationError` and :class:`ResourceLimitError` to
exit code 2, and the numerical family (:class:`SingularGramError`,
:class:`DivergenceError`) to exit code 3.

The ``_check_*`` functions alone decide what an integer (not a bool, nor
2.0) or a finite real is, and return a plain ``int`` or ``float``.
"""

from __future__ import annotations

import math
from numbers import Integral, Real


class RflError(Exception):
    """Base class for all errors raised by this package."""


class ArgumentError(RflError, ValueError):
    """An argument is outside the documented domain of an operation."""


class UnsupportedConfigurationError(RflError):
    """A parameter combination is recognized but deliberately not supported."""


class SingularGramError(RflError):
    """A Gram matrix stayed numerically singular through the whole jitter ladder."""


class DivergenceError(RflError):
    """An iterative computation produced non-finite values."""


class ResourceLimitError(RflError):
    """A requested computation exceeds a hard size limit."""


class ConfigError(RflError):
    """A configuration file or override set failed validation."""


_INTEGER_WORDS = {0: "a non-negative integer", 1: "a positive integer"}


def _check_positive_int(value, name: str, minimum: int = 1) -> int:
    """``value`` as an int; :class:`ArgumentError` unless it is an integer >= ``minimum``."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= minimum):
        what = _INTEGER_WORDS.get(minimum, f"an integer >= {minimum}")
        raise ArgumentError(f"{name} must be {what}, got {value!r}")
    return int(value)


def _check_nonnegative_int(value, name: str) -> int:
    """``value`` as an int; :class:`ArgumentError` unless it is an integer >= 0."""
    return _check_positive_int(value, name, 0)


def _check_real(value, name: str) -> float:
    """``value`` as a float; :class:`ArgumentError` unless it is a finite real number."""
    try:
        if isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an int past the float range
        pass
    raise ArgumentError(f"{name} must be a finite real number, got {value!r}")
