"""Exception types shared across the package.

Every error raised by the public API derives from :class:`RflError`, so
callers can catch one base class at an API boundary.  The concrete types
distinguish caller mistakes from numerical failures: the CLI maps
:class:`ConfigError`, :class:`ArgumentError`,
:class:`UnsupportedConfigurationError` and :class:`ResourceLimitError` to
exit code 2, and the numerical family (:class:`SingularGramError`,
:class:`DivergenceError`) to exit code 3.
"""

from __future__ import annotations

from numbers import Integral


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


def _check_positive_int(value, name: str) -> None:
    """Raise :class:`ArgumentError` unless ``value`` is an integer >= 1; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= 1):
        raise ArgumentError(f"{name} must be a positive integer, got {value!r}")


def _check_nonnegative_int(value, name: str) -> None:
    """Raise :class:`ArgumentError` unless ``value`` is an integer >= 0; a bool is not one."""
    if isinstance(value, bool) or not (isinstance(value, Integral) and value >= 0):
        raise ArgumentError(f"{name} must be a non-negative integer, got {value!r}")
