"""Exception hierarchy shared across the package.

Validation problems (bad arguments, malformed inputs) are to map to exit code 2
of the planned command-line interface, numerical problems (divergence, non-convergence) to 3.

A scalar argument (a count, rate or seed) is checked by one call to
:func:`require_integer` or :func:`require_real`, which decide what is valid
and how a rejection reads; NumPy scalars pass them, bool does not.
"""

from __future__ import annotations

import math
import numbers


class PertmapError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(PertmapError, ValueError):
    """An argument violates a documented precondition."""


class NumericalFailureError(PertmapError, RuntimeError):
    """A numerical routine failed to converge or produced non-finite values."""


class UnsupportedOperationError(PertmapError, TypeError):
    """The computation graph contains a primitive the engine cannot differentiate."""


class DegenerateEffectError(InvalidArgumentError):
    """The observational and interventional distributions are indistinguishable,
    so an effect-relative quantity is undefined."""


class UndefinedMetricError(InvalidArgumentError):
    """A metric is undefined for the given inputs (e.g. no positive labels)."""


class UndefinedCorrelationError(UndefinedMetricError):
    """A correlation is undefined because one input has zero variance."""


def require_integer(name: str, value, minimum: int | None = None, maximum: int | None = None) -> None:
    """Raise InvalidArgumentError unless ``value`` is an integer within the
    bounds that are given; NumPy integers pass, bool and float do not."""
    integral = not isinstance(value, bool) and isinstance(value, numbers.Integral)
    if not (integral and (minimum is None or value >= minimum) and (maximum is None or value <= maximum)):
        raise InvalidArgumentError(f"{name} must be an integer{_bounds(minimum, maximum)}, got {value!r}")


def require_real(name: str, value, low: float | None = None, strict: bool = False, high: float | None = None) -> None:
    """Raise InvalidArgumentError unless ``value`` is a finite real number of
    at least ``low`` (above it when ``strict``) and at most ``high``, where
    given; NumPy floats and integers pass, bool does not."""
    finite = not isinstance(value, bool) and isinstance(value, numbers.Real) and math.isfinite(value)
    if not (finite and (low is None or (value > low if strict else value >= low)) and (high is None or value <= high)):
        raise InvalidArgumentError(f"{name} must be a finite real number{_bounds(low, high, strict)}, got {value!r}")


def _bounds(low, high, strict: bool = False) -> str:
    """A rejection's bound clause, such as " at least 0 and at most 1"."""
    words = [f"{'above' if strict else 'at least'} {low}"] if low is not None else []
    if high is not None:
        words.append(f"at most {high}")
    return " " + " and ".join(words) if words else ""
