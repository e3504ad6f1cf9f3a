"""Exception hierarchy shared across the package.

Validation problems (bad arguments, malformed inputs) map to CLI exit code 2,
numerical problems (divergence, non-convergence) to exit code 3.
"""

from __future__ import annotations

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


def require_integer(name: str, value) -> None:
    """Raise InvalidArgumentError unless ``value`` is an integer; NumPy
    integers pass, bool and float do not."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidArgumentError(f"{name} must be an integer, got {value!r}")
