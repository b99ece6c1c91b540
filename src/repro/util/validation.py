"""Small validation helpers used across the package.

The scheduler configuration space in the paper is full of bounded
quantities (preferences in ``[-1, 1]`` or ``[0, 1]``, powers and FLOPS that
must be positive, ...).  Centralising the checks keeps the error messages
consistent and the call sites terse.
"""

from __future__ import annotations

import math
from numbers import Real


def ensure_positive(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number strictly greater than zero.

    Raises :class:`ValueError` otherwise.
    """
    _ensure_finite_number(value, name)
    if value <= 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return float(value)


def ensure_non_negative(value: float, name: str) -> float:
    """Return ``value`` if it is a finite number greater than or equal to zero."""
    _ensure_finite_number(value, name)
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return float(value)


def ensure_finite(value: float, name: str) -> float:
    """Return ``value`` if it is a finite real number (a temperature, say).

    >>> ensure_finite(float("nan"), "temperature")
    Traceback (most recent call last):
    ...
    ValueError: temperature must be finite, got nan
    """
    _ensure_finite_number(value, name)
    return float(value)


def ensure_integer(value: object, name: str) -> int:
    """Return ``value`` if it is an ``int`` (a ``bool`` is not).

    Raises :class:`ValueError` naming ``name`` otherwise.  Spec parameters
    go through this check, because truncating ``1.9`` to ``1`` would run
    one simulation under two content hashes.

    >>> ensure_integer(3, "clients")
    3
    >>> ensure_integer(1.9, "clients")
    Traceback (most recent call last):
    ...
    ValueError: clients must be an integer, got 1.9
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def ensure_in_range(value: float, name: str, low: float, high: float) -> float:
    """Return ``value`` if it lies within ``[low, high]``."""
    _ensure_finite_number(value, name)
    if not (low <= value <= high):
        raise ValueError(f"{name} must be in [{low}, {high}], got {value!r}")
    return float(value)


def _ensure_finite_number(value: float, name: str) -> None:
    # Exact floats, the common case, skip the slow ``numbers.Real`` ABC check.
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, Real)):
        raise TypeError(f"{name} must be a real number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if not finite:
        raise ValueError(f"{name} must be finite, got {value!r}")
