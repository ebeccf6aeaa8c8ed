"""Argument-validation helpers.

These helpers keep validation messages consistent across the library and
keep constructors short. Domain failures raise
:class:`~repro.exceptions.ConfigurationError` (which keeps ``ValueError``
as a base for backwards compatibility); a wrong *type* is a caller
programming error and still raises ``TypeError``, which the
:mod:`repro.exceptions` hierarchy deliberately lets propagate unchanged.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.exceptions import ConfigurationError

__all__ = [
    "check_positive_int",
    "check_nonnegative",
    "check_probability",
    "check_in_range",
    "check_array_1d",
    "check_array_2d",
]


def check_positive_int(value, name: str) -> int:
    """Validate that ``value`` is an integer ``>= 1`` and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        # reprolint: allow[EXC001] reason=wrong type is a programming error; TypeError propagates unchanged by the documented hierarchy contract
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    value = int(value)
    if value < 1:
        raise ConfigurationError(f"{name} must be >= 1, got {value}")
    return value


def check_nonnegative(value, name: str) -> float:
    """Validate that ``value`` is a finite number ``>= 0`` and return it as ``float``."""
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ConfigurationError(
            f"{name} must be a finite non-negative number, got {value}"
        )
    return value


def check_probability(value, name: str) -> float:
    """Validate that ``value`` lies in the closed interval [0, 1]."""
    value = float(value)
    if not (0.0 <= value <= 1.0):
        raise ConfigurationError(f"{name} must lie in [0, 1], got {value}")
    return value


def check_in_range(
    value,
    name: str,
    low: Optional[float] = None,
    high: Optional[float] = None,
    *,
    inclusive: bool = True,
) -> float:
    """Validate that ``low <= value <= high`` (or strict if ``inclusive=False``)."""
    value = float(value)
    if np.isnan(value):  # NaN would pass every bound comparison
        raise ConfigurationError(f"{name} must be a number, got {value}")
    if low is not None:
        if inclusive and value < low:
            raise ConfigurationError(f"{name} must be >= {low}, got {value}")
        if not inclusive and value <= low:
            raise ConfigurationError(f"{name} must be > {low}, got {value}")
    if high is not None:
        if inclusive and value > high:
            raise ConfigurationError(f"{name} must be <= {high}, got {value}")
        if not inclusive and value >= high:
            raise ConfigurationError(f"{name} must be < {high}, got {value}")
    return value


def check_array_1d(array, name: str, *, length: Optional[int] = None) -> np.ndarray:
    """Coerce ``array`` to a 1-D float ndarray, optionally checking its length."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 1:
        raise ConfigurationError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if length is not None and arr.shape[0] != length:
        raise ConfigurationError(
            f"{name} must have length {length}, got {arr.shape[0]}"
        )
    return arr


def check_array_2d(
    array,
    name: str,
    *,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
) -> np.ndarray:
    """Coerce ``array`` to a 2-D float ndarray, optionally checking its shape."""
    arr = np.asarray(array, dtype=float)
    if arr.ndim != 2:
        raise ConfigurationError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if rows is not None and arr.shape[0] != rows:
        raise ConfigurationError(f"{name} must have {rows} rows, got {arr.shape[0]}")
    if cols is not None and arr.shape[1] != cols:
        raise ConfigurationError(
            f"{name} must have {cols} columns, got {arr.shape[1]}"
        )
    return arr
