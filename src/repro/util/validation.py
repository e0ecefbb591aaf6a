"""Small argument-validation helpers shared across the library."""

from __future__ import annotations

import math
import numbers
from typing import Any, Optional

__all__ = [
    "require_integer",
    "require_float",
    "require_positive",
    "require_nonnegative",
    "require_in_unit_interval",
    "pfail_error",
    "ccr_error",
    "bandwidth_error",
    "seed_error",
]


def require_integer(value: Any, name: str) -> int:
    """``int(value)`` for an integer field, refusing what ``int()`` would
    silently truncate.

    A bool, or a real number with a fractional part such as ``2.5``,
    raises ``ValueError``; any other value coerces exactly as ``int()``
    does, errors included, so accepted values keep their meaning.
    """
    if isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    number = int(value)
    if isinstance(value, numbers.Real) and number != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return number


def require_float(value: Any, name: str) -> float:
    """``float(value)`` for a real field, refusing a bool, which
    ``float()`` would read as 0.0 or 1.0; any other value coerces
    exactly as ``float()`` does, errors included."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return float(value)


def require_positive(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value > 0``; return the value."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value!r}")
    return value


def require_nonnegative(value: float, name: str) -> float:
    """Raise ``ValueError`` unless ``value >= 0``; return the value."""
    if not value >= 0:
        raise ValueError(f"{name} must be >= 0, got {value!r}")
    return value


def require_in_unit_interval(
    value: float, name: str, *, open_right: bool = False
) -> float:
    """Raise ``ValueError`` unless ``0 <= value <= 1`` (or ``< 1``)."""
    upper_ok = value < 1 if open_right else value <= 1
    if not (0 <= value and upper_ok):
        bound = "[0, 1)" if open_right else "[0, 1]"
        raise ValueError(f"{name} must be in {bound}, got {value!r}")
    return value


# ----------------------------------------------------------------------
# Experiment-parameter domains.  Enforced at two sites — argparse types
# in the CLI, and SweepSpec in the engine, which a service EvalRequest
# delegates to by building its 1×1 spec — each with its own exception
# type, so these return an error message (``None`` when valid) and
# every site states the rule exactly once.


def pfail_error(value: float) -> Optional[str]:
    """Failure probability: finite, in [0, 1)."""
    if not (math.isfinite(value) and 0.0 <= value < 1.0):
        return f"pfail must be in [0, 1), got {value}"
    return None


def ccr_error(value: float) -> Optional[str]:
    """CCR target: finite, >= 0."""
    if not (math.isfinite(value) and value >= 0):
        return f"CCR must be finite and >= 0, got {value}"
    return None


def bandwidth_error(value: float) -> Optional[str]:
    """Platform bandwidth: finite, > 0."""
    if not (math.isfinite(value) and value > 0):
        return f"bandwidth must be finite and > 0, got {value}"
    return None


def seed_error(value: int) -> Optional[str]:
    """Root experiment seed: non-negative (SeedSequence-compatible)."""
    if value < 0:
        return f"seed must be >= 0, got {value}"
    return None
