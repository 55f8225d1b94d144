"""Exception types, and the argument rules that raise them, shared across the simulator."""

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """A configuration value or file violates its contract."""


class DimensionError(ValueError):
    """Array shapes or mode indices are inconsistent."""


class DegenerateTargetError(ValueError):
    """A focusing target has no coupling to any controlled input mode."""


class DegenerateFieldError(ValueError):
    """An output field carries no power where power is required."""


class StatisticsError(ValueError):
    """A statistical estimate is requested from insufficient data."""


class FormatError(ValueError):
    """A persisted file does not match its declared binary/text format."""


def _require_real(name: str, value) -> None:
    if type(value) is not float and type(value) is not int and not isinstance(value, numbers.Real):
        raise ConfigError(f"{name} must be a real number, got {value!r}")


def require_finite(**knobs: float) -> None:
    """Raise ConfigError naming the first knob that is not a real number, or is NaN, infinite or beyond float range."""
    for name, value in knobs.items():
        _require_real(name, value)
        try:
            finite = math.isfinite(value)
        except OverflowError:  # an int too large for a float
            finite = False
        if not finite:
            raise ConfigError(f"{name} must be finite, got {value!r}")


def require_nonnegative(**knobs: float) -> None:
    """Raise ConfigError naming the first knob that is not finite, then the first below 0."""
    require_finite(**knobs)
    for name, value in knobs.items():
        if value < 0:
            raise ConfigError(f"{name} must be nonnegative, got {value!r}")


def require_probability(**knobs: float) -> None:
    """Raise ConfigError naming the first knob that is not a real number or lies outside [0, 1]; NaN is outside."""
    for name, value in knobs.items():
        _require_real(name, value)
        if not 0.0 <= value <= 1.0:
            raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")


def require_integer(minimum: int | None = None, **knobs: int) -> None:
    """Raise ConfigError naming the first knob that is not an int or numpy integer (not a bool), or is below ``minimum``."""
    for name, value in knobs.items():  # a plain int skips the numbers.Integral test, an ABC check of ~0.7 us (CPython 3.11)
        if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{name} must be {_whole(minimum)}, got {value!r}")


def require_count(minimum: int = 0, **counts: float) -> None:
    """Raise ConfigError naming the first count not finite or not a whole number >= ``minimum`` (5.0 is one, True is not)."""
    require_finite(**counts)
    for name, value in counts.items():
        if isinstance(value, bool) or value < minimum or int(value) != value:
            raise ConfigError(f"{name} must be {_whole(minimum)}, got {value!r}")


def _whole(minimum: int) -> str:
    return {0: "a nonnegative integer", 1: "a positive integer"}.get(minimum, f"an integer >= {minimum}")


def as_array(value, dtype, name: str, error: type = ConfigError) -> np.ndarray:
    """``value`` as a ``dtype`` array (no copy if it is one); ``error`` naming ``name`` unless its entries cast to it in kind."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged nesting
        raise error(f"{name} must be a rectangular array of numbers") from exc
    if not np.can_cast(arr.dtype, dtype, "same_kind"):
        raise error(f"{name} must be numbers of a kind that casts to {np.dtype(dtype)}, got dtype {arr.dtype}")
    return arr.astype(dtype, copy=False)


def require_all_finite(array: np.ndarray, name: str) -> None:
    """Raise ConfigError naming ``name`` unless every entry of ``array`` is finite."""
    if not np.all(np.isfinite(array)):
        raise ConfigError(f"{name} must be finite")


def require_choice(choices: tuple, **knobs: str) -> None:
    """Raise ConfigError naming the first knob that is not one of ``choices``."""
    for name, value in knobs.items():
        if value not in choices:
            raise ConfigError(f"{name} must be one of {choices}, got {value!r}")
