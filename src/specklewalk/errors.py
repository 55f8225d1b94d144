"""Exception types shared across the simulator."""

import math
import numbers


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


def require_finite(**knobs: float) -> None:
    """Raise ConfigError naming the first knob that is NaN or infinite."""
    for name, value in knobs.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}")


def require_integer(**knobs: int) -> None:
    """Raise ConfigError naming the first knob that is not a Python or numpy integer (a bool is not one)."""
    for name, value in knobs.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
