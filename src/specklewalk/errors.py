"""Exception types shared across the simulator."""

import math


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
