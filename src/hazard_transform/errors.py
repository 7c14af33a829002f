"""Exception types shared across the package, and the type checks that turn
a config value of the wrong type into a :class:`ConfigError`."""

from __future__ import annotations

import numbers

__all__ = [
    "HazardTransformError",
    "DataError",
    "GuardViolation",
    "NegativeVarianceError",
    "ConfigError",
]


class HazardTransformError(Exception):
    """Base class for errors raised by this package."""


class DataError(HazardTransformError):
    """Malformed or inconsistent input data (parse and validation failures)."""


class GuardViolation(HazardTransformError):
    """A state component left the domain where the system's integrand is defined.

    Attributes
    ----------
    component : str
        Name of the offending state component.
    time : float or None
        Step time at which the violation occurred (None outside a solve).
    value : float
        Offending component value.
    """

    def __init__(self, component: str, value: float, time: float | None = None):
        self.component = component
        self.value = value
        self.time = time
        where = f" at time {time:g}" if time is not None else ""
        super().__init__(
            f"guard violation{where}: component {component!r} = {value:.6g} "
            f"is outside its admissible range"
        )


class NegativeVarianceError(HazardTransformError):
    """The covariance path has a negative diagonal entry (small-sample collapse).

    The offending times are listed and never clamped away; callers decide how
    to react (studies record the replication as failed).
    """

    def __init__(self, times, component: str):
        self.times = list(times)
        self.component = component
        shown = ", ".join(f"{t:g}" for t in self.times[:8])
        more = ", ..." if len(self.times) > 8 else ""
        super().__init__(
            f"negative variance diagonal for component {component!r} "
            f"at time(s): {shown}{more}"
        )


class ConfigError(HazardTransformError):
    """Invalid run configuration (CLI config file or system parameters)."""


def _number(value, what: str, integer: bool = False):
    """``value`` if it is a number (an integer when ``integer``; a bool is
    neither), else :class:`ConfigError` naming ``what``."""
    if isinstance(value, bool) or not isinstance(
        value, numbers.Integral if integer else numbers.Real
    ):
        kind = "an integer" if integer else "a number"
        raise ConfigError(f"{what} must be {kind}, got {value!r}")
    return value


def _numbers(value, what: str, integer: bool = False) -> list:
    """``value`` if it is a list of numbers (of integers when ``integer``),
    else :class:`ConfigError` naming ``what``."""
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{what} must be a list, got {value!r}")
    for v in value:
        _number(v, f"each of {what}", integer)
    return list(value)
