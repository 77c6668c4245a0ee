"""Small argument-validation helpers.

Validation failures raise :class:`repro.exceptions.ConfigurationError` so
user mistakes are distinguishable from library bugs.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.exceptions import ConfigurationError


def require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with ``message`` unless ``condition``."""
    if not condition:
        raise ConfigurationError(message)


def require_positive(value: float, name: str) -> None:
    """Require ``value`` to be strictly positive."""
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value!r}")


def require_in_range(value: float, low: float, high: float, name: str) -> None:
    """Require ``low <= value <= high``."""
    if not low <= value <= high:
        raise ConfigurationError(f"{name} must be in [{low}, {high}], got {value!r}")


def require_one_of(value: Any, options: Iterable[Any], name: str) -> None:
    """Require ``value`` to be one of ``options``."""
    options = tuple(options)
    if value not in options:
        raise ConfigurationError(f"{name} must be one of {options}, got {value!r}")
