"""Large-scale path loss models.

Path loss is the deterministic, distance-driven component of the channel.
It is perfectly reciprocal and perfectly observable by an imitating
attacker -- which is exactly why the paper's security argument (Sec. V-H2)
rests on small-scale fading, not on path loss.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass

import numpy as np

from repro.utils.validation import require_positive

_SPEED_OF_LIGHT = 299_792_458.0


class PathLossModel(abc.ABC):
    """Interface: distance (m) to path loss (positive dB)."""

    @abc.abstractmethod
    def loss_db(self, distance_m):
        """Path loss in dB at the given distance(s).

        Accepts scalars or numpy arrays; distances are clamped below at
        1 m to keep the near-field out of the log.
        """


def _clamped(distance_m) -> np.ndarray:
    return np.maximum(np.asarray(distance_m, dtype=float), 1.0)


@dataclass(frozen=True)
class FreeSpacePathLoss(PathLossModel):
    """Friis free-space loss: ``20 log10(4 pi d / lambda)``."""

    carrier_frequency_hz: float = 434e6

    def __post_init__(self) -> None:
        require_positive(self.carrier_frequency_hz, "carrier_frequency_hz")

    def loss_db(self, distance_m):
        wavelength = _SPEED_OF_LIGHT / self.carrier_frequency_hz
        return 20.0 * np.log10(4.0 * np.pi * _clamped(distance_m) / wavelength)


@dataclass(frozen=True)
class LogDistancePathLoss(PathLossModel):
    """Log-distance model: ``PL(d0) + 10 n log10(d / d0)``.

    ``exponent`` is the environment's path loss exponent: ~2 for open rural
    LOS, 2.7--3.5 for urban NLOS vehicular links.
    """

    exponent: float = 2.7
    reference_distance_m: float = 1.0
    carrier_frequency_hz: float = 434e6

    def __post_init__(self) -> None:
        require_positive(self.exponent, "exponent")
        require_positive(self.reference_distance_m, "reference_distance_m")
        require_positive(self.carrier_frequency_hz, "carrier_frequency_hz")

    @property
    def reference_loss_db(self) -> float:
        """Free-space loss at the reference distance."""
        wavelength = _SPEED_OF_LIGHT / self.carrier_frequency_hz
        return 20.0 * math.log10(4.0 * math.pi * self.reference_distance_m / wavelength)

    def loss_db(self, distance_m):
        d = np.maximum(_clamped(distance_m), self.reference_distance_m)
        return self.reference_loss_db + 10.0 * self.exponent * np.log10(
            d / self.reference_distance_m
        )
