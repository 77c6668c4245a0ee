"""RSSI measurement model: register RSSI versus packet RSSI.

The paper's key empirical observation (Sec. II-C) is that the SX127x
exposes two RSSI readings:

- *packet RSSI* (pRSSI): the RSSI averaged over the whole packet
  reception -- hundreds of milliseconds at low data rates, during which
  the vehicular channel changes completely; and
- *register RSSI* (rRSSI): the instantaneous RSSI register, which firmware
  can poll once per symbol during reception.

This module turns a continuous received-power trajectory into the
register-RSSI sample vector a real SX127x host would log: one sample per
symbol, quantized to the register's 1 dB resolution, biased by the unit's
calibration offset and corrupted by measurement noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import TransceiverModel
from repro.utils.rng import SeedLike, as_generator


def quantize_packet_rssi(value_dbm, resolution_db: float = 1.0):
    """Quantize a whole-packet RSSI report to the register resolution.

    The rule is *round half toward +infinity*: ``floor(x / res + 0.5) * res``.
    Earlier revisions used Python's ``round()``, whose round-half-even
    ("banker's") tie behaviour silently depends on the parity of the
    neighbouring register step; this rule is documented, direction-stable
    at ties, and vectorizes bit-identically (``np.floor`` is elementwise),
    so the loop and vectorized probing paths share one implementation.

    Accepts scalars or arrays; scalars return a plain ``float``.
    """
    scaled = np.asarray(value_dbm, dtype=float) / resolution_db
    quantized = np.floor(scaled + 0.5) * resolution_db
    if np.isscalar(value_dbm):
        return float(quantized)
    return quantized


@dataclass(frozen=True)
class RegisterRssiSampler:
    """Samples the RSSI register once per symbol during packet reception.

    Attributes:
        phy: LoRa PHY configuration (sets the symbol time and symbol count).
        device: Transceiver model (sets offset, noise, resolution, floor).
    """

    phy: LoRaPHYConfig
    device: TransceiverModel

    @property
    def n_samples(self) -> int:
        """Register samples per packet: one per symbol."""
        return self.phy.total_symbols

    def sample_times(self, reception_start_s: float) -> np.ndarray:
        """Absolute times of the register reads during one reception.

        Reads occur at the end of each symbol, starting at
        ``reception_start_s``.
        """
        symbol = self.phy.symbol_time_s
        return reception_start_s + symbol * (1.0 + np.arange(self.n_samples))

    def sample(
        self,
        received_power_dbm: Callable[[np.ndarray], np.ndarray],
        reception_start_s: float,
        seed: SeedLike = None,
    ) -> np.ndarray:
        """Register-RSSI vector for one packet reception.

        Args:
            received_power_dbm: Vectorized function mapping absolute times
                (seconds) to the true received power in dBm.
            reception_start_s: When the reception began.
            seed: Randomness for the measurement noise.

        Returns:
            ``n_samples`` register readings in dBm, quantized and clamped
            the way the chip reports them.
        """
        rng = as_generator(seed)
        times = self.sample_times(reception_start_s)
        truth = np.asarray(received_power_dbm(times), dtype=float)
        if truth.shape != times.shape:
            raise ConfigurationError(
                "received_power_dbm must return one power value per sample time"
            )
        noise = rng.normal(0.0, self.device.rssi_noise_std_db, size=truth.shape)
        return self._register_readings(truth, noise)

    def reception_times(self, reception_starts_s: np.ndarray) -> np.ndarray:
        """The ``[n_receptions, n_samples]`` register-read time grid.

        Row ``k`` is :meth:`sample_times` of ``reception_starts_s[k]``;
        the stacked probing kernel builds the grid once per group and
        feeds the powers it evaluates there to :meth:`readings_for_power`.
        """
        starts = np.asarray(reception_starts_s, dtype=float)
        symbol = self.phy.symbol_time_s
        offsets = symbol * (1.0 + np.arange(self.n_samples))
        return starts[:, np.newaxis] + offsets

    def readings_for_power(
        self, truth_dbm: np.ndarray, standard_noise: np.ndarray
    ) -> np.ndarray:
        """Register readings from a precomputed received-power grid.

        The batched form of :meth:`sample` with the channel evaluation
        factored out: ``truth_dbm`` holds true received powers on the
        :meth:`reception_times` grid (any leading shape -- the smoothing
        pipeline only touches the trailing symbol axis, so stacked
        ``[n_sessions, n_receptions, n_samples]`` batches process each
        reception bit-identically to a per-reception :meth:`sample`).
        ``standard_noise`` holds *standard* normal draws of the same
        shape, scaled here by the device's noise level
        (``Generator.normal(0, std)`` computes ``std * z`` from the same
        standard-normal stream).
        """
        truth = np.asarray(truth_dbm, dtype=float)
        noise = self.device.rssi_noise_std_db * np.asarray(standard_noise, dtype=float)
        if noise.shape != truth.shape:
            raise ConfigurationError(
                "standard_noise must supply one draw per register sample"
            )
        return self._register_readings(truth, noise)

    def _register_readings(self, truth: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Smooth, bias, corrupt and quantize true powers into readings.

        Operates on the trailing (symbol) axis, so one implementation
        serves both the single-reception and the batched entry points.
        """
        alpha = self.device.rssi_smoothing_alpha
        if alpha < 1.0:
            # The RSSI register is an exponential average of recent symbol
            # powers; the filter state starts at the first symbol's power.
            # Symbol-major column views: on a single reception, indexing
            # ``truth[..., index]`` would dispatch on slow 0-d arrays.
            smoothed = np.empty(truth.shape)
            outputs = np.moveaxis(smoothed, -1, 0)
            keep = 1.0 - alpha
            state = truth[..., 0].copy()
            for index, column in enumerate(np.moveaxis(truth, -1, 0)):
                state = keep * state + alpha * column
                outputs[index] = state
            truth = smoothed
        noisy = truth + self.device.rssi_offset_db + noise
        quantized = (
            np.round(noisy / self.device.rssi_resolution_db)
            * self.device.rssi_resolution_db
        )
        return np.maximum(quantized, self.device.rssi_floor_dbm)
