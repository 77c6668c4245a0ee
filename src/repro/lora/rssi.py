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

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import TransceiverModel


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

    def reception_times(self, reception_starts_s: np.ndarray) -> np.ndarray:
        """The ``[n_receptions, n_samples]`` register-read time grid.

        Reads occur at the end of each symbol: row ``k`` starts one
        symbol after ``reception_starts_s[k]``.  The probing engines
        evaluate the received power on this grid and feed it to
        :meth:`readings_for_power`.
        """
        starts = np.asarray(reception_starts_s, dtype=float)
        symbol = self.phy.symbol_time_s
        offsets = symbol * (1.0 + np.arange(self.n_samples))
        return starts[:, np.newaxis] + offsets

    def readings_for_power(
        self, truth_dbm: np.ndarray, standard_noise: np.ndarray
    ) -> np.ndarray:
        """Register readings from true received powers on the read grid.

        ``truth_dbm`` holds true received powers on the
        :meth:`reception_times` grid, with any leading shape: the
        smoothing pipeline only touches the trailing symbol axis, so
        stacked ``[n_sessions, n_receptions, n_samples]`` batches process
        each reception exactly as a single one.  ``standard_noise`` holds
        *standard* normal draws of the same shape, scaled here by the
        device's noise level (``Generator.normal(0, std)`` computes
        ``std * z`` from the same standard-normal stream).

        Returns the readings in dBm: smoothed, biased, corrupted,
        quantized and clamped the way the chip reports them.
        """
        truth = np.asarray(truth_dbm, dtype=float)
        noise = self.device.rssi_noise_std_db * np.asarray(standard_noise, dtype=float)
        if noise.shape != truth.shape:
            raise ConfigurationError(
                "standard_noise must supply one draw per register sample"
            )
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
