"""LoRa airtime and bit-rate model.

Implements the Semtech SX127x airtime formula (AN1200.13) and the
simplified bit-rate expression the paper uses,

    R_b = SF * (BW / 2**SF) * CR,

where ``CR`` is the code rate fraction (4/5 ... 4/8).  The airtime of a
probe packet is what separates Alice's and Bob's channel measurements in
time; the whole feasibility problem of the paper (Sec. II) reduces to this
number being large compared to the channel coherence time.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.utils.validation import require, require_one_of, require_positive

#: Bandwidths supported by the SX127x family, in Hz.
STANDARD_BANDWIDTHS_HZ: Tuple[float, ...] = (
    7_812.5,
    10_417.0,
    15_625.0,
    20_833.0,
    31_250.0,
    41_667.0,
    62_500.0,
    125_000.0,
    250_000.0,
    500_000.0,
)

_MIN_SF = 6
_MAX_SF = 12


class CodingRate(enum.Enum):
    """LoRa forward-error-correction coding rates.

    The value is the denominator increment: coding rate is ``4 / (4 + value)``.
    """

    CR_4_5 = 1
    CR_4_6 = 2
    CR_4_7 = 3
    CR_4_8 = 4

    @property
    def fraction(self) -> float:
        """The code rate as a fraction in (0, 1], e.g. 4/8 = 0.5."""
        return 4.0 / (4.0 + self.value)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"4/{4 + self.value}"


@dataclass(frozen=True)
class LoRaPHYConfig:
    """A LoRa physical-layer parameter set.

    The defaults are the paper's configuration (Sec. V-A1): BW = 125 kHz,
    SF = 12, CR = 4/8, f0 = 434 MHz, 16-byte probe payload.
    """

    spreading_factor: int = 12
    bandwidth_hz: float = 125_000.0
    coding_rate: CodingRate = CodingRate.CR_4_8
    carrier_frequency_hz: float = 434e6
    payload_bytes: int = 16
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_enabled: bool = True
    low_data_rate_optimize: bool = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        require(
            _MIN_SF <= self.spreading_factor <= _MAX_SF,
            f"spreading_factor must be in [{_MIN_SF}, {_MAX_SF}], "
            f"got {self.spreading_factor}",
        )
        require_one_of(self.bandwidth_hz, STANDARD_BANDWIDTHS_HZ, "bandwidth_hz")
        require_positive(self.carrier_frequency_hz, "carrier_frequency_hz")
        require_positive(self.payload_bytes, "payload_bytes")
        require(self.preamble_symbols >= 6, "preamble_symbols must be >= 6")
        if self.low_data_rate_optimize is None:
            # Semtech mandates LDRO when the symbol time exceeds 16 ms.
            object.__setattr__(
                self, "low_data_rate_optimize", self.symbol_time_s > 16e-3
            )

    @property
    def symbol_time_s(self) -> float:
        """Duration of one LoRa symbol: ``2**SF / BW`` seconds."""
        return (2.0**self.spreading_factor) / self.bandwidth_hz

    @property
    def bit_rate_bps(self) -> float:
        """Useful bit rate, ``SF * BW / 2**SF * CR`` (paper Sec. II-A)."""
        return (
            self.spreading_factor
            * (self.bandwidth_hz / 2.0**self.spreading_factor)
            * self.coding_rate.fraction
        )

    @property
    def wavelength_m(self) -> float:
        """Carrier wavelength (0.6912 m at 434 MHz)."""
        return 299_792_458.0 / self.carrier_frequency_hz

    @property
    def preamble_time_s(self) -> float:
        """Preamble airtime, ``(n_preamble + 4.25)`` symbols."""
        return (self.preamble_symbols + 4.25) * self.symbol_time_s

    @property
    def n_payload_symbols(self) -> int:
        """Number of payload symbols per the Semtech AN1200.13 formula."""
        sf = self.spreading_factor
        de = 2 if self.low_data_rate_optimize else 0
        ih = 0 if self.explicit_header else 1
        crc = 1 if self.crc_enabled else 0
        numerator = 8 * self.payload_bytes - 4 * sf + 28 + 16 * crc - 20 * ih
        ceil_term = math.ceil(numerator / (4 * (sf - de)))
        return 8 + max(ceil_term * (self.coding_rate.value + 4), 0)

    @property
    def total_symbols(self) -> int:
        """Preamble (rounded up) plus payload symbols in one packet."""
        return math.ceil(self.preamble_symbols + 4.25) + self.n_payload_symbols

    @property
    def payload_time_s(self) -> float:
        """Payload airtime in seconds."""
        return self.n_payload_symbols * self.symbol_time_s

    @property
    def airtime_s(self) -> float:
        """Total packet airtime (preamble + payload) in seconds.

        With the paper's defaults this is about 1.5 s of raw airtime for a
        16-byte payload; the paper's 700 ms figure uses the simplified
        ``L / R_b`` estimate, which :meth:`naive_airtime_s` reproduces.
        """
        return self.preamble_time_s + self.payload_time_s

    @property
    def naive_airtime_s(self) -> float:
        """The paper's simplified airtime estimate ``T_t = L / R_b``."""
        return (8.0 * self.payload_bytes) / self.bit_rate_bps

    def with_payload(self, payload_bytes: int) -> "LoRaPHYConfig":
        """A copy of this config with a different payload size."""
        return replace(self, payload_bytes=payload_bytes)

    def message_airtime_s(self, payload_bytes: int, messages: int) -> float:
        """Airtime of one of ``messages`` packets sharing ``payload_bytes``.

        The payload is split evenly, rounded up, and each packet's share
        is clamped to LoRa's 1..255-byte payload range; no messages count
        as one.  Reconciliation airtime is ``messages`` times this.
        """
        share = -(-payload_bytes // max(1, messages))
        return self.with_payload(max(1, min(255, share))).airtime_s

    def describe(self) -> str:
        """Human-readable one-line summary."""
        return (
            f"SF{self.spreading_factor}/BW{self.bandwidth_hz / 1e3:g}kHz/"
            f"CR{self.coding_rate} @ {self.carrier_frequency_hz / 1e6:g}MHz "
            f"({self.bit_rate_bps:.0f} bps, airtime {self.airtime_s * 1e3:.0f} ms)"
        )


def standard_data_rate_sweep() -> List[LoRaPHYConfig]:
    """Configurations spanning the paper's 23--1172 bps sweep (Fig. 2a).

    Returns configs sorted by ascending bit rate.  The endpoints match the
    paper: (SF12, 15.625 kHz, CR 4/8) gives 22.9 bps and
    (SF12, 500 kHz, CR 4/5) gives 1171.9 bps; (SF12, 125 kHz, CR 4/8)
    gives the 183 bps setting used everywhere else in the evaluation.
    """
    combos = [
        (12, 15_625.0, CodingRate.CR_4_8),  # ~23 bps
        (12, 31_250.0, CodingRate.CR_4_8),  # ~46 bps
        (12, 62_500.0, CodingRate.CR_4_8),  # ~92 bps
        (12, 125_000.0, CodingRate.CR_4_8),  # ~183 bps
        (12, 125_000.0, CodingRate.CR_4_5),  # ~293 bps
        (12, 250_000.0, CodingRate.CR_4_8),  # ~366 bps
        (12, 250_000.0, CodingRate.CR_4_5),  # ~586 bps
        (12, 500_000.0, CodingRate.CR_4_8),  # ~732 bps
        (12, 500_000.0, CodingRate.CR_4_5),  # ~1172 bps
    ]
    configs = [
        LoRaPHYConfig(spreading_factor=sf, bandwidth_hz=bw, coding_rate=cr)
        for sf, bw, cr in combos
    ]
    return sorted(configs, key=lambda cfg: cfg.bit_rate_bps)
