"""LoRa physical-layer substrate.

Models the parts of the LoRa PHY that matter for physical-layer key
generation: how spreading factor / bandwidth / coding rate set the bit rate
and packet airtime (and therefore the probe time offset that destroys
channel reciprocity), how the SX127x transceiver reports RSSI (the 1 dB
register granularity, per-device offsets, and the distinction between the
averaged *packet RSSI* and the instantaneous *register RSSI* the paper
exploits), and the link budget converting path gain to received power.
"""

from repro.lora.airtime import (
    CodingRate,
    LoRaPHYConfig,
    STANDARD_BANDWIDTHS_HZ,
    standard_data_rate_sweep,
)
from repro.lora.radio import (
    TransceiverModel,
    DRAGINO_LORA_SHIELD,
    MULTITECH_XDOT,
    MULTITECH_MDOT,
    ALL_DEVICES,
    device_by_name,
)
from repro.lora.link_budget import LinkBudget, sensitivity_dbm, noise_floor_dbm
from repro.lora.rssi import RegisterRssiSampler

__all__ = [
    "CodingRate",
    "LoRaPHYConfig",
    "STANDARD_BANDWIDTHS_HZ",
    "standard_data_rate_sweep",
    "TransceiverModel",
    "DRAGINO_LORA_SHIELD",
    "MULTITECH_XDOT",
    "MULTITECH_MDOT",
    "ALL_DEVICES",
    "device_by_name",
    "LinkBudget",
    "sensitivity_dbm",
    "noise_floor_dbm",
    "RegisterRssiSampler",
]
