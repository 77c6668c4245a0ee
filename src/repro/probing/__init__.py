"""Channel probing substrate.

Simulates the probe/response packet exchange between Alice and Bob (with
optional eavesdroppers), producing the register-RSSI traces that the rest
of the pipeline consumes, and extracts the paper's channel features from
them: packet RSSI (pRSSI), raw register RSSI (rRSSI) and adjacent register
RSSI (arRSSI).
"""

from repro.probing.trace import ProbeTrace, EveTrace
from repro.probing.protocol import ProbingProtocol, EavesdropperSetup
from repro.probing.features import (
    adjacent_register_rssi,
    arrssi_sequences,
    eve_arrssi_sequences,
    FeatureConfig,
)
from repro.probing.dataset import (
    KeyGenDataset,
    DatasetSplits,
    build_dataset,
    split_dataset,
)
from repro.probing.eve import EveConfig, build_eavesdropping_eve, build_imitating_eve

__all__ = [
    "ProbeTrace",
    "EveTrace",
    "ProbingProtocol",
    "EavesdropperSetup",
    "adjacent_register_rssi",
    "arrssi_sequences",
    "eve_arrssi_sequences",
    "FeatureConfig",
    "KeyGenDataset",
    "DatasetSplits",
    "build_dataset",
    "split_dataset",
    "EveConfig",
    "build_eavesdropping_eve",
    "build_imitating_eve",
]
