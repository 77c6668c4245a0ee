"""Channel-feature extraction: arRSSI from the register-RSSI traces.

The paper's preliminary study (Sec. II-C) found that the conventional
*packet RSSI* (average over the whole reception) is badly asymmetric
between the endpoints at LoRa airtimes, while the instantaneous *register
RSSI* samples nearest the probe/response turnaround are measured almost
back-to-back and therefore correlate well.  The *adjacent register RSSI*
(arRSSI) feature keeps only an adjacent window -- the last fraction of the
first packet's samples and the first fraction of the second packet's --
and block-averages it.

In a probing round, Bob measures first (during Alice's probe) and Alice
second (during Bob's response), so the adjacency is between the *end* of
Bob's register trace and the *beginning* of Alice's.  Bob's window is
therefore read boundary-outward (reversed) so that the k-th arRSSI values
of the two sides are separated by the smallest possible time offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.probing.trace import ProbeTrace
from repro.utils.validation import require, require_in_range, require_positive


@dataclass(frozen=True)
class FeatureConfig:
    """arRSSI extraction parameters.

    Attributes:
        window_fraction: Fraction of each packet's register samples kept at
            the adjacent boundary.  The paper's Fig. 9 sweep peaks at 0.10.
        values_per_packet: How many arRSSI values to produce from each
            window (block means).  1 reproduces the paper's Fig. 9 setting;
            the full pipeline uses 2 to double the key generation rate at
            an acceptable reciprocity cost.
    """

    window_fraction: float = 0.10
    values_per_packet: int = 2

    def __post_init__(self) -> None:
        require_in_range(self.window_fraction, 1e-6, 1.0, "window_fraction")
        require_positive(self.values_per_packet, "values_per_packet")

    def window_length(self, samples_per_packet: int) -> int:
        """Samples in the adjacent window for a given packet length."""
        return max(1, int(round(self.window_fraction * samples_per_packet)))


def _block_means(window: np.ndarray, n_blocks: int) -> np.ndarray:
    """Means of ``n_blocks`` contiguous blocks of a 2-D ``[round, sample]`` window."""
    n_rounds, width = window.shape
    n_blocks = min(n_blocks, width)
    edges = np.linspace(0, width, n_blocks + 1).astype(int)
    return np.stack(
        [window[:, edges[i]:edges[i + 1]].mean(axis=1) for i in range(n_blocks)],
        axis=1,
    )


def adjacent_register_rssi(
    first_packet_rssi: np.ndarray,
    second_packet_rssi: np.ndarray,
    config: FeatureConfig = FeatureConfig(),
) -> Tuple[np.ndarray, np.ndarray]:
    """arRSSI matrices for the two halves of each probing round.

    Args:
        first_packet_rssi: ``[round, symbol]`` register RSSI of the packet
            received *first* in each round (Bob's measurement of the probe).
        second_packet_rssi: Same shape, for the packet received *second*
            (Alice's measurement of the response).
        config: Window and block parameters.

    Returns:
        ``(first_ar, second_ar)``, each ``[round, values_per_packet]``.
        ``first_ar[:, k]`` and ``second_ar[:, k]`` are the temporally
        closest block pairs: the first packet's window is read
        boundary-outward, the second packet's boundary-onward.
    """
    first = np.asarray(first_packet_rssi, dtype=float)
    second = np.asarray(second_packet_rssi, dtype=float)
    require(first.shape == second.shape, "the two register matrices must match in shape")
    require(first.ndim == 2, "register matrices must be [round, symbol]")
    width = config.window_length(first.shape[1])
    # End of the first packet, nearest-boundary sample first.
    first_window = first[:, -width:][:, ::-1]
    # Beginning of the second packet, already boundary-onward.
    second_window = second[:, :width]
    return (
        _block_means(first_window, config.values_per_packet),
        _block_means(second_window, config.values_per_packet),
    )


def arrssi_sequences(
    trace: ProbeTrace, config: FeatureConfig = FeatureConfig()
) -> Tuple[np.ndarray, np.ndarray]:
    """Flattened per-session arRSSI sequences for Bob and Alice.

    Bob measures the first packet of each round, Alice the second; the
    returned arrays are ``(bob_sequence, alice_sequence)``, each of length
    ``n_valid_rounds * values_per_packet``, time-ordered.
    """
    clean = trace.valid_only()
    bob_ar, alice_ar = adjacent_register_rssi(clean.bob_rssi, clean.alice_rssi, config)
    return bob_ar.reshape(-1), alice_ar.reshape(-1)


def eve_arrssi_sequences(
    trace: ProbeTrace, label: str, config: FeatureConfig = FeatureConfig()
) -> Tuple[np.ndarray, np.ndarray]:
    """Eve's role-mirrored arRSSI sequences ``(as_bob, as_alice)``.

    Eve overhears Alice's probe (mirroring Bob's measurement, first packet)
    and Bob's response (mirroring Alice's, second packet); extracting the
    same windows gives the sequences she would feed into the stolen
    pipeline.
    """
    clean = trace.valid_only()
    eve = clean.eve[label]
    as_bob, as_alice = adjacent_register_rssi(
        eve.of_alice_rssi, eve.of_bob_rssi, config
    )
    return as_bob.reshape(-1), as_alice.reshape(-1)
