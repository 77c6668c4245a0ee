"""Containers for probing-session measurements.

A probing session produces, per round, one register-RSSI vector at each
legitimate endpoint (Bob measures Alice's probe, Alice measures Bob's
response) and optionally one pair per eavesdropper.  Matrices are indexed
``[round, symbol]``.  A *windowed* trace keeps only Alice's first reads
of each response, the ones the arRSSI feature uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional  # noqa: F401 (Optional used in annotations)

import numpy as np

from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.rssi import quantize_packet_rssi


@dataclass
class EveTrace:
    """An eavesdropper's view of one probing session.

    Attributes:
        of_alice_rssi: Eve's register RSSI while Alice was transmitting,
            ``[round, symbol]`` -- the role-mirror of Bob's measurements.
        of_bob_rssi: Eve's register RSSI while Bob was transmitting -- the
            role-mirror of Alice's measurements.
    """

    of_alice_rssi: np.ndarray
    of_bob_rssi: np.ndarray

    def __post_init__(self) -> None:
        if self.of_alice_rssi.shape != self.of_bob_rssi.shape:
            raise ConfigurationError("Eve's two matrices must have matching shapes")


@dataclass
class ProbeTrace:
    """All measurements from one probing session.

    A *windowed* trace measures only Alice's first reads of each response
    (``alice_rssi`` narrower than ``bob_rssi``); her packet RSSI is then
    NaN, because the packet average needs every read.

    Attributes:
        phy: The LoRa configuration probes were sent with.
        alice_rssi: Alice's register RSSI of Bob's responses, ``[round, symbol]``;
            all of Bob's rounds, with 1 to ``bob_rssi.shape[1]`` reads each.
        bob_rssi: Bob's register RSSI of Alice's probes, ``[round, symbol]``.
        round_start_s: Transmission start time of each round's probe.
        valid: Per-round flag; ``False`` where either direction was below
            the receiver's sensitivity (packet loss).
        eve: Optional eavesdropper traces keyed by attacker label.
        retries: Per-round retransmission count spent by the ARQ layer
            (zeros when probing ran without fault injection).
        dropped: Per-round flag; ``True`` where the retry budget was
            exhausted and the round was discarded by the ARQ layer.
        injected: Per-round flag; ``True`` where an active adversary's
            forged probe poisoned Bob's measurement for the round.
        replays_rejected: Per-round count of stale replayed probes the
            receiver's sequence-window check rejected (each one is a
            detected active attack).
        backoff_time_s: Per-round wall-clock time spent in ARQ timeouts
            and backoff silence (zeros on the fault-free path).
        retry_limit: The ARQ policy's per-round retry budget in force when
            the trace was collected, or ``None`` when probing ran without
            an ARQ layer; together with ``retries`` this gives the
            consumed-vs-remaining budget per round.
    """

    phy: LoRaPHYConfig
    alice_rssi: np.ndarray
    bob_rssi: np.ndarray
    round_start_s: np.ndarray
    valid: np.ndarray
    eve: Dict[str, EveTrace] = field(default_factory=dict)
    alice_prssi: Optional[np.ndarray] = None
    bob_prssi: Optional[np.ndarray] = None
    retries: Optional[np.ndarray] = None
    dropped: Optional[np.ndarray] = None
    injected: Optional[np.ndarray] = None
    replays_rejected: Optional[np.ndarray] = None
    backoff_time_s: Optional[np.ndarray] = None
    retry_limit: Optional[int] = None

    def __post_init__(self) -> None:
        n_rounds = self.alice_rssi.shape[0]
        if (
            self.alice_rssi.ndim != 2
            or self.bob_rssi.ndim != 2
            or self.bob_rssi.shape[0] != n_rounds
            or not 1 <= self.alice_rssi.shape[1] <= self.bob_rssi.shape[1]
        ):
            raise ConfigurationError(
                "alice_rssi must cover bob_rssi's rounds with 1 to "
                "bob_rssi.shape[1] reads each"
            )
        if self.round_start_s.shape != (n_rounds,):
            raise ConfigurationError("round_start_s must have one entry per round")
        if self.valid.shape != (n_rounds,):
            raise ConfigurationError("valid must have one entry per round")
        if self.alice_prssi is None:
            # Fallback: derive packet RSSI from the register samples (no
            # separate packet-register error), by the chip's rounding rule.
            # A windowed matrix has no packet average.
            self.alice_prssi = (
                quantize_packet_rssi(self.alice_rssi.mean(axis=1))
                if self.alice_rssi.shape == self.bob_rssi.shape
                else np.full(n_rounds, np.nan)
            )
        if self.bob_prssi is None:
            self.bob_prssi = quantize_packet_rssi(self.bob_rssi.mean(axis=1))
        if self.alice_prssi.shape != (n_rounds,) or self.bob_prssi.shape != (n_rounds,):
            raise ConfigurationError("packet-RSSI series must have one entry per round")
        if self.retries is None:
            self.retries = np.zeros(n_rounds, dtype=np.int32)
        if self.dropped is None:
            self.dropped = np.zeros(n_rounds, dtype=bool)
        if self.retries.shape != (n_rounds,) or self.dropped.shape != (n_rounds,):
            raise ConfigurationError(
                "retries and dropped must have one entry per round"
            )
        if self.injected is None:
            self.injected = np.zeros(n_rounds, dtype=bool)
        if self.replays_rejected is None:
            self.replays_rejected = np.zeros(n_rounds, dtype=np.int32)
        if self.backoff_time_s is None:
            self.backoff_time_s = np.zeros(n_rounds, dtype=float)
        if (
            self.injected.shape != (n_rounds,)
            or self.replays_rejected.shape != (n_rounds,)
            or self.backoff_time_s.shape != (n_rounds,)
        ):
            raise ConfigurationError(
                "adversary/backoff series must have one entry per round"
            )

    @property
    def n_rounds(self) -> int:
        """Total rounds attempted (including lost ones)."""
        return int(self.alice_rssi.shape[0])

    @property
    def n_valid_rounds(self) -> int:
        """Rounds where both directions decoded."""
        return int(np.count_nonzero(self.valid))

    @property
    def samples_per_packet(self) -> int:
        """Register-RSSI samples per packet (Bob's reads; Alice's may be windowed)."""
        return int(self.bob_rssi.shape[1])

    @property
    def total_retries(self) -> int:
        """Retransmissions the ARQ layer spent across the whole session."""
        return int(self.retries.sum())

    @property
    def n_dropped_rounds(self) -> int:
        """Rounds discarded after the retry budget ran out."""
        return int(np.count_nonzero(self.dropped))

    @property
    def n_injected_rounds(self) -> int:
        """Rounds poisoned by an adversary's forged probe."""
        return int(np.count_nonzero(self.injected))

    @property
    def total_replays_rejected(self) -> int:
        """Replayed probes rejected by the sequence-window check."""
        return int(self.replays_rejected.sum())

    @property
    def total_backoff_s(self) -> float:
        """Wall-clock time the ARQ layer spent in timeouts and backoff."""
        return float(self.backoff_time_s.sum())

    @property
    def max_round_retries(self) -> int:
        """The worst single round's retransmission count."""
        if self.n_rounds == 0:
            return 0
        return int(self.retries.max())

    @property
    def retry_budget_remaining(self) -> Optional[int]:
        """Unused retries in the worst round, or ``None`` without ARQ."""
        if self.retry_limit is None:
            return None
        return int(self.retry_limit) - self.max_round_retries

    @property
    def duration_s(self) -> float:
        """Wall-clock time the session occupied (for key-rate accounting)."""
        if self.n_rounds == 0:
            return 0.0
        last_round_end = (
            float(self.round_start_s[-1])
            + 2.0 * self.phy.airtime_s
        )
        return last_round_end - float(self.round_start_s[0])

    #: Artifact kind of a saved probe trace.
    ARTIFACT_KIND = "probe-trace"

    def save(self, path) -> None:
        """Persist the trace (including eavesdropper recordings) to ``.npz``.

        The file is a checksummed artifact written atomically; a crash
        mid-save never leaves a truncated trace under the final name.
        """
        from repro.utils.artifact import save_artifact

        arrays = {
            "alice_rssi": self.alice_rssi,
            "bob_rssi": self.bob_rssi,
            "round_start_s": self.round_start_s,
            "valid": self.valid,
            "alice_prssi": self.alice_prssi,
            "bob_prssi": self.bob_prssi,
            "retries": self.retries,
            "dropped": self.dropped,
            "injected": self.injected,
            "replays_rejected": self.replays_rejected,
            "backoff_time_s": self.backoff_time_s,
            "phy_sf": np.array([self.phy.spreading_factor]),
            "phy_bw": np.array([self.phy.bandwidth_hz]),
            "phy_cr": np.array([self.phy.coding_rate.value]),
            "phy_f0": np.array([self.phy.carrier_frequency_hz]),
            "phy_payload": np.array([self.phy.payload_bytes]),
        }
        if self.retry_limit is not None:
            arrays["retry_limit"] = np.array([self.retry_limit])
        for label, eve in self.eve.items():
            arrays[f"eve:{label}:of_alice"] = eve.of_alice_rssi
            arrays[f"eve:{label}:of_bob"] = eve.of_bob_rssi
        save_artifact(path, arrays, kind=self.ARTIFACT_KIND)

    @classmethod
    def load(cls, path) -> "ProbeTrace":
        """Load a trace written by :meth:`save`.

        Raises :class:`~repro.exceptions.CorruptArtifactError` on a
        truncated or tampered file and
        :class:`~repro.exceptions.ArtifactMismatchError` on a plain
        ``.npz`` without the integrity header.
        """
        from repro.lora.airtime import CodingRate
        from repro.utils.artifact import load_artifact

        artifact = load_artifact(path, kind=cls.ARTIFACT_KIND)
        data = artifact.arrays
        phy = LoRaPHYConfig(
            spreading_factor=int(data["phy_sf"][0]),
            bandwidth_hz=float(data["phy_bw"][0]),
            coding_rate=CodingRate(int(data["phy_cr"][0])),
            carrier_frequency_hz=float(data["phy_f0"][0]),
            payload_bytes=int(data["phy_payload"][0]),
        )
        eve = {}
        labels = {
            key.split(":")[1]
            for key in data
            if key.startswith("eve:")
        }
        for label in labels:
            eve[label] = EveTrace(
                of_alice_rssi=data[f"eve:{label}:of_alice"],
                of_bob_rssi=data[f"eve:{label}:of_bob"],
            )
        return cls(
            phy=phy,
            alice_rssi=data["alice_rssi"],
            bob_rssi=data["bob_rssi"],
            round_start_s=data["round_start_s"],
            valid=data["valid"],
            eve=eve,
            alice_prssi=data["alice_prssi"],
            bob_prssi=data["bob_prssi"],
            # Absent in traces written before the ARQ layer existed.
            retries=data["retries"] if "retries" in data else None,
            dropped=data["dropped"] if "dropped" in data else None,
            # Absent in traces written before the adversary layer existed.
            injected=data["injected"] if "injected" in data else None,
            replays_rejected=(
                data["replays_rejected"] if "replays_rejected" in data else None
            ),
            backoff_time_s=(
                data["backoff_time_s"] if "backoff_time_s" in data else None
            ),
            retry_limit=(
                int(data["retry_limit"][0]) if "retry_limit" in data else None
            ),
        )

    def valid_only(self) -> "ProbeTrace":
        """A copy with lost rounds removed (Eve's rounds filtered identically)."""
        mask = self.valid.astype(bool)
        return ProbeTrace(
            phy=self.phy,
            alice_rssi=self.alice_rssi[mask],
            bob_rssi=self.bob_rssi[mask],
            round_start_s=self.round_start_s[mask],
            valid=self.valid[mask],
            eve={
                label: EveTrace(
                    of_alice_rssi=trace.of_alice_rssi[mask],
                    of_bob_rssi=trace.of_bob_rssi[mask],
                )
                for label, trace in self.eve.items()
            },
            alice_prssi=self.alice_prssi[mask],
            bob_prssi=self.bob_prssi[mask],
            retries=self.retries[mask],
            dropped=self.dropped[mask],
            injected=self.injected[mask],
            replays_rejected=self.replays_rejected[mask],
            backoff_time_s=self.backoff_time_s[mask],
            retry_limit=self.retry_limit,
        )
