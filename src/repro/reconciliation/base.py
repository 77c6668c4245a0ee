"""Reconciler interface and outcome accounting."""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

from repro.metrics.agreement import key_agreement_rate
from repro.utils.validation import require


@dataclass
class ReconciliationOutcome:
    """Result of one reconciliation run.

    Attributes:
        alice_key: Alice's key after applying the corrections.
        bob_key: Bob's (reference) key, unchanged.
        messages: Protocol messages exchanged over the public channel.
        bytes_exchanged: Total payload bytes of those messages, used by
            the key-rate benchmarks to charge LoRa airtime overhead.
    """

    alice_key: np.ndarray
    bob_key: np.ndarray
    messages: int
    bytes_exchanged: int

    def __post_init__(self) -> None:
        require(
            self.alice_key.shape == self.bob_key.shape,
            "reconciled keys must have equal length",
        )
        require(self.messages >= 0, "messages must be >= 0")
        require(self.bytes_exchanged >= 0, "bytes_exchanged must be >= 0")

    @property
    def agreement(self) -> float:
        """Post-reconciliation key agreement rate in [0, 1]."""
        return key_agreement_rate(self.alice_key, self.bob_key)

    @property
    def success(self) -> bool:
        """Whether the keys now match exactly."""
        return bool(np.array_equal(self.alice_key, self.bob_key))


class Reconciler(abc.ABC):
    """Corrects Alice's key toward Bob's using public-channel messages."""

    @abc.abstractmethod
    def reconcile(
        self, alice_key: np.ndarray, bob_key: np.ndarray
    ) -> ReconciliationOutcome:
        """Run the protocol on one key pair.

        The simulation-side convenience API: both keys are visible to the
        caller (the experiment harness), but implementations must only move
        information between the parties through counted messages.
        """
