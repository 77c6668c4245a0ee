"""Autoencoder-based reconciliation: the paper's contribution (Sec. IV-C).

Architecture (paper Fig. 7):

1. Both keys pass a position-preserving Bloom transform (public salt).
2. Each party's transformed key goes through its *own* learned MLP encoder
   (a single 32-unit fully connected layer in the paper): Bob publishes
   his code vector ``y_Bob``; Alice computes ``h = y_Bob - y_Alice``.
3. A learned MLP decoder maps ``h`` to the mismatch pattern
   ``delta = K'_Alice xor K'_Bob``; Alice corrects with one XOR and
   inverts the Bloom transform.

Training is end-to-end on synthetically mismatched key pairs: the loss is
the paper's Eq. 6 objective, realized as binary cross-entropy between the
decoded and true mismatch patterns (its gradients flow back through the
subtraction into both encoders, with opposite signs).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.exceptions import NotTrainedError
from repro.nn.callbacks import History
from repro.nn.layers.dense import Dense
from repro.nn.losses import BinaryCrossEntropy
from repro.nn.model import Model
from repro.nn.optimizers import Adam
from repro.reconciliation.base import Reconciler, ReconciliationOutcome
from repro.reconciliation.bloom import PositionPreservingBloomFilter
from repro.reconciliation.mac import MAC_BYTES
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_in_range, require_positive


def _to_signed(bits: np.ndarray) -> np.ndarray:
    """{0,1} -> {-1,+1} float representation for the encoders."""
    return 2.0 * bits.astype(float) - 1.0


class AutoencoderReconciliation(Reconciler):
    """Learned single-message reconciliation.

    Args:
        key_bits: Key length N handled per run.
        code_dim: Encoder output width M (the syndrome length; paper: 32).
        decoder_units: Hidden width of the decoder MLP -- the quantity the
            paper sweeps in Fig. 11 (AE-16 ... AE-128).
        decoder_hidden_layers: Hidden layer count (paper: 3).
        salt: Public session salt for the Bloom transform.
        seed: Weight initialization and training-data randomness.
    """

    def __init__(
        self,
        key_bits: int = 64,
        code_dim: int = 32,
        decoder_units: int = 64,
        decoder_hidden_layers: int = 3,
        salt: bytes = b"vehicle-key",
        seed: SeedLike = 0,
    ):
        require_positive(key_bits, "key_bits")
        require_positive(code_dim, "code_dim")
        require_positive(decoder_units, "decoder_units")
        require_positive(decoder_hidden_layers, "decoder_hidden_layers")
        self.key_bits = int(key_bits)
        self.code_dim = int(code_dim)
        self.decoder_units = int(decoder_units)
        self.decoder_hidden_layers = int(decoder_hidden_layers)
        self.bloom = PositionPreservingBloomFilter(self.key_bits, salt=salt)
        self._rng = as_generator(seed)
        self.encoder_bob = Model([Dense(self.code_dim, seed=self._rng, name="enc-bob")])
        self.encoder_alice = Model(
            [Dense(self.code_dim, seed=self._rng, name="enc-alice")]
        )
        decoder_layers = [
            Dense(self.decoder_units, activation="relu", seed=self._rng, name=f"dec-{i}")
            for i in range(self.decoder_hidden_layers)
        ]
        decoder_layers.append(
            Dense(self.key_bits, activation="sigmoid", seed=self._rng, name="dec-out")
        )
        self.decoder = Model(decoder_layers)
        self._loss = BinaryCrossEntropy()
        self._trained = False
        # Tie the encoders' starting point: with equal initial weights the
        # subtraction cancels the key-dependent common term from the first
        # step, which stabilizes end-to-end training dramatically.  The
        # encoders still evolve independently (the paper's f1 != f2).
        dummy = np.zeros((1, self.key_bits))
        self.encoder_bob.forward(dummy)
        self.encoder_alice.forward(dummy)
        self.encoder_alice.set_weights(self.encoder_bob.get_weights())

    # -- training -----------------------------------------------------------
    def _sample_batch(
        self,
        batch_size: int,
        mismatch_rate_range: Tuple[float, float],
        out_of_range_fraction: float = 0.0,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Synthetic (Bob keys, Alice keys, mismatch, target) batch.

        Keys are uniform; each pair's flip probability is drawn uniformly
        from ``mismatch_rate_range``, covering the bit-disagreement rates
        the probing pipeline actually produces.  A fraction of pairs is
        drawn far outside that range (25--50% mismatch) with an all-zero
        *target*: the decoder learns bounded-distance behaviour, refusing
        to "correct" keys that are not close to Bob's -- which is what
        keeps an eavesdropper's syndrome-decoding attack at the raw
        channel-agreement level (Sec. V-H1).
        """
        bob = self._rng.integers(0, 2, size=(batch_size, self.key_bits), dtype=np.uint8)
        rates = self._rng.uniform(*mismatch_rate_range, size=(batch_size, 1))
        out_of_range = (
            self._rng.uniform(size=(batch_size, 1)) < out_of_range_fraction
        )
        far_rates = self._rng.uniform(0.25, 0.5, size=(batch_size, 1))
        rates = np.where(out_of_range, far_rates, rates)
        delta = (self._rng.uniform(size=bob.shape) < rates).astype(np.uint8)
        alice = bob ^ delta
        target = np.where(out_of_range, np.zeros_like(delta), delta)
        return bob, alice, delta, target

    def _forward(
        self, bob: np.ndarray, alice: np.ndarray, training: bool
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Run both encoders and the decoder; returns (delta_hat, h)."""
        bob_t = self.bloom.transform_batch(bob)
        alice_t = self.bloom.transform_batch(alice)
        code_bob = self.encoder_bob.forward(_to_signed(bob_t), training=training)
        code_alice = self.encoder_alice.forward(_to_signed(alice_t), training=training)
        h = code_bob - code_alice
        return self.decoder.forward(h, training=training), h

    def fit(
        self,
        n_samples: int = 20000,
        epochs: int = 50,
        batch_size: int = 128,
        mismatch_rate_range: Tuple[float, float] = (0.0, 0.08),
        learning_rate: float = 2e-3,
        out_of_range_fraction: float = 0.25,
    ) -> History:
        """Train encoders and decoder end-to-end on synthetic mismatches."""
        require_positive(n_samples, "n_samples")
        require_positive(epochs, "epochs")
        require_in_range(mismatch_rate_range[0], 0.0, 0.5, "mismatch_rate_range[0]")
        require_in_range(mismatch_rate_range[1], 0.0, 0.5, "mismatch_rate_range[1]")
        require(
            mismatch_rate_range[0] <= mismatch_rate_range[1],
            "mismatch_rate_range must be (low, high)",
        )
        optimizer = Adam(learning_rate=learning_rate)
        history = History()
        bob, alice, _, target = self._sample_batch(
            n_samples, mismatch_rate_range, out_of_range_fraction
        )
        delta_bloom = self.bloom.map_difference_batch(target)

        for epoch in range(epochs):
            order = self._rng.permutation(n_samples)
            losses = []
            for start in range(0, n_samples, batch_size):
                idx = order[start:start + batch_size]
                target = delta_bloom[idx].astype(float)
                prediction, _ = self._forward(bob[idx], alice[idx], training=True)
                losses.append(self._loss.value(target, prediction))
                grad_h = self.decoder.backward(self._loss.gradient(target, prediction))
                self.encoder_bob.backward(grad_h)
                self.encoder_alice.backward(-grad_h)
                optimizer.apply(
                    self.encoder_bob._parameter_list()
                    + self.encoder_alice._parameter_list()
                    + self.decoder._parameter_list()
                )
            history.record(epoch, loss=float(np.mean(losses)))
        self._trained = True
        return history

    # -- protocol ------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self._trained:
            raise NotTrainedError(
                "AutoencoderReconciliation.fit() must run before reconciling"
            )

    def bob_syndrome(self, bob_key: np.ndarray) -> np.ndarray:
        """What Bob transmits: his encoder's code vector (length M)."""
        self._require_trained()
        key = np.asarray(bob_key, dtype=np.uint8)
        require(key.shape == (self.key_bits,), f"expected {self.key_bits}-bit key")
        transformed = self.bloom.transform(key)
        return self.encoder_bob.forward(_to_signed(transformed)[np.newaxis, :])[0]

    def alice_correct(
        self, alice_key: np.ndarray, syndrome: np.ndarray
    ) -> np.ndarray:
        """Alice's side: decode the mismatch pattern and apply it."""
        self._require_trained()
        key = np.asarray(alice_key, dtype=np.uint8)
        require(key.shape == (self.key_bits,), f"expected {self.key_bits}-bit key")
        require(syndrome.shape == (self.code_dim,), "syndrome has the wrong length")
        transformed = self.bloom.transform(key)
        code_alice = self.encoder_alice.forward(_to_signed(transformed)[np.newaxis, :])[0]
        h = (syndrome - code_alice)[np.newaxis, :]
        delta = (self.decoder.forward(h)[0] > 0.5).astype(np.uint8)
        corrected = transformed ^ delta
        return self.bloom.inverse(corrected)

    def reconcile(self, alice_key, bob_key) -> ReconciliationOutcome:
        alice = np.asarray(alice_key, dtype=np.uint8)
        bob = np.asarray(bob_key, dtype=np.uint8)
        syndrome = self.bob_syndrome(bob)
        corrected = self.alice_correct(alice, syndrome)
        return ReconciliationOutcome(
            alice_key=corrected,
            bob_key=bob.copy(),
            messages=1,
            bytes_exchanged=4 * self.code_dim + MAC_BYTES,
        )

    # -- persistence ------------------------------------------------------------
    #: Artifact kind of a saved reconciler.
    ARTIFACT_KIND = "autoencoder-reconciler"

    def _architecture(self) -> dict:
        """Hyperparameters a weight file must match to be loadable."""
        return {
            "key_bits": self.key_bits,
            "code_dim": self.code_dim,
            "decoder_units": self.decoder_units,
            "decoder_hidden_layers": self.decoder_hidden_layers,
        }

    def _all_layers(self):
        return (
            self.encoder_bob.layers
            + self.encoder_alice.layers
            + self.decoder.layers
        )

    def save(self, path) -> None:
        """Atomically persist all weights as a checksummed artifact.

        The artifact embeds the reconciler's architecture hyperparameters,
        verified again at load time.
        """
        from repro.nn.serialization import save_weights

        self._require_trained()
        save_weights(
            self._all_layers(),
            path,
            kind=self.ARTIFACT_KIND,
            metadata={"architecture": self._architecture()},
        )

    def load(self, path) -> None:
        """Load weights written by :meth:`save` into a same-shape instance.

        The Bloom salt is public protocol state and must match the saving
        instance's; it is part of the constructor, not the weight file.

        Raises :class:`~repro.exceptions.CorruptArtifactError` on a
        truncated or tampered file and
        :class:`~repro.exceptions.ArtifactMismatchError` when the stored
        architecture or kind differs, or the file is a plain ``.npz``
        without the integrity header.
        """
        from repro.nn.serialization import assign_weights
        from repro.utils.artifact import (
            load_artifact,
            require_matching_architecture,
        )

        artifact = load_artifact(path, kind=self.ARTIFACT_KIND)
        require_matching_architecture(artifact, self._architecture(), path)
        dummy_key = np.zeros((1, self.key_bits))
        dummy_code = np.zeros((1, self.code_dim))
        self.encoder_bob.forward(dummy_key)
        self.encoder_alice.forward(dummy_key)
        self.decoder.forward(dummy_code)
        assign_weights(self._all_layers(), artifact.arrays)
        self._trained = True

    # -- introspection --------------------------------------------------------
    def decode_mismatch_probabilities(
        self, alice_key: np.ndarray, syndrome: np.ndarray
    ) -> np.ndarray:
        """Raw decoder probabilities (bloom domain), for analysis plots."""
        self._require_trained()
        transformed = self.bloom.transform(np.asarray(alice_key, dtype=np.uint8))
        code_alice = self.encoder_alice.forward(_to_signed(transformed)[np.newaxis, :])[0]
        h = (syndrome - code_alice)[np.newaxis, :]
        return self.decoder.forward(h)[0]
