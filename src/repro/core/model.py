"""The BiLSTM prediction + quantization model (paper Sec. IV-B, Fig. 6).

One network with two heads:

- **Prediction head**: BiLSTM over Alice's arRSSI window, flattened, then
  a fully connected layer producing the *predicted* arRSSI sequence on
  Bob's side (regression, MSE).
- **Quantization head**: a second fully connected layer with sigmoid
  activation mapping the predicted sequence to the key-bit space
  (classification against Bob's multi-bit-quantized key, BCE).

The paper's configuration -- one BiLSTM layer (32 time steps, 128 hidden
units), FC-32 and FC-64-sigmoid, joint loss weight theta = 0.9 -- is the
default.  Bob does not run the network: his bits come from a conventional
multi-bit quantizer over his own measurements, which is also how the
training targets are produced.

The model's lifecycle is crash-safe: :meth:`fit` can periodically persist
its full training state (weights, optimizer moments, RNG, early-stopping
and history) to a checksummed atomic checkpoint and resume bit-for-bit
after a crash; a divergence watchdog rolls NaN/exploding epochs back to
the last good state with a reduced learning rate; and saved model
artifacts embed architecture metadata plus training-window statistics
that power the out-of-distribution :class:`~repro.core.guard.InferenceGuard`.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.guard import InferenceGuard, WindowStatistics
from repro.exceptions import NotTrainedError, TrainingDivergedError
from repro.nn.callbacks import EarlyStopping, History
from repro.nn.layers.bilstm import BiLSTM
from repro.nn.layers.dense import Dense
from repro.nn.losses import JointPredictionQuantizationLoss
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.serialization import assign_weights, save_weights
from repro.probing.dataset import KeyGenDataset
from repro.quantization.multibit import MultiBitQuantizer
from repro.utils.artifact import (
    load_artifact,
    require_matching_architecture,
    save_artifact,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive

#: Artifact kind of a saved model.
MODEL_ARTIFACT_KIND = "prediction-quantization-model"

#: Artifact kind of a resumable training checkpoint.
CHECKPOINT_ARTIFACT_KIND = "training-checkpoint"

#: File name of the rolling training checkpoint inside ``checkpoint_dir``.
CHECKPOINT_FILENAME = "training-state.npz"

#: The divergence watchdog rolls back an epoch whose loss exceeds this
#: multiple of the best epoch loss so far.
DIVERGENCE_FACTOR = 1e3

#: After a rollback the watchdog multiplies the learning rate by this.
LR_BACKOFF = 0.5


@dataclass
class TrainingReport:
    """What :meth:`PredictionQuantizationModel.fit` returns.

    Attributes:
        history: Per-epoch joint-loss values (train and validation).
        epochs_run: Actual epochs executed (early stopping may cut short).
        divergence_rollbacks: Times the watchdog rolled training back to
            the last good checkpoint after a NaN/Inf or exploding loss.
        resumed_from_epoch: First epoch executed by this call when it
            resumed a checkpoint (``None`` for a fresh run).
    """

    history: History
    epochs_run: int
    divergence_rollbacks: int = 0
    resumed_from_epoch: Optional[int] = None


class PredictionQuantizationModel:
    """Simultaneous channel prediction and quantization.

    Args:
        seq_len: arRSSI window length (BiLSTM steps; paper: 32).
        hidden_units: BiLSTM hidden width per direction (paper: 128).
        key_bits: Quantization-head width (paper: 64 = 2 bits/step).
        theta: Joint loss weight (paper: 0.9).
        bob_quantizer: Quantizer producing Bob's bits/training targets;
            defaults to the 2-bit multi-bit quantizer of [Jana et al.].
        recurrent_cell: Sequence encoder: ``"bilstm"`` (the paper's
            choice), ``"lstm"`` or ``"gru"`` (ablation arms).
        seed: Weight-initialization and shuffling randomness.
    """

    def __init__(
        self,
        seq_len: int = 32,
        hidden_units: int = 128,
        key_bits: int = 64,
        theta: float = 0.9,
        bob_quantizer: Optional[MultiBitQuantizer] = None,
        recurrent_cell: str = "bilstm",
        seed: SeedLike = 0,
    ):
        require_positive(seq_len, "seq_len")
        require_positive(hidden_units, "hidden_units")
        require_positive(key_bits, "key_bits")
        self.seq_len = int(seq_len)
        self.hidden_units = int(hidden_units)
        self.key_bits = int(key_bits)
        self.bob_quantizer = (
            bob_quantizer
            if bob_quantizer is not None
            else MultiBitQuantizer(2, fixed_thresholds=True)
        )
        require(
            self.key_bits
            == self.seq_len * self.bob_quantizer.bits_per_sample,
            "key_bits must equal seq_len * bob_quantizer.bits_per_sample so the "
            "quantization head aligns with Bob's bit layout",
        )
        self._rng = as_generator(seed)
        require(
            recurrent_cell in ("bilstm", "lstm", "gru"),
            f"recurrent_cell must be bilstm/lstm/gru, got {recurrent_cell!r}",
        )
        self.recurrent_cell = recurrent_cell
        if recurrent_cell == "bilstm":
            self.encoder = BiLSTM(
                self.hidden_units, return_sequences=True, seed=self._rng
            )
        elif recurrent_cell == "lstm":
            from repro.nn.layers.lstm import LSTM

            self.encoder = LSTM(
                self.hidden_units, return_sequences=True, seed=self._rng
            )
        else:
            from repro.nn.layers.gru import GRU

            self.encoder = GRU(
                self.hidden_units, return_sequences=True, seed=self._rng
            )
        # Both heads are time-distributed over the BiLSTM's feature matrix:
        # the prediction head maps each step's features to that step's
        # predicted arRSSI value, and the quantization head maps the same
        # features to that step's bits ("the output matrix of the
        # prediction layer" in the paper's wording).  Weight sharing across
        # steps is what a sequence output implies, and the rich per-step
        # features are what makes the Gray-coded middle-band bits linearly
        # separable -- a scalar input could not express them.
        self.prediction_head = Dense(1, seed=self._rng, name="predict")
        self.quantization_head = Dense(
            self.bob_quantizer.bits_per_sample,
            activation="sigmoid",
            seed=self._rng,
            name="quantize",
        )
        self.loss = JointPredictionQuantizationLoss(theta=theta)
        self.training_stats: Optional[WindowStatistics] = None
        self._trained = False

    # -- plumbing -------------------------------------------------------------
    @property
    def layers(self):
        """All layers in forward order (for serialization)."""
        return [self.encoder, self.prediction_head, self.quantization_head]

    def _forward(
        self, windows: np.ndarray, training: bool = False
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(predicted arRSSI ``y_hat``, bit probabilities ``z_hat``)."""
        batch = windows.shape[0]
        x = windows[..., np.newaxis]  # [batch, seq, 1]
        features = self.encoder.forward(x, training=training)
        y_hat = self.prediction_head.forward(features, training=training)[..., 0]
        z_steps = self.quantization_head.forward(features, training=training)
        z_hat = z_steps.reshape(batch, self.key_bits)
        return y_hat, z_hat

    def _backward(self, grad_y: np.ndarray, grad_z: np.ndarray) -> None:
        batch = grad_y.shape[0]
        grad_z_steps = grad_z.reshape(
            batch, self.seq_len, self.bob_quantizer.bits_per_sample
        )
        grad_features = self.quantization_head.backward(grad_z_steps)
        grad_features = grad_features + self.prediction_head.backward(
            grad_y[..., np.newaxis]
        )
        self.encoder.backward(grad_features)

    def _parameter_list(self):
        pairs = []
        for layer in self.layers:
            if layer.parameters:
                pairs.extend(layer.parameter_list())
        return pairs

    def _ordered_parameters(self) -> List[np.ndarray]:
        """Parameter arrays in the stable order used by the optimizer."""
        return [
            layer.parameters[key]
            for layer in self.layers
            for key in sorted(layer.parameters)
        ]

    def _architecture(self) -> Dict:
        """Hyperparameters that a weight file must match to be loadable."""
        return {
            "seq_len": self.seq_len,
            "hidden_units": self.hidden_units,
            "key_bits": self.key_bits,
            "theta": float(self.loss.theta),
            "recurrent_cell": self.recurrent_cell,
            "bits_per_sample": self.bob_quantizer.bits_per_sample,
        }

    # -- targets ---------------------------------------------------------------
    def bob_bits(self, bob_raw_windows: np.ndarray) -> np.ndarray:
        """Bob's key bits: multi-bit quantization of his own raw windows.

        This is both the training target and Bob's runtime key derivation
        (Bob never runs the network).
        """
        windows = np.atleast_2d(np.asarray(bob_raw_windows, dtype=float))
        require(windows.shape[1] == self.seq_len, "window length must equal seq_len")
        codes, kept = self.bob_quantizer.quantize_rows(windows)
        require(
            bool(kept.all()),
            "every sample needs key bits: a guard-free quantizer over finite windows",
        )
        return codes.reshape(len(windows), -1)

    # -- training-state snapshots -------------------------------------------------
    def _capture_snapshot(
        self,
        optimizer: Optimizer,
        early_stopping: Optional[EarlyStopping],
        history: History,
        epoch: int,
        best_weights: Optional[List[dict]],
        rollbacks: int,
    ) -> Dict:
        """Deep-copy everything needed to replay training from ``epoch`` + 1."""
        return {
            "epoch": int(epoch),
            "rollbacks": int(rollbacks),
            "weights": [layer.get_weights() for layer in self.layers],
            "best_weights": (
                None
                if best_weights is None
                else [{k: v.copy() for k, v in lw.items()} for lw in best_weights]
            ),
            "optimizer": optimizer.get_state(self._ordered_parameters()),
            "rng_state": copy.deepcopy(self._rng.bit_generator.state),
            "early_stopping": (
                None if early_stopping is None else early_stopping.state_dict()
            ),
            "history": history.state_dict(),
        }

    def _restore_snapshot(
        self,
        snapshot: Dict,
        optimizer: Optimizer,
        early_stopping: Optional[EarlyStopping],
        history: History,
    ) -> Optional[List[dict]]:
        """Roll model/optimizer/RNG/history back to a snapshot; returns best weights."""
        for layer, layer_weights in zip(self.layers, snapshot["weights"]):
            if layer.parameters:
                layer.set_weights(layer_weights)
        optimizer.set_state(self._ordered_parameters(), snapshot["optimizer"])
        self._rng.bit_generator.state = copy.deepcopy(snapshot["rng_state"])
        if early_stopping is not None and snapshot["early_stopping"] is not None:
            early_stopping.load_state_dict(snapshot["early_stopping"])
        history.load_state_dict(snapshot["history"])
        best = snapshot["best_weights"]
        if best is None:
            return None
        return [{k: v.copy() for k, v in lw.items()} for lw in best]

    def _write_checkpoint(self, path: Path, snapshot: Dict) -> None:
        """Persist a snapshot atomically as a checksummed artifact."""
        arrays: Dict[str, np.ndarray] = {}
        for index, layer_weights in enumerate(snapshot["weights"]):
            for key, value in layer_weights.items():
                arrays[f"w/{index}/{key}"] = value
        if snapshot["best_weights"] is not None:
            for index, layer_weights in enumerate(snapshot["best_weights"]):
                for key, value in layer_weights.items():
                    arrays[f"b/{index}/{key}"] = value
        slot_kinds = {}
        for name, values in snapshot["optimizer"]["slots"].items():
            if values and isinstance(values[0], np.ndarray):
                slot_kinds[name] = "arrays"
                for j, value in enumerate(values):
                    arrays[f"opt/{name}/{j}"] = value
            else:
                slot_kinds[name] = "scalars"
                arrays[f"opt/{name}"] = np.asarray(values)
        metadata = {
            "architecture": self._architecture(),
            "epoch": snapshot["epoch"],
            "rollbacks": snapshot["rollbacks"],
            "rng_state": snapshot["rng_state"],
            "early_stopping": snapshot["early_stopping"],
            "history": snapshot["history"],
            "has_best_weights": snapshot["best_weights"] is not None,
            "optimizer": {
                "learning_rate": snapshot["optimizer"]["learning_rate"],
                "iterations": snapshot["optimizer"]["iterations"],
                "slot_kinds": slot_kinds,
                "n_params": len(self._ordered_parameters()),
            },
        }
        save_artifact(path, arrays, kind=CHECKPOINT_ARTIFACT_KIND, metadata=metadata)

    def _load_checkpoint(
        self,
        path: Path,
        optimizer: Optimizer,
        early_stopping: Optional[EarlyStopping],
        history: History,
    ) -> Dict:
        """Restore a persisted checkpoint; returns resume bookkeeping."""
        artifact = load_artifact(path, kind=CHECKPOINT_ARTIFACT_KIND)
        require_matching_architecture(artifact, self._architecture(), path)
        meta = artifact.metadata
        # Build the layers, then overwrite weights and the RNG state; the
        # build-time draws are erased by the restored generator state, so
        # resumed training replays exactly what an uninterrupted run does.
        self._forward(np.zeros((1, self.seq_len)))
        weights: List[Dict[str, np.ndarray]] = [{} for _ in self.layers]
        best: List[Dict[str, np.ndarray]] = [{} for _ in self.layers]
        for key, value in artifact.arrays.items():
            prefix, _, rest = key.partition("/")
            if prefix in ("w", "b"):
                index_text, _, param = rest.partition("/")
                target = weights if prefix == "w" else best
                target[int(index_text)][param] = value
        for layer, layer_weights in zip(self.layers, weights):
            if layer.parameters:
                layer.set_weights(layer_weights)
        params = self._ordered_parameters()
        opt_meta = meta["optimizer"]
        slots = {}
        for name, kind in opt_meta["slot_kinds"].items():
            if kind == "arrays":
                slots[name] = [
                    artifact.arrays[f"opt/{name}/{j}"]
                    for j in range(int(opt_meta["n_params"]))
                ]
            else:
                slots[name] = [v for v in artifact.arrays[f"opt/{name}"].tolist()]
        optimizer.set_state(
            params,
            {
                "learning_rate": opt_meta["learning_rate"],
                "iterations": opt_meta["iterations"],
                "slots": slots,
            },
        )
        self._rng.bit_generator.state = meta["rng_state"]
        history.load_state_dict(meta["history"])
        if early_stopping is not None and meta["early_stopping"] is not None:
            early_stopping.load_state_dict(meta["early_stopping"])
        return {
            "epoch": int(meta["epoch"]),
            "rollbacks": int(meta["rollbacks"]),
            "best_weights": (
                [lw for lw in best] if meta.get("has_best_weights") else None
            ),
        }

    # -- training ----------------------------------------------------------------
    def fit(
        self,
        train: KeyGenDataset,
        validation: Optional[KeyGenDataset] = None,
        epochs: int = 200,
        batch_size: int = 32,
        learning_rate: float = 2e-3,
        early_stopping: Optional[EarlyStopping] = None,
        verbose: bool = False,
        checkpoint_dir: Optional[Union[str, Path]] = None,
        resume: bool = False,
        max_divergence_retries: int = 2,
    ) -> TrainingReport:
        """Train on Alice->Bob window pairs with the joint loss (Eq. 3).

        Crash safety:

        - With ``checkpoint_dir`` set, the full training state (weights,
          Adam moments, RNG, early-stopping counters, history) is written
          after every epoch as an atomic, checksummed artifact;
          ``resume=True`` continues from it and reproduces the
          uninterrupted run bit-for-bit (a missing checkpoint starts fresh).
        - A divergence watchdog detects NaN/Inf batch losses and epoch
          losses exceeding :data:`DIVERGENCE_FACTOR` times the best epoch
          so far; it rolls back to the last good state, multiplies the
          learning rate by :data:`LR_BACKOFF`, and retries, raising
          :class:`~repro.exceptions.TrainingDivergedError` after
          ``max_divergence_retries`` rollbacks.
        """
        require(train.seq_len == self.seq_len, "dataset seq_len mismatch")
        require_positive(epochs, "epochs")
        require(
            not resume or checkpoint_dir is not None,
            "resume=True requires checkpoint_dir",
        )
        require(max_divergence_retries >= 0, "max_divergence_retries must be >= 0")
        optimizer = Adam(learning_rate=learning_rate)
        history = History()
        z_train = self.bob_bits(train.bob_raw).astype(float)
        if validation is not None and len(validation):
            z_val = self.bob_bits(validation.bob_raw).astype(float)
        best_weights = None
        self.training_stats = WindowStatistics.from_windows(train.alice_raw)

        checkpoint_path: Optional[Path] = None
        if checkpoint_dir is not None:
            checkpoint_path = Path(checkpoint_dir) / CHECKPOINT_FILENAME

        start_epoch = 0
        rollbacks = 0
        resumed_from: Optional[int] = None
        if resume and checkpoint_path is not None and checkpoint_path.exists():
            state = self._load_checkpoint(
                checkpoint_path, optimizer, early_stopping, history
            )
            start_epoch = state["epoch"] + 1
            rollbacks = state["rollbacks"]
            best_weights = state["best_weights"]
            resumed_from = start_epoch
        elif early_stopping is not None:
            early_stopping.reset()

        snapshot: Optional[Dict] = None
        if resumed_from is not None:
            snapshot = self._capture_snapshot(
                optimizer, early_stopping, history, start_epoch - 1,
                best_weights, rollbacks,
            )

        epochs_run = start_epoch
        stop = False
        epoch = start_epoch
        while epoch < epochs:
            epochs_run = epoch + 1
            order = self._rng.permutation(len(train))
            losses = []
            diverged = False
            for start in range(0, len(train), batch_size):
                idx = order[start:start + batch_size]
                y_true = train.bob[idx]
                z_true = z_train[idx]
                y_hat, z_hat = self._forward(train.alice[idx], training=True)
                if snapshot is None:
                    # First forward pass ever: the layers are now built, so
                    # a pre-update safety net can be captured for the
                    # watchdog (divergence in the very first epoch rolls
                    # back to the initialization).
                    snapshot = self._capture_snapshot(
                        optimizer, early_stopping, history, epoch - 1,
                        best_weights, rollbacks,
                    )
                batch_loss = self.loss.value(y_true, y_hat, z_true, z_hat)
                if not np.isfinite(batch_loss):
                    diverged = True
                    break
                grad_y, grad_z = self.loss.gradients(y_true, y_hat, z_true, z_hat)
                self._backward(grad_y, grad_z)
                losses.append(batch_loss)
                optimizer.apply(self._parameter_list())

            if not diverged and losses:
                epoch_loss = float(np.mean(losses))
                past = [
                    value
                    for value in history.metrics.get("loss", [])
                    if np.isfinite(value)
                ]
                if not np.isfinite(epoch_loss):
                    diverged = True
                elif past and epoch_loss > DIVERGENCE_FACTOR * max(min(past), 1e-12):
                    diverged = True

            if diverged:
                rollbacks += 1
                if rollbacks > max_divergence_retries:
                    raise TrainingDivergedError(
                        f"training diverged at epoch {epoch} and the retry "
                        f"budget ({max_divergence_retries}) is exhausted"
                    )
                reduced_lr = optimizer.learning_rate * LR_BACKOFF
                best_weights = self._restore_snapshot(
                    snapshot, optimizer, early_stopping, history
                )
                optimizer.learning_rate = reduced_lr
                if verbose:  # pragma: no cover - console output
                    print(
                        f"epoch {epoch}: diverged; rolled back to epoch "
                        f"{snapshot['epoch']}, lr -> {reduced_lr:.2e}"
                    )
                epoch = snapshot["epoch"] + 1
                continue

            record = {"loss": float(np.mean(losses))}
            monitored = record["loss"]
            if validation is not None and len(validation):
                y_hat, z_hat = self._forward(validation.alice)
                record["val_loss"] = self.loss.value(
                    validation.bob, y_hat, z_val, z_hat
                )
                monitored = record["val_loss"]
            history.record(epoch, **record)
            if verbose:  # pragma: no cover - console output
                print(f"epoch {epoch}: " + ", ".join(f"{k}={v:.5f}" for k, v in record.items()))
            if early_stopping is not None:
                stop = early_stopping.update(epoch, monitored)
                if early_stopping.best_epoch == epoch and early_stopping.restore_best:
                    best_weights = [layer.get_weights() for layer in self.layers]
            snapshot = self._capture_snapshot(
                optimizer, early_stopping, history, epoch, best_weights, rollbacks
            )
            if checkpoint_path is not None:
                self._write_checkpoint(checkpoint_path, snapshot)
            if stop:
                break
            epoch += 1
        if best_weights is not None:
            for layer, weights in zip(self.layers, best_weights):
                if layer.parameters:
                    layer.set_weights(weights)
        self._trained = True
        return TrainingReport(
            history=history,
            epochs_run=epochs_run,
            divergence_rollbacks=rollbacks,
            resumed_from_epoch=resumed_from,
        )

    # -- inference ------------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self._trained:
            raise NotTrainedError("PredictionQuantizationModel must be fit() first")

    def inference_guard(self, **overrides) -> Optional[InferenceGuard]:
        """An OOD guard built from this model's training statistics.

        Returns ``None`` when no statistics are available (untrained model
        or a weight file saved without them); keyword
        arguments override :class:`~repro.core.guard.InferenceGuard`
        thresholds.
        """
        if self.training_stats is None:
            return None
        return InferenceGuard(self.training_stats, **overrides)

    def predict_sequences(self, alice_windows: np.ndarray) -> np.ndarray:
        """Predicted (normalized) Bob arRSSI sequences for Alice's windows."""
        self._require_trained()
        windows = np.atleast_2d(np.asarray(alice_windows, dtype=float))
        y_hat, _ = self._forward(windows)
        return y_hat

    def predict_bit_probabilities(self, alice_windows: np.ndarray) -> np.ndarray:
        """Quantization-head sigmoid outputs in [0, 1]."""
        self._require_trained()
        windows = np.atleast_2d(np.asarray(alice_windows, dtype=float))
        _, z_hat = self._forward(windows)
        return z_hat

    def alice_bits(self, alice_windows: np.ndarray) -> np.ndarray:
        """Alice's key bits: thresholded quantization-head outputs."""
        return (self.predict_bit_probabilities(alice_windows) > 0.5).astype(np.uint8)

    # -- persistence -------------------------------------------------------------------
    def save(self, path: Union[str, Path]) -> None:
        """Persist the model as a checksummed artifact with metadata.

        The artifact embeds the architecture hyperparameters (verified at
        load time) and, when available, the training-window statistics
        that power the inference guard.  The write is atomic.
        """
        self._require_trained()
        metadata: Dict = {"architecture": self._architecture()}
        if self.training_stats is not None:
            metadata["training_stats"] = self.training_stats.to_dict()
        save_weights(self.layers, path, kind=MODEL_ARTIFACT_KIND, metadata=metadata)

    def load(self, path: Union[str, Path]) -> None:
        """Load weights saved by :meth:`save` into a same-shape model.

        Raises :class:`~repro.exceptions.CorruptArtifactError` on a
        truncated or tampered file and
        :class:`~repro.exceptions.ArtifactMismatchError` when the stored
        architecture or artifact kind differs from this model, or the
        file is a plain ``.npz`` without the integrity header.
        """
        artifact = load_artifact(Path(path), kind=MODEL_ARTIFACT_KIND)
        require_matching_architecture(artifact, self._architecture(), path)
        # Build layers with a dummy pass before loading.
        self._forward(np.zeros((1, self.seq_len)))
        assign_weights(self.layers, artifact.arrays)
        stats = artifact.metadata.get("training_stats")
        self.training_stats = (
            WindowStatistics.from_dict(stats) if stats is not None else None
        )
        self._trained = True

    def clone_architecture(self, seed: SeedLike = None) -> "PredictionQuantizationModel":
        """A fresh untrained model with identical hyperparameters."""
        return PredictionQuantizationModel(
            seq_len=self.seq_len,
            hidden_units=self.hidden_units,
            key_bits=self.key_bits,
            theta=self.loss.theta,
            bob_quantizer=self.bob_quantizer,
            recurrent_cell=self.recurrent_cell,
            seed=seed if seed is not None else self._rng,
        )

    def copy_weights_from(self, other: "PredictionQuantizationModel") -> None:
        """Initialize from another trained model (transfer learning)."""
        other._require_trained()
        self._forward(np.zeros((1, self.seq_len)))
        for mine, theirs in zip(self.layers, other.layers):
            if theirs.parameters:
                mine.set_weights(theirs.get_weights())
        self.training_stats = other.training_stats
        self._trained = True
