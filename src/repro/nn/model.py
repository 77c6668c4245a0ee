"""Sequential model container: training loop, prediction, persistence."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.exceptions import ConfigurationError
from repro.nn.callbacks import EarlyStopping, History
from repro.nn.layers.base import Layer
from repro.nn.losses import Loss, MeanSquaredError
from repro.nn.optimizers import Adam, Optimizer
from repro.nn.serialization import load_weights, save_weights
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive


class Model:
    """A plain layer stack trained with mini-batch gradient descent.

    Args:
        layers: Layers applied in order.
        loss: Training objective (default MSE).
        optimizer: Parameter update rule (default Adam).
    """

    def __init__(
        self,
        layers: Sequence[Layer],
        loss: Loss = None,
        optimizer: Optimizer = None,
    ):
        require(len(layers) > 0, "a model needs at least one layer")
        self.layers: List[Layer] = list(layers)
        self.loss = loss if loss is not None else MeanSquaredError()
        self.optimizer = optimizer if optimizer is not None else Adam()

    # -- inference ---------------------------------------------------------
    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the stack; ``training=True`` caches what :meth:`backward` needs."""
        out = x
        for layer in self.layers:
            out = layer.forward(out, training=training)
        return out

    def predict(self, x: np.ndarray, batch_size: int = 256) -> np.ndarray:
        """Inference in batches (keeps memory bounded on big inputs).

        An empty input returns an empty array with the correct trailing
        (output) shape rather than crashing on the batch concatenation.
        """
        require_positive(batch_size, "batch_size")
        if len(x) == 0:
            # A zero-row forward pass still yields the stack's output shape.
            return self.forward(x, training=False)
        outputs = [
            self.forward(x[i:i + batch_size], training=False)
            for i in range(0, len(x), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    # -- training ----------------------------------------------------------
    def backward(
        self, grad_output: np.ndarray, need_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backpropagate an upstream gradient through the whole stack.

        With ``need_input_grad=False`` the first layer is allowed to skip
        computing the gradient with respect to the model *input* (nothing
        consumes it during training); layers advertise support via
        ``can_skip_input_grad`` and ``None`` is returned in that case.
        """
        grad = grad_output
        first = self.layers[0]
        for layer in reversed(self.layers[1:]):
            grad = layer.backward(grad)
        if not need_input_grad and getattr(first, "can_skip_input_grad", False):
            first.backward(grad, compute_input_grad=False)
            return None
        return first.backward(grad)

    def train_batch(self, x: np.ndarray, y: np.ndarray) -> float:
        """One optimization step on a batch; returns the batch loss."""
        prediction = self.forward(x, training=True)
        batch_loss = self.loss.value(y, prediction)
        self.backward(self.loss.gradient(y, prediction), need_input_grad=False)
        self.optimizer.apply(self._parameter_list())
        return batch_loss

    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 10,
        batch_size: int = 32,
        validation_data: Optional[Tuple[np.ndarray, np.ndarray]] = None,
        early_stopping: Optional[EarlyStopping] = None,
        shuffle_seed: SeedLike = 0,
        verbose: bool = False,
    ) -> History:
        """Mini-batch training with optional validation and early stopping.

        Returns the :class:`History` of per-epoch train (and validation)
        losses.  When early stopping fires with ``restore_best=True``, the
        best-validation-epoch weights are restored before returning.
        """
        require(len(x) == len(y), "x and y must have the same number of rows")
        require_positive(epochs, "epochs")
        require_positive(batch_size, "batch_size")
        rng = as_generator(shuffle_seed)
        history = History()
        best_weights = None
        if early_stopping is not None:
            early_stopping.reset()

        for epoch in range(epochs):
            order = rng.permutation(len(x))
            epoch_losses = []
            for start in range(0, len(x), batch_size):
                batch_idx = order[start:start + batch_size]
                epoch_losses.append(self.train_batch(x[batch_idx], y[batch_idx]))
            record = {"loss": float(np.mean(epoch_losses))}
            monitored = record["loss"]
            if validation_data is not None:
                val_x, val_y = validation_data
                val_pred = self.predict(val_x)
                record["val_loss"] = self.loss.value(val_y, val_pred)
                monitored = record["val_loss"]
            history.record(epoch, **record)
            if verbose:  # pragma: no cover - console output
                print(f"epoch {epoch}: " + ", ".join(f"{k}={v:.5f}" for k, v in record.items()))
            if early_stopping is not None:
                stop = early_stopping.update(epoch, monitored)
                if early_stopping.best_epoch == epoch and early_stopping.restore_best:
                    best_weights = self.get_weights()
                if stop:
                    break
        if early_stopping is not None and early_stopping.restore_best and best_weights:
            self.set_weights(best_weights)
        return history

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Loss on a held-out set."""
        return self.loss.value(y, self.predict(x))

    # -- parameter plumbing -------------------------------------------------
    def _parameter_list(self):
        pairs = []
        for layer in self.layers:
            pairs.extend(layer.parameter_list())
        return pairs

    def get_weights(self) -> List[dict]:
        """Per-layer weight dicts (deep copies)."""
        return [layer.get_weights() for layer in self.layers]

    def set_weights(self, weights: List[dict]) -> None:
        """Restore weights captured by :meth:`get_weights`."""
        if len(weights) != len(self.layers):
            raise ConfigurationError(
                f"got weights for {len(weights)} layers, model has {len(self.layers)}"
            )
        for layer, layer_weights in zip(self.layers, weights):
            if layer.parameters:
                layer.set_weights(layer_weights)

    def save(self, path: Union[str, Path]) -> None:
        """Persist all layer weights to an ``.npz`` file."""
        save_weights(self.layers, path)

    def load(self, path: Union[str, Path]) -> None:
        """Load weights written by :meth:`save` (build the model first)."""
        load_weights(self.layers, path)
