"""Fully connected layer."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.nn.activations import get_activation
from repro.nn.initializers import GlorotUniform, Zeros
from repro.nn.layers.base import Layer
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require_positive


class Dense(Layer):
    """Affine transform ``y = activation(x @ W + b)`` over the last axis.

    Accepts inputs of any rank >= 2; leading axes (batch, time, ...) are
    preserved, so the same layer works time-distributed over sequences.

    Args:
        units: Output feature count.
        activation: ``None`` (linear), an activation name, or an instance.
        seed: Weight-initialization randomness.
        name: Layer name used in weight files.
    """

    def __init__(self, units: int, activation=None, seed: SeedLike = None, name=None):
        super().__init__(name=name)
        require_positive(units, "units")
        self.units = int(units)
        self.activation = get_activation(activation)
        self._rng = as_generator(seed)
        self._cache_input: np.ndarray = None
        self._cache_output: np.ndarray = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        in_features = int(input_shape[-1])
        self.parameters = {
            "kernel": GlorotUniform()((in_features, self.units), self._rng),
            "bias": Zeros()((self.units,), self._rng),
        }
        super().build(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        self.ensure_built(x.shape)
        self._cache_input = x
        pre = x @ self.parameters["kernel"] + self.parameters["bias"]
        self._cache_output = self.activation.forward(pre)
        return self._cache_output

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_pre = grad_output * self.activation.derivative_from_output(
            self._cache_output
        )
        x = self._cache_input
        # Collapse any leading axes into one batch axis for the weight grads.
        flat_x = x.reshape(-1, x.shape[-1])
        flat_grad = grad_pre.reshape(-1, self.units)
        self.gradients = {
            "kernel": flat_x.T @ flat_grad,
            "bias": flat_grad.sum(axis=0),
        }
        return grad_pre @ self.parameters["kernel"].T
