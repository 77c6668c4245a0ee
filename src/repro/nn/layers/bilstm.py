"""Bidirectional LSTM: the paper's sequence encoder (Sec. IV-B).

Wraps a forward and a backward :class:`~repro.nn.layers.lstm.LSTM` over
the same input and concatenates their time-aligned outputs, so each
timestep's feature vector sees both past and future channel context --
the property the paper leans on for predicting Bob's measurements from
Alice's.

Both directions run through the *same* fused recurrent kernel
(:mod:`repro.nn.layers.lstm`) in one call with a stacked direction axis
(``D = 2``), so every per-step GEMM and ufunc pass covers both
directions at once -- half the dispatch count of running the two
sub-layers back to back.  The sub-layers still own the parameters (and
receive the gradients), keeping serialization and the optimizer
unchanged.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.exceptions import NotTrainedError
from repro.nn.layers.base import Layer
from repro.nn.layers.lstm import (
    LSTM,
    _fused_backward,
    _infer_forward,
    _train_forward,
    fuse_weights,
)
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require


class BiLSTM(Layer):
    """Bidirectional LSTM with concatenated outputs.

    Args:
        units: Hidden width *per direction*; output features are ``2 * units``.
        return_sequences: If ``True`` output is ``[batch, time, 2H]``;
            otherwise the two final states concatenated, ``[batch, 2H]``.
        seed: Weight-initialization randomness (split between directions).
    """

    #: LSTM implementation both directions are built from; the frozen
    #: pre-vectorization baseline in ``tests/oracles/nn_kernels.py``
    #: overrides it.
    lstm_cls = LSTM

    def __init__(
        self,
        units: int,
        return_sequences: bool = True,
        seed: SeedLike = None,
        name=None,
    ):
        super().__init__(name=name)
        rng = as_generator(seed)
        self.units = int(units)
        self._cache = None
        self.return_sequences = bool(return_sequences)
        self.forward_lstm = self.lstm_cls(
            units,
            return_sequences=return_sequences,
            go_backwards=False,
            seed=rng,
            name=f"{self.name}-fwd",
        )
        self.backward_lstm = self.lstm_cls(
            units,
            return_sequences=return_sequences,
            go_backwards=True,
            seed=rng,
            name=f"{self.name}-bwd",
        )

    def build(self, input_shape: Tuple[int, ...]) -> None:
        self.forward_lstm.build(input_shape)
        self.backward_lstm.build(input_shape)
        super().build(input_shape)

    # Parameters live in the sub-layers; expose them with prefixed names so
    # serialization and the optimizer see one flat dict.
    @property
    def parameters(self) -> Dict[str, np.ndarray]:  # type: ignore[override]
        merged = {f"fwd/{k}": v for k, v in self.forward_lstm.parameters.items()}
        merged.update(
            {f"bwd/{k}": v for k, v in self.backward_lstm.parameters.items()}
        )
        return merged

    @parameters.setter
    def parameters(self, value: Dict[str, np.ndarray]) -> None:
        # Assigned by Layer.__init__ with {} before sub-layers exist; real
        # parameter state is delegated, so only non-empty loads are routed.
        if value:
            self._route(value, target="parameters")

    @property
    def gradients(self) -> Dict[str, np.ndarray]:  # type: ignore[override]
        merged = {f"fwd/{k}": v for k, v in self.forward_lstm.gradients.items()}
        merged.update(
            {f"bwd/{k}": v for k, v in self.backward_lstm.gradients.items()}
        )
        return merged

    @gradients.setter
    def gradients(self, value: Dict[str, np.ndarray]) -> None:
        if not hasattr(self, "forward_lstm"):
            # Layer.__init__ assigns {} before the sub-layers exist.
            return
        if value:
            self._route(value, target="gradients")
        else:
            self.forward_lstm.gradients = {}
            self.backward_lstm.gradients = {}

    def _route(self, value: Dict[str, np.ndarray], target: str) -> None:
        fwd = {k[4:]: v for k, v in value.items() if k.startswith("fwd/")}
        bwd = {k[4:]: v for k, v in value.items() if k.startswith("bwd/")}
        require(
            len(fwd) + len(bwd) == len(value),
            "BiLSTM weight keys must be prefixed with fwd/ or bwd/",
        )
        setattr(self.forward_lstm, target, fwd)
        setattr(self.backward_lstm, target, bwd)

    def set_weights(self, weights: Dict[str, np.ndarray]) -> None:
        fwd = {k[4:]: v for k, v in weights.items() if k.startswith("fwd/")}
        bwd = {k[4:]: v for k, v in weights.items() if k.startswith("bwd/")}
        require(
            len(fwd) + len(bwd) == len(weights),
            "BiLSTM weight keys must be prefixed with fwd/ or bwd/",
        )
        self.forward_lstm.set_weights(fwd)
        self.backward_lstm.set_weights(bwd)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run both directions and concatenate their outputs on features.

        With the standard :class:`LSTM` sub-layers, both directions go
        through one fused-kernel call with a stacked direction axis; a
        custom ``lstm_cls`` (e.g. the frozen reference implementation)
        falls back to running the sub-layers independently.
        """
        self.ensure_built(x.shape)
        if self.lstm_cls is not LSTM:
            fwd_out = self.forward_lstm.forward(x, training=training)
            bwd_out = self.backward_lstm.forward(x, training=training)
            return np.concatenate([fwd_out, bwd_out], axis=-1)

        batch, steps, in_features = x.shape
        h = self.units
        w_full = np.stack([
            fuse_weights(self.forward_lstm.parameters),
            fuse_weights(self.backward_lstm.parameters),
        ])
        # Direction 0 processes time forward, direction 1 reversed.
        xs = np.empty((2, steps, batch, in_features))
        x_steps = np.transpose(x, (1, 0, 2))
        xs[0] = x_steps
        xs[1] = x_steps[::-1]

        if training:
            hiddens, self._cache = _train_forward(w_full, xs)
        else:
            self._cache = None
            hiddens, h_final = _infer_forward(w_full, xs, self.return_sequences)
            if not self.return_sequences:
                out = np.empty((batch, 2 * h))
                out[:, :h] = h_final[0]
                out[:, h:] = h_final[1]
                return out

        if not self.return_sequences:
            out = np.empty((batch, 2 * h))
            out[:, :h] = hiddens[0, -1]
            out[:, h:] = hiddens[1, -1]
            return out
        # Direction 1 ran on reversed time, so flip it back into input
        # order before concatenating along features.
        out = np.empty((batch, steps, 2 * h))
        out[:, :, :h] = np.transpose(hiddens[0], (1, 0, 2))
        out[:, :, h:] = np.transpose(hiddens[1, ::-1], (1, 0, 2))
        return out

    @property
    def can_skip_input_grad(self) -> bool:
        """Whether :meth:`backward` honours ``compute_input_grad=False``.

        Only the fused path supports the skip; a custom ``lstm_cls`` (the
        frozen reference baseline) keeps the plain protocol.
        """
        return self.lstm_cls is LSTM

    def backward(
        self, grad_output: np.ndarray, compute_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backpropagate through both directions in one fused pass."""
        h = self.units
        if self.lstm_cls is not LSTM:
            grad_fwd = grad_output[..., :h]
            grad_bwd = grad_output[..., h:]
            return self.forward_lstm.backward(grad_fwd) + self.backward_lstm.backward(
                grad_bwd
            )

        cache = self._cache
        if cache is None:
            raise NotTrainedError(
                f"layer {self.name!r} has no backward cache; run "
                "forward(..., training=True) before backward() -- the "
                "inference fast path does not retain activations"
            )
        _, steps, batch, _ = cache["gates"].shape

        # Upstream gradient into each direction's processing order.
        if self.return_sequences:
            grad_h_steps = np.empty((2, steps, batch, h))
            grad_h_steps[0] = np.transpose(grad_output[..., :h], (1, 0, 2))
            grad_h_steps[1] = np.transpose(grad_output[..., h:], (1, 0, 2))[::-1]
        else:
            grad_h_steps = np.zeros((2, steps, batch, h))
            grad_h_steps[0, -1] = grad_output[:, :h]
            grad_h_steps[1, -1] = grad_output[:, h:]

        d_x, d_wx, d_wh, d_b = _fused_backward(
            cache, grad_h_steps, compute_input_grad
        )
        self.forward_lstm.gradients = {
            "kernel": d_wx[0], "recurrent": d_wh[0], "bias": d_b[0],
        }
        self.backward_lstm.gradients = {
            "kernel": d_wx[1], "recurrent": d_wh[1], "bias": d_b[1],
        }
        if not compute_input_grad:
            return None
        # Direction 1's input gradient is in reversed time order.
        grad_x = np.transpose(d_x[0], (1, 0, 2))
        grad_x += np.transpose(d_x[1, ::-1], (1, 0, 2))
        return grad_x

    def zero_gradients(self) -> None:
        self.forward_lstm.zero_gradients()
        self.backward_lstm.zero_gradients()
