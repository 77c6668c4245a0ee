"""GRU layer with fused gate kernels and full backpropagation through time.

Not used by the paper's architecture (which is BiLSTM-based), but
included so the recurrent-cell choice can be ablated: the GRU has ~25%
fewer parameters per hidden unit and is the natural what-if for the
prediction module.

Gate layout: the fused pre-activation for the update (z) and reset (r)
gates is ``[x, h] W_zr + b_zr``; the candidate uses the reset-scaled
state, ``h~ = tanh(x W_xh + (r * h) W_hh + b_h)``; the new state is
``h' = (1 - z) * h + z * h~``.

The kernel follows the same performance recipe as the LSTM (see
``docs/PERFORMANCE.md``): one ``[steps, batch, 2H]`` gate buffer written
in place, ``out=`` ufuncs throughout the recurrence, weight gradients
accumulated with a single :func:`numpy.tensordot` over all steps, and an
inference fast path that skips the backward cache when
``training=False``.  The pre-vectorization implementation is frozen in
``tests/oracles/nn_kernels.py``.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NotTrainedError
from repro.nn.activations import stable_sigmoid as _sigmoid
from repro.nn.initializers import GlorotUniform, Orthogonal
from repro.nn.layers.base import Layer
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive


class GRU(Layer):
    """Unidirectional GRU over ``[batch, time, features]`` input.

    Args:
        units: Hidden state width H.
        return_sequences: If ``True`` (default) output is
            ``[batch, time, H]``; otherwise the final state ``[batch, H]``.
        seed: Weight-initialization randomness.
    """

    def __init__(
        self,
        units: int,
        return_sequences: bool = True,
        seed: SeedLike = None,
        name=None,
    ):
        super().__init__(name=name)
        require_positive(units, "units")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self._rng = as_generator(seed)
        self._cache = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Allocate the gate and candidate parameter blocks."""
        require(len(input_shape) == 3, "GRU input must be [batch, time, features]")
        in_features = int(input_shape[-1])
        h = self.units
        glorot = GlorotUniform()
        orthogonal = Orthogonal()
        self.parameters = {
            "kernel_gates": glorot((in_features, 2 * h), self._rng),
            "recurrent_gates": np.concatenate(
                [orthogonal((h, h), self._rng) for _ in range(2)], axis=1
            ),
            "bias_gates": np.zeros(2 * h),
            "kernel_candidate": glorot((in_features, h), self._rng),
            "recurrent_candidate": orthogonal((h, h), self._rng),
            "bias_candidate": np.zeros(h),
        }
        super().build(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the recurrence over all timesteps.

        With ``training=True`` the activations needed by :meth:`backward`
        are cached; with ``training=False`` (inference) no history is
        retained beyond the rolling hidden state.
        """
        self.ensure_built(x.shape)
        batch, steps, _ = x.shape
        h = self.units
        p = self.parameters

        # One GEMM per projection for all steps, laid out [steps, batch, *]
        # so each step's block is contiguous; the projections double as the
        # activated-gate / candidate caches (written in place).
        xs = np.ascontiguousarray(np.transpose(x, (1, 0, 2)))
        gates = np.matmul(xs, p["kernel_gates"])
        gates += p["bias_gates"]
        candidates = np.matmul(xs, p["kernel_candidate"])
        candidates += p["bias_candidate"]

        h_prev = np.zeros((batch, h))
        hw = np.empty((batch, 2 * h))   # recurrent gate contribution, reused
        rh = np.empty((batch, h))       # r * h_{t-1}, reused
        ch = np.empty((batch, h))       # candidate recurrent term, reused
        tmp = np.empty((batch, h))

        if training:
            hiddens = np.empty((steps, batch, h))
        else:
            hiddens = np.empty((steps, batch, h)) if self.return_sequences else None
            h_buf = np.empty((batch, h))

        for t in range(steps):
            zr = gates[t]
            np.matmul(h_prev, p["recurrent_gates"], out=hw)
            zr += hw
            _sigmoid(zr, out=zr)
            z = zr[:, :h]
            r = zr[:, h:]
            cand = candidates[t]
            np.multiply(r, h_prev, out=rh)
            np.matmul(rh, p["recurrent_candidate"], out=ch)
            cand += ch
            np.tanh(cand, out=cand)
            # h' = (1-z)*h + z*cand, in place into this step's slot.
            h_new = hiddens[t] if hiddens is not None else h_buf
            np.subtract(1.0, z, out=tmp)
            np.multiply(tmp, h_prev, out=h_new)
            np.multiply(z, cand, out=tmp)
            h_new += tmp
            h_prev = h_new

        if training:
            self._cache = {"xs": xs, "gates": gates, "candidates": candidates,
                           "hiddens": hiddens}
        else:
            self._cache = None
            if not self.return_sequences:
                return h_prev.copy()
            return np.transpose(hiddens, (1, 0, 2))

        output = np.transpose(hiddens, (1, 0, 2))
        if not self.return_sequences:
            return output[:, -1, :].copy()
        return output

    #: :meth:`backward` accepts ``compute_input_grad=False`` (see
    #: :meth:`repro.nn.model.Model.backward`).
    can_skip_input_grad = True

    def backward(
        self, grad_output: np.ndarray, compute_input_grad: bool = True
    ) -> Optional[np.ndarray]:
        """Backpropagate through time using the fused training cache."""
        cache = self._cache
        if cache is None:
            raise NotTrainedError(
                f"layer {self.name!r} has no backward cache; run "
                "forward(..., training=True) before backward() -- the "
                "inference fast path does not retain activations"
            )
        xs = cache["xs"]
        gates = cache["gates"]
        candidates = cache["candidates"]
        hiddens = cache["hiddens"]
        steps, batch, in_features = xs.shape
        h = self.units
        p = self.parameters
        rc_t = np.ascontiguousarray(p["recurrent_candidate"].T)
        rg_t = np.ascontiguousarray(p["recurrent_gates"].T)

        if self.return_sequences:
            grad_h_steps = np.transpose(grad_output, (1, 0, 2))
        else:
            grad_h_steps = np.zeros((steps, batch, h))
            grad_h_steps[-1] = grad_output

        d_gates = np.empty((steps, batch, 2 * h))
        d_cand = np.empty((steps, batch, h))
        dh = np.empty((batch, h))
        d_rh = np.empty((batch, h))
        gh = np.empty((batch, h))
        tmp = np.empty((batch, h))
        dh_next = np.zeros((batch, h))
        zeros_h = np.zeros((batch, h))

        for t in reversed(range(steps)):
            zr = gates[t]
            z = zr[:, :h]
            r = zr[:, h:]
            candidate = candidates[t]
            h_prev = hiddens[t - 1] if t > 0 else zeros_h

            np.add(grad_h_steps[t], dh_next, out=dh)
            dct = d_cand[t]
            dzt = d_gates[t][:, :h]
            drt = d_gates[t][:, h:]

            # d_candidate = dh * z * (1 - candidate^2)
            np.multiply(dh, z, out=dct)
            np.multiply(candidate, candidate, out=tmp)
            np.subtract(1.0, tmp, out=tmp)
            dct *= tmp
            # d_z = dh * (candidate - h_prev) * z * (1-z)
            np.subtract(candidate, h_prev, out=tmp)
            np.multiply(dh, tmp, out=dzt)
            dzt *= z
            np.subtract(1.0, z, out=tmp)
            dzt *= tmp
            # d_r = (d_candidate W_hh^T) * h_prev * r * (1-r)
            np.matmul(dct, rc_t, out=d_rh)
            np.multiply(d_rh, h_prev, out=drt)
            drt *= r
            np.subtract(1.0, r, out=tmp)
            drt *= tmp
            # dh_next = dh*(1-z) + d_rh*r + d_gates W_zr^T
            np.subtract(1.0, z, out=tmp)
            np.multiply(dh, tmp, out=dh_next)
            np.multiply(d_rh, r, out=tmp)
            dh_next += tmp
            np.matmul(d_gates[t], rg_t, out=gh)
            dh_next += gh

        # Single tensordot over all steps replaces the per-step += GEMMs.
        grads = {
            "kernel_gates": np.tensordot(xs, d_gates, axes=([0, 1], [0, 1])),
            "bias_gates": d_gates.sum(axis=(0, 1)),
            "kernel_candidate": np.tensordot(xs, d_cand, axes=([0, 1], [0, 1])),
            "bias_candidate": d_cand.sum(axis=(0, 1)),
        }
        if steps > 1:
            # r*h_in is zero at t=0 (h_in = 0), so only the tail contributes.
            rh_tail = gates[1:, :, h:] * hiddens[:-1]
            grads["recurrent_candidate"] = np.tensordot(
                rh_tail, d_cand[1:], axes=([0, 1], [0, 1])
            )
            grads["recurrent_gates"] = np.tensordot(
                hiddens[:-1], d_gates[1:], axes=([0, 1], [0, 1])
            )
        else:
            grads["recurrent_candidate"] = np.zeros_like(p["recurrent_candidate"])
            grads["recurrent_gates"] = np.zeros_like(p["recurrent_gates"])

        self.gradients = grads
        if not compute_input_grad:
            return None
        d_x = np.matmul(d_cand, p["kernel_candidate"].T)
        d_x += np.matmul(d_gates, p["kernel_gates"].T)
        return np.transpose(d_x, (1, 0, 2))
