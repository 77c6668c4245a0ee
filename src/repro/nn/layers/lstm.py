"""LSTM layer with fused gate kernels and full backpropagation through time.

Gate layout follows the usual convention: the fused pre-activation
``z = x W_x + h W_h + b`` is split into input (i), forget (f), candidate
(g) and output (o) blocks.  The forget-gate bias is initialized to 1,
which materially speeds up learning on short sequences.

Performance notes (see ``docs/PERFORMANCE.md``):

- The whole step is one GEMM: ``z_t = [h_{t-1}, x_t, 1] @ [[W_h], [W_x],
  [b]]``, so there is no separate input pre-projection pass, no bias
  pass, and no per-step gate allocation -- the recurrence runs entirely
  in preallocated, cache-hot buffers with ``out=`` ufuncs.
- Internally the fused weight columns are permuted to (i, f, o, g) so
  the three sigmoid gates form one contiguous block: a single sigmoid
  pass per step in forward, and a single ``y*(1-y)`` derivative pass in
  backward.  Parameters and reported gradients stay in the conventional
  (i, f, g, o) order (see :func:`_gate_perm`).
- The kernels carry a leading *direction* axis ``D`` and use batched
  ``matmul`` over it.  :class:`LSTM` runs them with ``D=1``;
  :class:`~repro.nn.layers.bilstm.BiLSTM` runs both of its directions
  through the same kernel with ``D=2``, halving the per-step Python/ufunc
  dispatch count.
- ``backward`` writes the per-step pre-activation gradients into one
  preallocated ``[D, steps, batch, 4H]`` buffer and accumulates each
  direction's weight gradients with a single flat GEMM over all steps
  instead of a per-step ``+=`` of small GEMMs.
- With ``training=False`` the forward pass takes an inference fast path:
  a gate-major ``[4, D, batch, H]`` scratch buffer keeps every activation
  pass contiguous, and no history is retained beyond the rolling
  hidden/cell state.  Calling :meth:`LSTM.backward` afterwards raises
  :class:`~repro.exceptions.NotTrainedError`.

The pre-vectorization implementation is frozen in
``tests/oracles/nn_kernels.py`` and the equivalence tests pin this
kernel's outputs to it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from repro.exceptions import NotTrainedError
from repro.nn.initializers import GlorotUniform, Orthogonal
from repro.nn.layers.base import Layer
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive


@lru_cache(maxsize=None)
def _gate_perm(h: int) -> np.ndarray:
    """Column permutation between parameter order (i,f,g,o) and kernel order.

    The kernels keep the gates as (i, f, o, g) so the three sigmoid gates
    form one contiguous ``3H`` block (a single activation pass, and a
    single ``y*(1-y)`` derivative pass in backward).  Swapping the g and o
    blocks is an involution, so the same index array converts fused
    weights *into* kernel order and gate gradients *back out* of it.
    """
    idx = np.empty(4 * h, dtype=np.intp)
    idx[: 2 * h] = np.arange(2 * h)
    idx[2 * h: 3 * h] = np.arange(3 * h, 4 * h)
    idx[3 * h:] = np.arange(2 * h, 3 * h)
    idx.setflags(write=False)
    return idx


def _sigmoid_unsafe(buf: np.ndarray) -> None:
    """In-place ``1/(1+exp(-x))`` with no errstate guard of its own.

    The recurrent kernels call this once per timestep inside a single
    ``np.errstate(over="ignore")`` block, hoisting the (surprisingly
    expensive) errstate enter/exit out of the loop.  Semantics match
    :func:`repro.nn.activations.stable_sigmoid`.
    """
    np.negative(buf, out=buf)
    np.exp(buf, out=buf)
    buf += 1.0
    np.divide(1.0, buf, out=buf)


def fuse_weights(parameters) -> np.ndarray:
    """Stack one direction's parameters into the fused ``[K, 4H]`` matrix.

    ``K = H + F + 1``: recurrent rows first, then input rows, then the
    bias as a final row selected by a constant-1 column in the step input,
    so the whole step projection is a single GEMM.  Columns are returned
    in the kernels' internal (i, f, o, g) gate order -- see
    :func:`_gate_perm`.
    """
    fused = np.concatenate(
        [parameters["recurrent"], parameters["kernel"], parameters["bias"][None, :]],
        axis=0,
    )
    return fused[:, _gate_perm(fused.shape[1] // 4)]


def _train_forward(w_full, xs):
    """Shared training-mode recurrence over stacked directions.

    Args:
        w_full: ``[D, K, 4H]`` fused weights (see :func:`fuse_weights`).
        xs: ``[D, steps, batch, F]`` inputs, already in each direction's
            processing order.  The direction-major layout keeps each
            direction's history contiguous, which is what the backward
            pass's weight-gradient GEMMs want.

    Returns:
        ``(hiddens, cache)`` where ``hiddens`` is ``[D, steps, batch, H]``
        and ``cache`` holds everything :func:`_fused_backward` needs.
    """
    d, k, g4 = w_full.shape
    _, steps, batch, _ = xs.shape
    h = g4 // 4

    # Full step-input history [h_{t-1}, x_t, 1]: row t is step t's GEMM
    # input, and row t+1's leading H block doubles as step t's hidden
    # output -- so hist[:, 1:, :, :h] *is* the hidden-state sequence, and
    # backward gets all weight (and bias) gradients from one flat GEMM
    # against this buffer.  The x and bias columns are filled in bulk.
    hist = np.empty((d, steps + 1, batch, k))
    hist[:, 0, :, :h] = 0.0   # h_0
    hist[:, :steps, :, h:-1] = xs
    hist[..., -1] = 1.0       # bias row selector

    gates = np.empty((d, steps, batch, g4))
    cells = np.empty((d, steps, batch, h))
    cell_tanh = np.empty_like(cells)
    hiddens = hist[:, 1:, :, :h]
    ig = np.empty((d, batch, h))
    c_prev = np.zeros((d, batch, h))

    with np.errstate(over="ignore"):
        for t in range(steps):
            z = gates[:, t]
            np.matmul(hist[:, t], w_full, out=z)
            # In-place activations on the fused block: one sigmoid pass
            # over the contiguous (i, f, o) block, tanh on g.
            _sigmoid_unsafe(z[..., :3 * h])
            np.tanh(z[..., 3 * h:], out=z[..., 3 * h:])
            i = z[..., :h]
            f = z[..., h:2 * h]
            o = z[..., 2 * h:3 * h]
            g = z[..., 3 * h:]
            np.multiply(i, g, out=ig)
            c = cells[:, t]
            np.multiply(f, c_prev, out=c)
            c += ig
            np.tanh(c, out=cell_tanh[:, t])
            np.multiply(o, cell_tanh[:, t], out=hiddens[:, t])
            c_prev = c

    cache = {
        "w_full": w_full, "hist": hist, "gates": gates, "cells": cells,
        "tanh_c": cell_tanh,
    }
    return hiddens, cache


def _infer_forward(w_full, xs, keep_sequences):
    """Shared inference fast path: no backward cache, contiguous scratch.

    The fused weights are re-stacked gate-major (``[4, D, K, H]``) so the
    per-step batched GEMM lands in a ``[4, D, batch, H]`` buffer where
    every activation pass runs over contiguous memory.  Only the rolling
    hidden/cell state is kept (plus the hidden history when
    ``keep_sequences``).

    Returns:
        ``(hiddens, h_final)``: ``[D, steps, batch, H]`` (or ``None`` when
        ``keep_sequences`` is false) and the final state ``[D, batch, H]``.
    """
    d, k, g4 = w_full.shape
    _, steps, batch, _ = xs.shape
    h = g4 // 4

    w_stack = np.ascontiguousarray(
        w_full.reshape(d, k, 4, h).transpose(2, 0, 1, 3)
    )
    hcat = np.empty((d, batch, k))
    hcat[..., :h] = 0.0
    hcat[..., -1] = 1.0

    z = np.empty((4, d, batch, h))
    hiddens = np.empty((d, steps, batch, h)) if keep_sequences else None
    ig = np.empty((d, batch, h))
    c_buf = np.empty((d, batch, h))
    tanh_buf = np.empty((d, batch, h))
    hrow = hcat[..., :h]  # the rolling state doubles as next step's input
    c_prev = np.zeros((d, batch, h))

    with np.errstate(over="ignore"):
        for t in range(steps):
            hcat[..., h:-1] = xs[:, t]
            np.matmul(hcat[None], w_stack, out=z)
            i, f, o, g = z[0], z[1], z[2], z[3]
            _sigmoid_unsafe(z[:3])
            np.tanh(g, out=g)
            np.multiply(i, g, out=ig)
            # Elementwise ops are alias-safe, so c_buf doubles as c_prev.
            np.multiply(f, c_prev, out=c_buf)
            c_buf += ig
            c_prev = c_buf
            np.tanh(c_buf, out=tanh_buf)
            np.multiply(o, tanh_buf, out=hrow)
            if hiddens is not None:
                hiddens[:, t] = hrow

    return hiddens, np.ascontiguousarray(hrow)


def _fused_backward(cache, grad_h_steps, compute_input_grad=True):
    """Shared backpropagation-through-time over stacked directions.

    Args:
        cache: The dict produced by :func:`_train_forward`.
        grad_h_steps: ``[D, steps, batch, H]`` upstream gradient in each
            direction's processing order.
        compute_input_grad: When ``False`` the input gradient is skipped
            (``d_x`` comes back ``None``) -- a first-layer optimization,
            since nothing consumes the gradient of the model input.

    Returns:
        ``(d_x, d_wx, d_wh, d_b)`` with shapes ``[D, steps, batch, F]``
        (or ``None``), ``[D, F, 4H]``, ``[D, H, 4H]`` and ``[D, 4H]``.
    """
    w_full = cache["w_full"]
    hist = cache["hist"]
    gates = cache["gates"]
    cells = cache["cells"]
    cell_tanh = cache["tanh_c"]
    d, steps, batch, g4 = gates.shape
    h = g4 // 4
    k = hist.shape[-1]
    in_features = k - h - 1
    w_h_t = np.ascontiguousarray(w_full[:, :h, :].transpose(0, 2, 1))
    w_x_t = np.ascontiguousarray(w_full[:, h:-1, :].transpose(0, 2, 1))

    dz = np.empty((d, steps, batch, g4))
    dh = np.empty((d, batch, h))
    dct = np.empty((d, batch, h))
    tmp = np.empty((d, batch, h))
    fct = np.empty((d, batch, 3 * h))
    dh_next = np.zeros((d, batch, h))
    dc_next = np.zeros((d, batch, h))
    zeros_h = np.zeros((d, batch, h))

    for t in reversed(range(steps)):
        zt = gates[:, t]
        i = zt[..., :h]
        f = zt[..., h:2 * h]
        g = zt[..., 3 * h:]
        tanh_c = cell_tanh[:, t]
        c_in = cells[:, t - 1] if t > 0 else zeros_h

        np.add(grad_h_steps[:, t], dh_next, out=dh)
        dzt = dz[:, t]
        di = dzt[..., :h]
        df = dzt[..., h:2 * h]
        do = dzt[..., 2 * h:3 * h]
        dg = dzt[..., 3 * h:]

        # dct = dh * o * (1 - tanh_c^2) + dc_next
        np.multiply(dh, zt[..., 2 * h:3 * h], out=dct)
        np.multiply(tanh_c, tanh_c, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dct *= tmp
        dct += dc_next

        # Upstream products into the fused [D, steps, batch, 4H] buffer...
        np.multiply(dct, g, out=di)      # di = dct*g
        np.multiply(dct, c_in, out=df)   # df = dct*c_in
        np.multiply(dh, tanh_c, out=do)  # do = dh*tanh_c
        np.multiply(dct, i, out=dg)      # dg = dct*i
        # ...then one y*(1-y) pass over the contiguous sigmoid block
        # (i, f, o) and the tanh derivative for g.
        sig = zt[..., :3 * h]
        np.subtract(1.0, sig, out=fct)
        fct *= sig
        dzt[..., :3 * h] *= fct
        np.multiply(g, g, out=tmp)
        np.subtract(1.0, tmp, out=tmp)
        dg *= tmp

        np.multiply(dct, f, out=dc_next)
        np.matmul(dzt, w_h_t, out=dh_next)

    # One GEMM per direction against the step-input history yields the
    # recurrent, kernel *and* bias gradients together (rows of the fused
    # [K, 4H] matrix), in a single pass over dz; direction-major layout
    # makes every reshape below a free view.
    d_fused = np.empty((d, k, g4))
    d_x = np.empty((d, steps, batch, in_features)) if compute_input_grad else None
    for direction in range(d):
        dz_flat = dz[direction].reshape(steps * batch, g4)
        hist_flat = hist[direction, :steps].reshape(steps * batch, k)
        np.matmul(hist_flat.T, dz_flat, out=d_fused[direction])
        if compute_input_grad:
            np.matmul(
                dz_flat, w_x_t[direction],
                out=d_x[direction].reshape(steps * batch, in_features),
            )
    # Weight/bias gradients leave in parameter gate order (i, f, g, o);
    # the permutation is its own inverse.
    perm = _gate_perm(h)
    d_fused = d_fused[:, :, perm]
    return d_x, d_fused[:, h:-1], d_fused[:, :h], d_fused[:, -1]


class LSTM(Layer):
    """Unidirectional LSTM over ``[batch, time, features]`` input.

    Args:
        units: Hidden state width H.
        return_sequences: If ``True`` (default) output is
            ``[batch, time, H]``; otherwise the final hidden state
            ``[batch, H]``.
        go_backwards: Process the sequence in reverse time order.  The
            output is flipped back so it stays aligned with the input's
            time axis (what a bidirectional wrapper needs).
        seed: Weight-initialization randomness.
    """

    def __init__(
        self,
        units: int,
        return_sequences: bool = True,
        go_backwards: bool = False,
        seed: SeedLike = None,
        name=None,
    ):
        super().__init__(name=name)
        require_positive(units, "units")
        self.units = int(units)
        self.return_sequences = bool(return_sequences)
        self.go_backwards = bool(go_backwards)
        self._rng = as_generator(seed)
        self._cache = None

    def build(self, input_shape: Tuple[int, ...]) -> None:
        """Allocate the fused kernel/recurrent/bias parameter blocks."""
        require(len(input_shape) == 3, "LSTM input must be [batch, time, features]")
        in_features = int(input_shape[-1])
        h = self.units
        glorot = GlorotUniform()
        orthogonal = Orthogonal()
        bias = np.zeros(4 * h)
        bias[h:2 * h] = 1.0  # forget-gate bias
        self.parameters = {
            "kernel": glorot((in_features, 4 * h), self._rng),
            "recurrent": np.concatenate(
                [orthogonal((h, h), self._rng) for _ in range(4)], axis=1
            ),
            "bias": bias,
        }
        super().build(input_shape)

    def forward(self, x: np.ndarray, training: bool = False) -> np.ndarray:
        """Run the recurrence over all timesteps.

        With ``training=True`` the activations needed by :meth:`backward`
        are cached; with ``training=False`` (inference) the fast path
        keeps no history beyond the rolling hidden/cell state.
        """
        self.ensure_built(x.shape)
        if self.go_backwards:
            x = x[:, ::-1, :]
        w_full = fuse_weights(self.parameters)[None]       # D = 1
        xs = np.ascontiguousarray(np.transpose(x, (1, 0, 2)))[None]

        if training:
            hiddens, self._cache = _train_forward(w_full, xs)
            output = np.transpose(hiddens[0], (1, 0, 2))
            if not self.return_sequences:
                # The final state is the last *processing* step's hidden
                # state, matching backward()'s grad placement.
                return output[:, -1, :].copy()
            if self.go_backwards:
                output = output[:, ::-1, :]
            return output

        hiddens, h_final = _infer_forward(w_full, xs, self.return_sequences)
        self._cache = None
        if not self.return_sequences:
            return h_final[0]
        output = np.transpose(hiddens[0], (1, 0, 2))
        if self.go_backwards:
            output = output[:, ::-1, :]
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
        _, steps, batch, _ = cache["gates"].shape
        h = self.units

        # Normalize the upstream gradient to per-(processing)step layout.
        if self.return_sequences:
            grad_seq = grad_output
            if self.go_backwards:
                grad_seq = grad_seq[:, ::-1, :]
            grad_h_steps = np.empty((1, steps, batch, h))
            grad_h_steps[0] = np.transpose(grad_seq, (1, 0, 2))
        else:
            grad_h_steps = np.zeros((1, steps, batch, h))
            grad_h_steps[0, -1] = grad_output

        d_x, d_wx, d_wh, d_b = _fused_backward(
            cache, grad_h_steps, compute_input_grad
        )
        self.gradients = {"kernel": d_wx[0], "recurrent": d_wh[0], "bias": d_b[0]}
        if not compute_input_grad:
            return None
        d_x = np.transpose(d_x[0], (1, 0, 2))
        if self.go_backwards:
            d_x = d_x[:, ::-1, :]
        return d_x
