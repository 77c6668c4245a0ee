"""Numerical gradient checks for every trainable layer.

Each check compares the analytic backward pass against central finite
differences of a scalar objective ``sum(output * probe)`` -- the strongest
correctness evidence a hand-written backprop can get.
"""

import numpy as np
import pytest

from repro.nn.layers.bilstm import BiLSTM
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTM

RNG = np.random.default_rng(1234)
EPS = 1e-6
TOL = 1e-5


def numeric_param_grad(layer, x, probe, param_key):
    param = layer.parameters[param_key]
    grad = np.zeros_like(param)
    flat = param.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = float(np.sum(layer.forward(x) * probe))
        flat[i] = original - EPS
        minus = float(np.sum(layer.forward(x) * probe))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


def numeric_input_grad(layer, x, probe):
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + EPS
        plus = float(np.sum(layer.forward(x) * probe))
        flat[i] = original - EPS
        minus = float(np.sum(layer.forward(x) * probe))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * EPS)
    return grad


def check_layer(layer, x):
    out = layer.forward(x)
    probe = RNG.standard_normal(out.shape)
    # The analytic pass needs training=True: the recurrent layers'
    # inference fast path skips the backward cache entirely.
    layer.forward(x, training=True)
    analytic_input = layer.backward(probe)
    analytic_params = {k: v.copy() for k, v in layer.gradients.items()}

    numeric_input = numeric_input_grad(layer, x, probe)
    np.testing.assert_allclose(analytic_input, numeric_input, atol=TOL, rtol=1e-4)
    for key in layer.parameters:
        numeric = numeric_param_grad(layer, x, probe, key)
        np.testing.assert_allclose(
            analytic_params[key], numeric, atol=TOL, rtol=1e-4,
            err_msg=f"parameter {key}",
        )


class TestDenseGradients:
    def test_linear(self):
        check_layer(Dense(3, seed=0), RNG.standard_normal((4, 5)))

    def test_sigmoid(self):
        check_layer(Dense(3, activation="sigmoid", seed=1), RNG.standard_normal((4, 5)))

    def test_tanh(self):
        check_layer(Dense(2, activation="tanh", seed=2), RNG.standard_normal((3, 4)))

    def test_relu(self):
        # Keep inputs away from the ReLU kink for finite differences.
        x = RNG.standard_normal((4, 5))
        x[np.abs(x) < 0.1] = 0.5
        layer = Dense(3, activation="relu", seed=3)
        layer.forward(x)
        check_layer(layer, x)

    def test_time_distributed(self):
        check_layer(Dense(3, seed=4), RNG.standard_normal((2, 6, 4)))


class TestLSTMGradients:
    def test_return_sequences(self):
        check_layer(LSTM(4, return_sequences=True, seed=0), RNG.standard_normal((3, 5, 2)))

    def test_last_state_only(self):
        check_layer(LSTM(3, return_sequences=False, seed=1), RNG.standard_normal((2, 4, 2)))

    def test_go_backwards(self):
        check_layer(
            LSTM(3, return_sequences=True, go_backwards=True, seed=2),
            RNG.standard_normal((2, 4, 2)),
        )

    def test_go_backwards_last_state(self):
        check_layer(
            LSTM(3, return_sequences=False, go_backwards=True, seed=3),
            RNG.standard_normal((2, 4, 2)),
        )


class TestBiLSTMGradients:
    def test_return_sequences(self):
        check_layer(BiLSTM(3, return_sequences=True, seed=0), RNG.standard_normal((2, 4, 2)))

    def test_final_states(self):
        check_layer(BiLSTM(2, return_sequences=False, seed=1), RNG.standard_normal((2, 3, 2)))


class TestShapes:
    def test_bilstm_output_width_is_twice_units(self):
        layer = BiLSTM(5, seed=0)
        out = layer.forward(RNG.standard_normal((2, 4, 3)))
        assert out.shape == (2, 4, 10)

    def test_lstm_rejects_2d_input(self):
        from repro.exceptions import ConfigurationError

        with pytest.raises(ConfigurationError):
            LSTM(3).forward(RNG.standard_normal((4, 5)))
