"""Tests for losses, optimizers, the Model container and serialization."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.nn.activations import get_activation
from repro.nn.callbacks import EarlyStopping, History
from repro.nn.layers.dense import Dense
from repro.nn.layers.lstm import LSTM
from repro.nn.losses import (
    BinaryCrossEntropy,
    JointPredictionQuantizationLoss,
    MeanSquaredError,
)
from repro.nn.model import Model
from repro.nn.optimizers import SGD, Adam

RNG = np.random.default_rng(7)


class TestLosses:
    def test_mse_known_value(self):
        loss = MeanSquaredError()
        assert loss.value(np.array([[1.0, 2.0]]), np.array([[1.0, 4.0]])) == pytest.approx(2.0)

    def test_mse_gradient_matches_finite_difference(self):
        loss = MeanSquaredError()
        y = RNG.standard_normal((3, 4))
        p = RNG.standard_normal((3, 4))
        grad = loss.gradient(y, p)
        eps = 1e-6
        p2 = p.copy()
        p2[1, 2] += eps
        numeric = (loss.value(y, p2) - loss.value(y, p)) / eps
        assert grad[1, 2] == pytest.approx(numeric, rel=1e-4)

    def test_bce_perfect_prediction_is_near_zero(self):
        loss = BinaryCrossEntropy()
        z = np.array([[0.0, 1.0, 1.0]])
        assert loss.value(z, z.copy()) < 1e-6

    def test_bce_gradient_matches_finite_difference(self):
        loss = BinaryCrossEntropy()
        z = np.array([[0.0, 1.0], [1.0, 0.0]])
        p = np.array([[0.3, 0.8], [0.6, 0.2]])
        grad = loss.gradient(z, p)
        eps = 1e-7
        p2 = p.copy()
        p2[0, 1] += eps
        numeric = (loss.value(z, p2) - loss.value(z, p)) / eps
        assert grad[0, 1] == pytest.approx(numeric, rel=1e-3)

    def test_bce_clips_extreme_predictions(self):
        loss = BinaryCrossEntropy()
        value = loss.value(np.array([[1.0]]), np.array([[0.0]]))
        assert np.isfinite(value)

    def test_joint_loss_interpolates(self):
        y = RNG.standard_normal((2, 3))
        y_hat = RNG.standard_normal((2, 3))
        z = (RNG.uniform(size=(2, 4)) > 0.5).astype(float)
        z_hat = RNG.uniform(0.1, 0.9, size=(2, 4))
        mse_only = JointPredictionQuantizationLoss(theta=1.0)
        bce_only = JointPredictionQuantizationLoss(theta=0.0)
        mixed = JointPredictionQuantizationLoss(theta=0.5)
        total_mixed = mixed.value(y, y_hat, z, z_hat)
        expected = 0.5 * mse_only.value(y, y_hat, z, z_hat) + 0.5 * bce_only.value(
            y, y_hat, z, z_hat
        )
        assert total_mixed == pytest.approx(expected)

    def test_joint_loss_gradients_scale_with_theta(self):
        y = RNG.standard_normal((2, 3))
        y_hat = RNG.standard_normal((2, 3))
        z = np.ones((2, 4))
        z_hat = np.full((2, 4), 0.5)
        grad_y, grad_z = JointPredictionQuantizationLoss(theta=0.9).gradients(
            y, y_hat, z, z_hat
        )
        assert grad_y.shape == y_hat.shape
        assert grad_z.shape == z_hat.shape

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            MeanSquaredError().value(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigurationError):
            JointPredictionQuantizationLoss(theta=1.5)


class TestOptimizers:
    def test_sgd_step_direction(self):
        param = np.array([1.0, 1.0])
        grad = np.array([1.0, -1.0])
        SGD(learning_rate=0.1).apply([(param, grad)])
        np.testing.assert_allclose(param, [0.9, 1.1])

    def test_sgd_momentum_accumulates(self):
        plain_param = np.array([1.0])
        momentum_param = np.array([1.0])
        grad = np.array([1.0])
        sgd = SGD(learning_rate=0.1)
        momentum = SGD(learning_rate=0.1, momentum=0.9)
        for _ in range(3):
            sgd.apply([(plain_param, grad)])
            momentum.apply([(momentum_param, grad)])
        assert momentum_param[0] < plain_param[0]

    def test_adam_first_step_magnitude(self):
        # Adam's bias-corrected first step is ~learning_rate regardless of
        # gradient scale.
        param = np.array([0.0])
        Adam(learning_rate=0.01).apply([(param, np.array([1000.0]))])
        assert param[0] == pytest.approx(-0.01, rel=1e-3)

    def test_adam_state_is_per_parameter(self):
        a, b = np.array([0.0]), np.array([0.0])
        opt = Adam(learning_rate=0.1)
        opt.apply([(a, np.array([1.0])), (b, np.array([-1.0]))])
        assert a[0] < 0 < b[0]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            SGD().apply([(np.zeros(2), np.zeros(3))])

    def test_minimizes_quadratic(self):
        param = np.array([5.0])
        opt = Adam(learning_rate=0.2)
        for _ in range(200):
            opt.apply([(param, 2 * param)])
        assert abs(param[0]) < 1e-2


class TestModel:
    def _regression_problem(self, n=256):
        x = RNG.standard_normal((n, 3))
        true_w = np.array([[1.0], [-2.0], [0.5]])
        y = x @ true_w + 0.3
        return x, y

    def test_learns_linear_regression(self):
        x, y = self._regression_problem()
        model = Model([Dense(1, seed=0)], optimizer=Adam(learning_rate=0.05))
        model.fit(x, y, epochs=60, batch_size=32)
        assert model.evaluate(x, y) < 1e-3

    def test_learns_nonlinear_function(self):
        x = RNG.uniform(-1, 1, size=(512, 1))
        y = np.sin(3 * x)
        model = Model(
            [Dense(32, activation="tanh", seed=1), Dense(1, seed=2)],
            optimizer=Adam(learning_rate=0.01),
        )
        model.fit(x, y, epochs=150, batch_size=64)
        assert model.evaluate(x, y) < 0.01

    def test_lstm_learns_sequence_mean(self):
        x = RNG.standard_normal((256, 6, 1))
        y = x.mean(axis=1)
        model = Model(
            [LSTM(8, return_sequences=False, seed=3), Dense(1, seed=4)],
            optimizer=Adam(learning_rate=0.02),
        )
        model.fit(x, y, epochs=60, batch_size=32)
        assert model.evaluate(x, y) < 0.02

    def test_history_records_losses(self):
        x, y = self._regression_problem(64)
        model = Model([Dense(1, seed=5)])
        history = model.fit(x, y, epochs=5, batch_size=16)
        assert len(history.epochs) == 5
        assert "loss" in history.metrics

    def test_validation_loss_recorded(self):
        x, y = self._regression_problem(64)
        model = Model([Dense(1, seed=6)])
        history = model.fit(x, y, epochs=3, validation_data=(x, y))
        assert len(history.metrics["val_loss"]) == 3

    def test_early_stopping_halts(self):
        x, y = self._regression_problem(64)
        model = Model([Dense(1, seed=7)], optimizer=SGD(learning_rate=1e-12))
        history = model.fit(
            x, y, epochs=100, early_stopping=EarlyStopping(patience=3, min_delta=1e-6)
        )
        assert len(history.epochs) < 100

    def test_training_is_deterministic(self):
        x, y = self._regression_problem(64)

        def run():
            model = Model([Dense(1, seed=8)], optimizer=Adam(learning_rate=0.01))
            model.fit(x, y, epochs=3, shuffle_seed=5)
            return model.predict(x)

        np.testing.assert_array_equal(run(), run())

    def test_save_load_round_trip(self, tmp_path):
        x, y = self._regression_problem(64)
        model = Model([Dense(4, activation="relu", seed=9), Dense(1, seed=10)])
        model.fit(x, y, epochs=2)
        before = model.predict(x)
        path = tmp_path / "weights.npz"
        model.save(path)

        clone = Model([Dense(4, activation="relu", seed=11), Dense(1, seed=12)])
        clone.forward(x[:1])  # build
        clone.load(path)
        np.testing.assert_allclose(clone.predict(x), before)

    def test_load_mismatched_architecture_rejected(self, tmp_path):
        model = Model([Dense(4, seed=0)])
        model.forward(RNG.standard_normal((2, 3)))
        path = tmp_path / "w.npz"
        model.save(path)
        other = Model([Dense(5, seed=1)])
        other.forward(RNG.standard_normal((2, 3)))
        with pytest.raises(ConfigurationError):
            other.load(path)

    def test_get_set_weights_round_trip(self):
        x, y = self._regression_problem(32)
        model = Model([Dense(1, seed=13)])
        model.fit(x, y, epochs=1)
        weights = model.get_weights()
        before = model.predict(x)
        model.fit(x, y, epochs=3)
        model.set_weights(weights)
        np.testing.assert_allclose(model.predict(x), before)

    def test_empty_model_rejected(self):
        with pytest.raises(ConfigurationError):
            Model([])


class TestCallbacksAndActivations:
    def test_history_best(self):
        history = History()
        history.record(0, loss=1.0)
        history.record(1, loss=0.5)
        history.record(2, loss=0.7)
        assert history.best("loss") == 0.5
        assert history.last("loss") == 0.7

    def test_early_stopping_tracks_best_epoch(self):
        stopper = EarlyStopping(patience=2)
        assert not stopper.update(0, 1.0)
        assert not stopper.update(1, 0.5)
        assert not stopper.update(2, 0.6)
        assert stopper.update(3, 0.7)
        assert stopper.best_epoch == 1

    def test_unknown_activation_rejected(self):
        with pytest.raises(ConfigurationError):
            get_activation("swishh")

    def test_activation_instance_passthrough(self):
        from repro.nn.activations import Tanh

        instance = Tanh()
        assert get_activation(instance) is instance
