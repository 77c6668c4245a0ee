"""Crash-safe training: checkpoint/resume determinism and the divergence watchdog."""

import numpy as np
import pytest

from repro.core.model import CHECKPOINT_FILENAME, PredictionQuantizationModel
from repro.exceptions import ArtifactMismatchError, TrainingDivergedError
from repro.nn.callbacks import EarlyStopping
from repro.probing.dataset import KeyGenDataset

SEQ = 8
KEY_BITS = 16


def make_dataset(n=32, seed=0) -> KeyGenDataset:
    rng = np.random.default_rng(seed)
    alice_raw = rng.normal(-80.0, 5.0, size=(n, SEQ))
    bob_raw = alice_raw + rng.normal(0.0, 1.0, size=(n, SEQ))

    def norm(rows):
        mean = rows.mean(axis=1, keepdims=True)
        std = np.maximum(rows.std(axis=1, keepdims=True), 1e-6)
        return (rows - mean) / std

    return KeyGenDataset(
        alice=norm(alice_raw),
        bob=norm(bob_raw),
        alice_raw=alice_raw,
        bob_raw=bob_raw,
    )


def make_model(seed=1) -> PredictionQuantizationModel:
    return PredictionQuantizationModel(
        seq_len=SEQ, hidden_units=4, key_bits=KEY_BITS, seed=seed
    )


def weights_of(model):
    return [layer.get_weights() for layer in model.layers]


def assert_weights_equal(a, b):
    for layer_a, layer_b in zip(a, b):
        assert set(layer_a) == set(layer_b)
        for key in layer_a:
            np.testing.assert_array_equal(layer_a[key], layer_b[key])


class TestResumeDeterminism:
    EPOCHS = 5
    CRASH_AFTER = 2

    @pytest.fixture(scope="class")
    def straight_run(self):
        model = make_model()
        report = model.fit(make_dataset(), epochs=self.EPOCHS, batch_size=8)
        return model, report

    def test_kill_and_resume_reproduces_weights_bit_for_bit(
        self, straight_run, tmp_path
    ):
        model_straight, report_straight = straight_run
        dataset = make_dataset()

        crashed = make_model()
        crashed.fit(
            dataset,
            epochs=self.CRASH_AFTER,
            batch_size=8,
            checkpoint_dir=tmp_path,
        )

        resumed = make_model()
        report = resumed.fit(
            dataset,
            epochs=self.EPOCHS,
            batch_size=8,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert report.resumed_from_epoch == self.CRASH_AFTER
        assert_weights_equal(weights_of(model_straight), weights_of(resumed))

    def test_resumed_history_matches_straight_run(self, straight_run, tmp_path):
        _, report_straight = straight_run
        dataset = make_dataset()
        make_model().fit(
            dataset, epochs=self.CRASH_AFTER, batch_size=8, checkpoint_dir=tmp_path
        )
        resumed = make_model()
        report = resumed.fit(
            dataset,
            epochs=self.EPOCHS,
            batch_size=8,
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert report.history.epochs == report_straight.history.epochs
        assert report.history.metrics["loss"] == report_straight.history.metrics["loss"]

    def test_resume_with_early_stopping_and_validation(self, tmp_path):
        dataset = make_dataset()
        validation = make_dataset(n=16, seed=9)

        straight = make_model()
        straight.fit(
            dataset,
            validation,
            epochs=self.EPOCHS,
            batch_size=8,
            early_stopping=EarlyStopping(patience=3),
        )

        make_model().fit(
            dataset,
            validation,
            epochs=self.CRASH_AFTER,
            batch_size=8,
            early_stopping=EarlyStopping(patience=3),
            checkpoint_dir=tmp_path,
        )
        resumed = make_model()
        resumed.fit(
            dataset,
            validation,
            epochs=self.EPOCHS,
            batch_size=8,
            early_stopping=EarlyStopping(patience=3),
            checkpoint_dir=tmp_path,
            resume=True,
        )
        assert_weights_equal(weights_of(straight), weights_of(resumed))

    def test_resume_without_checkpoint_starts_fresh(self, tmp_path):
        model = make_model()
        report = model.fit(
            make_dataset(),
            epochs=2,
            batch_size=8,
            checkpoint_dir=tmp_path / "empty",
            resume=True,
        )
        assert report.resumed_from_epoch is None
        assert report.epochs_run == 2

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(Exception, match="checkpoint_dir"):
            make_model().fit(make_dataset(), epochs=1, resume=True)

    def test_wrong_architecture_checkpoint_rejected(self, tmp_path):
        make_model().fit(
            make_dataset(), epochs=1, batch_size=8, checkpoint_dir=tmp_path
        )
        other = PredictionQuantizationModel(
            seq_len=SEQ, hidden_units=6, key_bits=KEY_BITS, seed=1
        )
        with pytest.raises(ArtifactMismatchError, match="hidden_units"):
            other.fit(
                make_dataset(),
                epochs=2,
                batch_size=8,
                checkpoint_dir=tmp_path,
                resume=True,
            )

    def test_checkpoint_file_lands_in_checkpoint_dir(self, tmp_path):
        make_model().fit(
            make_dataset(), epochs=1, batch_size=8, checkpoint_dir=tmp_path
        )
        assert (tmp_path / CHECKPOINT_FILENAME).exists()


class TestEarlyStoppingReset:
    def test_reused_instance_does_not_stop_immediately(self):
        stopper = EarlyStopping(patience=2)
        # First run drives best_value very low and exhausts patience.
        assert stopper.update(0, 0.001) is False
        assert stopper.update(1, 0.5) is False
        assert stopper.update(2, 0.5) is True
        # A reused instance would stop the next run instantly; fit() resets.
        model = make_model()
        report = model.fit(
            make_dataset(),
            validation=make_dataset(n=16, seed=9),
            epochs=3,
            batch_size=8,
            early_stopping=stopper,
        )
        assert report.epochs_run == 3

    def test_reset_clears_state(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0, 0.1)
        stopper.reset()
        assert stopper.best_value is None
        assert stopper.best_epoch == -1

    def test_nn_model_fit_also_resets(self):
        from repro.nn.layers.dense import Dense
        from repro.nn.model import Model

        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 4))
        y = x @ rng.normal(size=(4, 1))
        stopper = EarlyStopping(patience=2)
        stopper.update(0, 1e-9)  # poisoned state from a previous run
        stopper.update(1, 1.0)
        model = Model([Dense(1, seed=0)])
        history = model.fit(
            x, y, epochs=3, validation_data=(x, y), early_stopping=stopper
        )
        assert len(history.epochs) == 3


class TestDivergenceWatchdog:
    def test_nan_batch_triggers_rollback_not_weight_poisoning(self, monkeypatch):
        model = make_model()
        dataset = make_dataset()
        real_value = model.loss.value
        calls = {"n": 0}

        def poisoned(y_true, y_hat, z_true, z_hat):
            calls["n"] += 1
            if calls["n"] == 6:  # a mid-training batch goes NaN once
                return float("nan")
            return real_value(y_true, y_hat, z_true, z_hat)

        monkeypatch.setattr(model.loss, "value", poisoned)
        report = model.fit(dataset, epochs=3, batch_size=8)
        assert report.divergence_rollbacks == 1
        for layer_weights in weights_of(model):
            for value in layer_weights.values():
                assert np.isfinite(value).all()

    def test_rollback_reduces_learning_rate_and_retries(self, monkeypatch):
        model = make_model()
        real_value = model.loss.value
        calls = {"n": 0}

        def poisoned(y_true, y_hat, z_true, z_hat):
            calls["n"] += 1
            if calls["n"] in (2, 7):  # diverge twice, then recover
                return float("inf")
            return real_value(y_true, y_hat, z_true, z_hat)

        monkeypatch.setattr(model.loss, "value", poisoned)
        report = model.fit(
            make_dataset(), epochs=3, batch_size=8,
            max_divergence_retries=2,
        )
        assert report.divergence_rollbacks == 2
        assert report.epochs_run == 3

    def test_retry_budget_exhaustion_raises(self, monkeypatch):
        model = make_model()
        monkeypatch.setattr(
            model.loss, "value", lambda *args, **kwargs: float("nan")
        )
        with pytest.raises(TrainingDivergedError, match="retry"):
            model.fit(make_dataset(), epochs=3, batch_size=8,
                      max_divergence_retries=1)


class TestDefaultPathUnchanged:
    def test_checkpointing_does_not_change_training_results(self, tmp_path):
        plain = make_model()
        plain.fit(make_dataset(), epochs=3, batch_size=8)
        checkpointed = make_model()
        checkpointed.fit(
            make_dataset(), epochs=3, batch_size=8, checkpoint_dir=tmp_path
        )
        assert_weights_equal(weights_of(plain), weights_of(checkpointed))
