"""Corrupted / mismatched persisted files raise typed errors everywhere.

One matrix: {model, reconciler, probe trace, dataset} x {truncated file,
tampered payload, wrong architecture or kind}.  Silent partial loads are
also covered: stored weights matching no layer must be rejected.
"""

import numpy as np
import pytest

from repro.exceptions import (
    ArtifactMismatchError,
    ConfigurationError,
    CorruptArtifactError,
)
from repro.core.model import PredictionQuantizationModel
from repro.lora.airtime import LoRaPHYConfig
from repro.probing.dataset import KeyGenDataset
from repro.probing.trace import ProbeTrace
from repro.reconciliation.autoencoder import AutoencoderReconciliation
from repro.utils.artifact import HEADER_KEY


def truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def tamper(path):
    """Flip one payload array value, keeping the container well-formed."""
    loaded = dict(np.load(path).items())
    for key in sorted(loaded):
        if key == HEADER_KEY:
            continue
        value = np.array(loaded[key])
        if value.size and value.dtype != np.bool_:
            value.flat[0] = value.flat[0] + 1
            loaded[key] = value
            break
    np.savez_compressed(path, **loaded)


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    model = PredictionQuantizationModel(
        seq_len=8, hidden_units=4, key_bits=16, seed=1
    )
    rng = np.random.default_rng(0)
    alice_raw = rng.normal(-80.0, 5.0, size=(16, 8))
    bob_raw = alice_raw + rng.normal(0.0, 1.0, size=(16, 8))

    def norm(rows):
        mean = rows.mean(axis=1, keepdims=True)
        std = np.maximum(rows.std(axis=1, keepdims=True), 1e-6)
        return (rows - mean) / std

    dataset = KeyGenDataset(
        alice=norm(alice_raw), bob=norm(bob_raw),
        alice_raw=alice_raw, bob_raw=bob_raw,
    )
    model.fit(dataset, epochs=1, batch_size=8)
    return model


@pytest.fixture(scope="module")
def trained_reconciler():
    reconciler = AutoencoderReconciliation(
        key_bits=16, code_dim=8, decoder_units=8, decoder_hidden_layers=1, seed=2
    )
    reconciler.fit(n_samples=128, epochs=1, batch_size=64)
    return reconciler


@pytest.fixture
def trace():
    rng = np.random.default_rng(4)
    return ProbeTrace(
        phy=LoRaPHYConfig(),
        alice_rssi=rng.normal(-90, 3, size=(6, 4)),
        bob_rssi=rng.normal(-90, 3, size=(6, 4)),
        round_start_s=np.arange(6.0),
        valid=np.ones(6, dtype=bool),
    )


@pytest.fixture
def dataset():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(4, 8))
    return KeyGenDataset(alice=rows, bob=rows, alice_raw=rows, bob_raw=rows)


class TestModelArtifacts:
    def test_truncated(self, trained_model, tmp_path):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        truncate(path)
        fresh = trained_model.clone_architecture(seed=0)
        with pytest.raises(CorruptArtifactError):
            fresh.load(path)

    def test_tampered(self, trained_model, tmp_path):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        tamper(path)
        fresh = trained_model.clone_architecture(seed=0)
        with pytest.raises(CorruptArtifactError, match="SHA-256"):
            fresh.load(path)

    def test_wrong_architecture(self, trained_model, tmp_path):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        other = PredictionQuantizationModel(
            seq_len=8, hidden_units=12, key_bits=16, seed=0
        )
        with pytest.raises(ArtifactMismatchError, match="hidden_units"):
            other.load(path)

    def test_wrong_kind(self, trained_model, dataset, tmp_path):
        path = tmp_path / "not-a-model.npz"
        dataset.save(path)
        fresh = trained_model.clone_architecture(seed=0)
        with pytest.raises(ArtifactMismatchError, match="keygen-dataset"):
            fresh.load(path)

    def test_round_trip_still_works(self, trained_model, tmp_path):
        path = tmp_path / "model.npz"
        trained_model.save(path)
        fresh = trained_model.clone_architecture(seed=0)
        fresh.load(path)
        probe = np.zeros((1, trained_model.seq_len))
        np.testing.assert_array_equal(
            fresh.predict_bit_probabilities(probe),
            trained_model.predict_bit_probabilities(probe),
        )
        assert fresh.training_stats == trained_model.training_stats


class TestReconcilerArtifacts:
    def fresh(self):
        return AutoencoderReconciliation(
            key_bits=16, code_dim=8, decoder_units=8,
            decoder_hidden_layers=1, seed=7,
        )

    def test_truncated(self, trained_reconciler, tmp_path):
        path = tmp_path / "reconciler.npz"
        trained_reconciler.save(path)
        truncate(path)
        with pytest.raises(CorruptArtifactError):
            self.fresh().load(path)

    def test_tampered(self, trained_reconciler, tmp_path):
        path = tmp_path / "reconciler.npz"
        trained_reconciler.save(path)
        tamper(path)
        with pytest.raises(CorruptArtifactError, match="SHA-256"):
            self.fresh().load(path)

    def test_wrong_architecture(self, trained_reconciler, tmp_path):
        path = tmp_path / "reconciler.npz"
        trained_reconciler.save(path)
        other = AutoencoderReconciliation(
            key_bits=16, code_dim=12, decoder_units=8,
            decoder_hidden_layers=1, seed=7,
        )
        with pytest.raises(ArtifactMismatchError, match="code_dim"):
            other.load(path)

    def test_round_trip_still_works(self, trained_reconciler, tmp_path):
        path = tmp_path / "reconciler.npz"
        trained_reconciler.save(path)
        fresh = self.fresh()
        fresh.load(path)
        key = np.zeros(16, dtype=np.uint8)
        np.testing.assert_allclose(
            fresh.bob_syndrome(key), trained_reconciler.bob_syndrome(key)
        )


class TestTraceArtifacts:
    def test_truncated(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        truncate(path)
        with pytest.raises(CorruptArtifactError):
            ProbeTrace.load(path)

    def test_tampered(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        trace.save(path)
        tamper(path)
        with pytest.raises(CorruptArtifactError, match="SHA-256"):
            ProbeTrace.load(path)

    def test_wrong_kind(self, dataset, tmp_path):
        path = tmp_path / "not-a-trace.npz"
        dataset.save(path)
        with pytest.raises(ArtifactMismatchError, match="keygen-dataset"):
            ProbeTrace.load(path)


class TestDatasetArtifacts:
    def test_truncated(self, dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        dataset.save(path)
        truncate(path)
        with pytest.raises(CorruptArtifactError):
            KeyGenDataset.load(path)

    def test_tampered(self, dataset, tmp_path):
        path = tmp_path / "dataset.npz"
        dataset.save(path)
        tamper(path)
        with pytest.raises(CorruptArtifactError, match="SHA-256"):
            KeyGenDataset.load(path)

    def test_wrong_kind(self, trace, tmp_path):
        path = tmp_path / "not-a-dataset.npz"
        trace.save(path)
        with pytest.raises(ArtifactMismatchError, match="probe-trace"):
            KeyGenDataset.load(path)

    def test_plain_npz_dataset_rejected(self, dataset, tmp_path):
        path = tmp_path / "plain.npz"
        np.savez_compressed(
            path, alice=dataset.alice, bob=dataset.bob,
            alice_raw=dataset.alice_raw, bob_raw=dataset.bob_raw,
        )
        with pytest.raises(ArtifactMismatchError, match="integrity header"):
            KeyGenDataset.load(path)


class TestNoSilentPartialLoads:
    def test_orphan_stored_weights_rejected(self):
        from repro.nn.layers.dense import Dense
        from repro.nn.serialization import assign_weights, weight_arrays

        deep = [Dense(4, seed=0, name="a"), Dense(2, seed=0, name="b")]
        x = np.zeros((1, 3))
        deep[1].forward(deep[0].forward(x))
        stored = weight_arrays(deep)

        shallow = [Dense(4, seed=1, name="a")]
        shallow[0].forward(x)
        with pytest.raises(ConfigurationError, match="match no layer"):
            assign_weights(shallow, stored)

    def test_matching_weights_still_assign(self):
        from repro.nn.layers.dense import Dense
        from repro.nn.serialization import assign_weights, weight_arrays

        src = [Dense(4, seed=0, name="a")]
        src[0].forward(np.zeros((1, 3)))
        dst = [Dense(4, seed=1, name="a")]
        dst[0].forward(np.zeros((1, 3)))
        assign_weights(dst, weight_arrays(src))
        np.testing.assert_array_equal(
            dst[0].parameters["kernel"], src[0].parameters["kernel"]
        )
