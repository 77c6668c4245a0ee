"""Consensus extraction and the multi-bit quantizer against their oracle.

``KeyAgreementSession.extract_detail`` works on whole ``[window,
sample]`` matrices: Bob's windows are quantized in one pass of
``MultiBitQuantizer.quantize_rows``, the keep-masks are matrices, and
the model path and the guard-degraded path share one body.
``tests/oracles/extraction.py`` keeps the per-window extraction and the
per-call quantizer as they stood before; these tests require every
``ExtractionDetail`` field to match it exactly, on real tiny-pipeline
datasets and on drawn windows with ties, constant rows, NaN and inf.

One deliberate difference: a window holding a non-finite value is no
longer quantized.  It keeps no sample, where the old quantizer produced
bits from NaN arithmetic.  Bob's windows are register readings and
always finite, and the old extraction already dropped Alice's
non-finite windows, so extraction outcomes do not move.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.guard import InferenceGuard, WindowStatistics
from repro.core.model import PredictionQuantizationModel
from repro.core.session import KeyAgreementSession
from repro.exceptions import ConfigurationError
from repro.probing.dataset import KeyGenDataset, build_dataset
from repro.probing.features import arrssi_sequences
from repro.quantization.multibit import MultiBitQuantizer
from tests.oracles.extraction import (
    assert_details_equal,
    reference_extract_detail,
    reference_quantize,
)

ROW_KINDS = ("normal", "ties", "constant", "nan", "inf")


def draw_windows(data, n_levels, kinds=ROW_KINDS):
    """A ``[W, L]`` window matrix whose rows are drawn from ``kinds``."""
    n_windows = data.draw(st.integers(1, 5), label="windows")
    length = data.draw(st.integers(n_levels, 24), label="length")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    windows = rng.normal(-80.0, 4.0, size=(n_windows, length))
    for row in windows:
        kind = data.draw(st.sampled_from(kinds))
        if kind == "ties":
            row[:] = np.round(row / 4.0) * 4.0
        elif kind == "constant":
            row[:] = row[0]
        elif kind == "nan":
            row[rng.integers(length)] = np.nan
        elif kind == "inf":
            row[rng.integers(length)] = rng.choice([np.inf, -np.inf])
    return windows


quantizers = st.builds(
    MultiBitQuantizer,
    bits_per_sample=st.integers(1, 4),
    guard_band_fraction=st.sampled_from([0.0, 0.3]),
    fixed_thresholds=st.booleans(),
)


class TestQuantizerOracle:
    @given(quantizer=quantizers, data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_window_oracle(self, quantizer, data):
        windows = draw_windows(data, quantizer.n_levels)
        codes, kept = quantizer.quantize_rows(windows)
        assert codes.dtype == np.uint8
        for row, row_codes, row_kept in zip(windows, codes, kept):
            result = quantizer.quantize(row)
            np.testing.assert_array_equal(result.kept, row_kept)
            np.testing.assert_array_equal(
                result.bits, row_codes[row_kept].reshape(-1)
            )
            if not np.isfinite(row).all():
                assert not row_kept.any() and result.bits.size == 0
                continue
            expected = reference_quantize(quantizer, row)
            assert expected.bits.dtype == result.bits.dtype
            np.testing.assert_array_equal(expected.bits, result.bits)
            np.testing.assert_array_equal(expected.kept, result.kept)

    def test_window_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiBitQuantizer(bits_per_sample=3).quantize_rows(np.zeros((2, 4)))


def drawn_session(
    bits_per_sample, fixed_thresholds, seq_len, guard_fraction, guard, margin=0.15
):
    """A session over an untrained model with the drawn quantizer layout."""
    model = PredictionQuantizationModel(
        seq_len=seq_len,
        hidden_units=2,
        key_bits=seq_len * bits_per_sample,
        bob_quantizer=MultiBitQuantizer(
            bits_per_sample, fixed_thresholds=fixed_thresholds
        ),
    )
    return KeyAgreementSession(
        model,
        reconciler=None,
        alice_confidence_margin=margin,
        bob_guard_fraction=guard_fraction,
        inference_guard=guard,
    )


def dataset_of(alice_raw, bob_raw):
    """A dataset over raw windows (the normalized views are unused here)."""
    return KeyGenDataset(
        alice=np.zeros_like(alice_raw),
        bob=np.zeros_like(bob_raw),
        alice_raw=alice_raw,
        bob_raw=bob_raw,
    )


class TestDrawnExtraction:
    @given(
        bits_per_sample=st.integers(1, 4),
        fixed_thresholds=st.booleans(),
        guard_fraction=st.sampled_from([0.0, 0.3]),
        margin=st.sampled_from([0.0, 0.125]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_model_path_matches_oracle(
        self, bits_per_sample, fixed_thresholds, guard_fraction, margin, data
    ):
        bob_raw = draw_windows(data, 1 << bits_per_sample, ("normal", "ties", "constant"))
        n_windows, seq_len = bob_raw.shape
        session = drawn_session(
            bits_per_sample, fixed_thresholds, seq_len, guard_fraction, None, margin
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        probs = rng.uniform(0.0, 1.0, size=(n_windows, seq_len * bits_per_sample))
        # Outputs exactly on the decision and margin thresholds (the
        # margins are dyadic, so 0.5 +/- margin is exact).
        edges = rng.choice([0.5, 0.5 + margin, 0.5 - margin], size=probs.shape)
        probs = np.where(rng.random(probs.shape) < 0.2, edges, probs)
        dataset = dataset_of(bob_raw + rng.normal(0.0, 1.0, bob_raw.shape), bob_raw)
        assert_details_equal(
            reference_extract_detail(session, dataset, probs),
            session.extract_detail(dataset, alice_probabilities=probs),
        )

    @given(
        bits_per_sample=st.integers(1, 4),
        fixed_thresholds=st.booleans(),
        guard_fraction=st.sampled_from([0.0, 0.3]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_degraded_path_matches_oracle(
        self, bits_per_sample, fixed_thresholds, guard_fraction, data
    ):
        alice_raw = draw_windows(data, 1 << bits_per_sample)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        bob_raw = np.where(
            np.isfinite(alice_raw),
            alice_raw + rng.normal(0.0, 1.0, alice_raw.shape),
            -80.0,
        )
        # A guard trained 1000 dB away flags every window: the batch is
        # rejected and Alice falls back to her own quantizer.
        guard = InferenceGuard(
            WindowStatistics.from_windows(rng.normal(1000.0, 1.0, (4, bob_raw.shape[1])))
        )
        session = drawn_session(
            bits_per_sample, fixed_thresholds, bob_raw.shape[1], guard_fraction, guard
        )
        dataset = dataset_of(alice_raw, bob_raw)
        expected = reference_extract_detail(session, dataset)
        assert expected.degraded
        assert_details_equal(expected, session.extract_detail(dataset))


class TestPipelineExtraction:
    """Real tiny-pipeline datasets: the model path and a degraded batch."""

    @pytest.fixture(scope="class")
    def datasets(self, tiny_pipeline):
        built = []
        for label in ("oracle-0", "oracle-1", "oracle-2"):
            trace = tiny_pipeline.collect_trace(label, n_rounds=256)
            bob_seq, alice_seq = arrssi_sequences(
                trace, tiny_pipeline.config.feature_config
            )
            built.append(
                build_dataset(alice_seq, bob_seq, seq_len=tiny_pipeline.model.seq_len)
            )
        return built

    def test_model_path_matches_oracle(self, tiny_pipeline, datasets):
        session = tiny_pipeline.build_session()
        for dataset in datasets:
            expected = reference_extract_detail(session, dataset)
            assert not expected.degraded and expected.alice_bits.size > 0
            assert_details_equal(expected, session.extract_detail(dataset))
            probs = tiny_pipeline.model.predict_bit_probabilities(dataset.alice)
            assert_details_equal(
                reference_extract_detail(session, dataset, probs),
                session.extract_detail(dataset, alice_probabilities=probs),
            )

    def test_degraded_batch_with_nan_window_matches_oracle(
        self, tiny_pipeline, datasets
    ):
        session = tiny_pipeline.build_session()
        dataset = datasets[0]
        alice_raw = dataset.alice_raw + 150.0
        alice_raw[1, 3] = np.nan
        dataset = dataclasses.replace(dataset, alice_raw=alice_raw)
        expected = reference_extract_detail(session, dataset)
        assert expected.degraded and not expected.masks[1].any()
        assert expected.alice_bits.size > 0
        assert_details_equal(expected, session.extract_detail(dataset))

    def test_training_targets_match_oracle(self, tiny_pipeline, datasets):
        model = tiny_pipeline.model
        for dataset in datasets:
            expected = np.stack(
                [reference_quantize(model.bob_quantizer, row).bits for row in dataset.bob_raw]
            )
            actual = model.bob_bits(dataset.bob_raw)
            assert actual.dtype == expected.dtype
            np.testing.assert_array_equal(expected, actual)

    def test_training_targets_need_every_sample(self, tiny_pipeline, datasets):
        windows = datasets[0].bob_raw.copy()
        windows[0, 0] = np.nan
        with pytest.raises(ConfigurationError):
            tiny_pipeline.model.bob_bits(windows)
