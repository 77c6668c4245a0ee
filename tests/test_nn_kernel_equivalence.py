"""Pinned-seed equivalence of the vectorized kernels vs the frozen originals.

The fused LSTM/GRU/BiLSTM kernels must reproduce the pre-refactor
implementations (kept verbatim in :mod:`tests.oracles.nn_kernels`) to
1e-10 in every mode -- forward (training and inference), backward input
gradients, and every weight gradient.  Also covers the behavioural
contracts the rewrite introduced: the inference fast path retains no
backward cache, the first-layer input-gradient skip changes nothing but
the returned value, and ``Model.predict`` handles empty input.
"""

import numpy as np
import pytest

from repro.exceptions import NotTrainedError
from repro.nn.layers.bilstm import BiLSTM
from repro.nn.layers.dense import Dense
from repro.nn.layers.gru import GRU
from repro.nn.layers.lstm import LSTM
from tests.oracles.nn_kernels import ReferenceBiLSTM, ReferenceGRU, ReferenceLSTM
from repro.nn.model import Model

TOL = 1e-10
BATCH, STEPS, FEATURES, HIDDEN = 5, 7, 3, 6


def _pinned_input(seed=42, batch=BATCH, steps=STEPS, features=FEATURES):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(batch, steps, features)) * 2.0


def _paired(cls_new, cls_ref, x, **kwargs):
    """New and reference layers built with identical pinned weights."""
    new = cls_new(HIDDEN, seed=1234, **kwargs)
    ref = cls_ref(HIDDEN, seed=1234, **kwargs)
    new.forward(x[:1], training=True)
    ref.forward(x[:1], training=True)
    ref.set_weights(new.get_weights())
    return new, ref


def _assert_close(actual, expected, label):
    np.testing.assert_allclose(actual, expected, rtol=0, atol=TOL, err_msg=label)


class TestLSTMEquivalence:
    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("go_backwards", [True, False])
    def test_forward_and_backward_match_reference(
        self, return_sequences, go_backwards
    ):
        x = _pinned_input()
        new, ref = _paired(
            LSTM, ReferenceLSTM, x,
            return_sequences=return_sequences, go_backwards=go_backwards,
        )
        out_new = new.forward(x, training=True)
        out_ref = ref.forward(x, training=True)
        _assert_close(out_new, out_ref, "training forward")

        grad = np.random.default_rng(7).normal(size=out_ref.shape)
        dx_new = new.backward(grad)
        dx_ref = ref.backward(grad)
        _assert_close(dx_new, dx_ref, "input gradient")
        for key in ("kernel", "recurrent", "bias"):
            _assert_close(new.gradients[key], ref.gradients[key], f"grad {key}")

    @pytest.mark.parametrize("return_sequences", [True, False])
    @pytest.mark.parametrize("go_backwards", [True, False])
    def test_inference_fast_path_matches_training_forward(
        self, return_sequences, go_backwards
    ):
        x = _pinned_input(seed=5)
        new, ref = _paired(
            LSTM, ReferenceLSTM, x,
            return_sequences=return_sequences, go_backwards=go_backwards,
        )
        _assert_close(
            new.forward(x, training=False),
            ref.forward(x, training=False),
            "inference forward",
        )

    def test_single_step_sequence(self):
        x = _pinned_input(seed=9, steps=1)
        new, ref = _paired(LSTM, ReferenceLSTM, x)
        _assert_close(
            new.forward(x, training=True), ref.forward(x, training=True), "T=1"
        )


class TestBiLSTMEquivalence:
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_forward_and_backward_match_reference(self, return_sequences):
        x = _pinned_input(seed=11)
        new, ref = _paired(
            BiLSTM, ReferenceBiLSTM, x, return_sequences=return_sequences
        )
        out_new = new.forward(x, training=True)
        out_ref = ref.forward(x, training=True)
        _assert_close(out_new, out_ref, "training forward")
        _assert_close(
            new.forward(x, training=False), out_ref, "inference forward"
        )

        grad = np.random.default_rng(13).normal(size=out_ref.shape)
        new.forward(x, training=True)
        dx_new = new.backward(grad)
        dx_ref = ref.backward(grad)
        _assert_close(dx_new, dx_ref, "input gradient")
        for key in new.gradients:
            _assert_close(new.gradients[key], ref.gradients[key], f"grad {key}")


class TestGRUEquivalence:
    @pytest.mark.parametrize("return_sequences", [True, False])
    def test_forward_and_backward_match_reference(self, return_sequences):
        x = _pinned_input(seed=21)
        new, ref = _paired(
            GRU, ReferenceGRU, x, return_sequences=return_sequences
        )
        out_new = new.forward(x, training=True)
        out_ref = ref.forward(x, training=True)
        _assert_close(out_new, out_ref, "training forward")
        _assert_close(
            new.forward(x, training=False), out_ref, "inference forward"
        )

        grad = np.random.default_rng(23).normal(size=out_ref.shape)
        new.forward(x, training=True)
        dx_new = new.backward(grad)
        dx_ref = ref.backward(grad)
        _assert_close(dx_new, dx_ref, "input gradient")
        for key in new.gradients:
            _assert_close(new.gradients[key], ref.gradients[key], f"grad {key}")


class TestInferenceFastPath:
    @pytest.mark.parametrize("cls", [LSTM, GRU, BiLSTM])
    def test_no_backward_cache_after_inference(self, cls):
        x = _pinned_input(seed=31)
        layer = cls(HIDDEN, seed=0)
        layer.forward(x, training=True)  # build + populate cache
        layer.forward(x, training=False)  # fast path must clear it
        out_features = 2 * HIDDEN if cls is BiLSTM else HIDDEN
        grad = np.ones((BATCH, STEPS, out_features))
        with pytest.raises(NotTrainedError):
            layer.backward(grad)


class TestInputGradientSkip:
    def test_skip_leaves_weight_gradients_unchanged(self):
        x = _pinned_input(seed=41)
        layer = LSTM(HIDDEN, seed=3)
        out = layer.forward(x, training=True)
        grad = np.random.default_rng(43).normal(size=out.shape)
        dx = layer.backward(grad)
        full_grads = {k: v.copy() for k, v in layer.gradients.items()}

        layer.forward(x, training=True)
        assert layer.backward(grad, compute_input_grad=False) is None
        for key, value in full_grads.items():
            np.testing.assert_array_equal(layer.gradients[key], value)
        assert dx is not None

    def test_model_backward_honours_need_input_grad(self):
        x = _pinned_input(seed=47)
        model = Model([BiLSTM(HIDDEN, seed=5), Dense(1, seed=6)])
        out = model.forward(x, training=True)
        grad = np.ones_like(out)
        assert model.backward(grad, need_input_grad=False) is None
        model.forward(x, training=True)
        assert model.backward(grad, need_input_grad=True) is not None

    def test_training_identical_with_reference_stack(self):
        """End to end: the fused stack trains bit-for-bit like the original."""
        rng = np.random.default_rng(51)
        x = rng.normal(size=(24, STEPS, FEATURES))
        y = rng.normal(size=(24, STEPS, 1))

        def train(encoder_cls):
            model = Model([encoder_cls(HIDDEN, seed=7), Dense(1, seed=8)])
            history = model.fit(x, y, epochs=3, batch_size=8, shuffle_seed=0)
            return history.metrics["loss"]

        new_losses = train(BiLSTM)
        ref_losses = train(ReferenceBiLSTM)
        np.testing.assert_allclose(new_losses, ref_losses, rtol=0, atol=1e-12)


class TestPredictEdgeCases:
    def test_empty_input_returns_empty_with_output_shape(self):
        model = Model([LSTM(HIDDEN, seed=0, return_sequences=False), Dense(2, seed=1)])
        model.forward(np.zeros((1, STEPS, FEATURES)), training=False)
        out = model.predict(np.zeros((0, STEPS, FEATURES)))
        assert out.shape == (0, 2)
