"""OOD-guarded inference: detection, fallback extraction, outcome visibility."""

import dataclasses

import numpy as np
import pytest

from repro.core.guard import GuardVerdict, InferenceGuard, WindowStatistics
from repro.exceptions import ConfigurationError
from repro.probing.dataset import build_dataset
from repro.probing.features import arrssi_sequences


@pytest.fixture(scope="module")
def training_windows():
    rng = np.random.default_rng(0)
    return rng.normal(-82.0, 4.0, size=(64, 16))


@pytest.fixture(scope="module")
def stats(training_windows):
    return WindowStatistics.from_windows(training_windows)


@pytest.fixture(scope="module")
def guard(stats):
    return InferenceGuard(stats)


class TestWindowStatistics:
    def test_captures_training_envelope(self, stats, training_windows):
        assert stats.seq_len == 16
        assert stats.n_windows == 64
        assert stats.min_value == training_windows.min()
        assert stats.max_value == training_windows.max()

    def test_dict_round_trip(self, stats):
        assert WindowStatistics.from_dict(stats.to_dict()) == stats


class TestGuardVerdicts:
    def test_in_distribution_windows_pass(self, guard, training_windows):
        verdict = guard.check(training_windows)
        assert verdict.ok
        assert verdict.n_ood == 0
        assert verdict.window_ok.all()
        assert verdict.reasons == ()

    def test_mean_shift_flagged(self, guard, training_windows):
        verdict = guard.check(training_windows + 150.0)
        assert not verdict.ok
        assert "mean-shift" in verdict.reasons
        assert verdict.ood_fraction == 1.0

    def test_scale_shift_flagged(self, guard, stats, training_windows):
        center = stats.mean_of_means
        blown_up = center + (training_windows - center) * 40.0
        verdict = guard.check(blown_up)
        assert not verdict.ok
        assert "scale-shift" in verdict.reasons

    def test_non_finite_windows_flagged(self, guard, training_windows):
        windows = training_windows.copy()
        windows[3, 5] = np.nan
        windows[7, 0] = np.inf
        verdict = guard.check(windows)
        assert "non-finite" in verdict.reasons
        assert not verdict.window_ok[3]
        assert not verdict.window_ok[7]
        assert verdict.window_ok.sum() == len(windows) - 2
        assert verdict.ok  # 2/64 is under the default 25% batch threshold

    def test_small_ood_fraction_tolerated(self, guard, training_windows):
        windows = training_windows.copy()
        windows[:4] += 150.0  # 4/64 OOD < 25%
        verdict = guard.check(windows)
        assert verdict.ok
        assert verdict.n_ood == 4

    def test_wrong_window_length_is_a_caller_bug(self, guard):
        with pytest.raises(ConfigurationError):
            guard.check(np.zeros((3, 7)))

    def test_empty_batch_is_ok(self, guard):
        verdict = guard.check(np.zeros((0, 16)))
        assert verdict.ok
        assert verdict.ood_fraction == 0.0
        assert isinstance(verdict, GuardVerdict)


class TestModelIntegration:
    def test_untrained_model_has_no_guard(self):
        from repro.core.model import PredictionQuantizationModel

        model = PredictionQuantizationModel(
            seq_len=8, hidden_units=4, key_bits=16, seed=0
        )
        assert model.inference_guard() is None

    def test_trained_pipeline_model_carries_stats(self, tiny_pipeline):
        stats = tiny_pipeline.model.training_stats
        assert stats is not None
        assert stats.seq_len == tiny_pipeline.config.seq_len
        assert tiny_pipeline.model.inference_guard() is not None


class TestSessionFallback:
    @pytest.fixture(scope="class")
    def live_trace(self, tiny_pipeline):
        return tiny_pipeline.collect_trace("guard-live", n_rounds=192)

    def test_in_distribution_session_is_not_degraded(
        self, tiny_pipeline, live_trace
    ):
        result = tiny_pipeline.build_session().run(live_trace)
        assert result.degraded_mode is None
        assert result.ood_windows == 0

    def test_ood_trace_falls_back_to_quantizer_visibly(
        self, tiny_pipeline, live_trace
    ):
        # Alice's radio starts reporting absurd RSSI (e.g. register
        # corruption or a different gain table): every window is far from
        # the training distribution.
        shifted = dataclasses.replace(
            live_trace,
            alice_rssi=live_trace.alice_rssi + 150.0,
            alice_prssi=None,
        )
        result = tiny_pipeline.build_session().run(shifted)
        assert result.degraded_mode == "ood-quantizer-fallback"
        assert result.ood_windows > 0
        # The conventional quantizer path still produces key material
        # (fixed-threshold quantization is shift-invariant, and the
        # underlying reciprocity is intact).
        assert result.n_blocks > 0
        assert result.raw_agreement.mean > 0.5

    def test_fallback_never_reports_silent_success(
        self, tiny_pipeline, live_trace
    ):
        shifted = dataclasses.replace(
            live_trace,
            alice_rssi=live_trace.alice_rssi + 150.0,
            alice_prssi=None,
        )
        outcome = tiny_pipeline.build_outcome(
            tiny_pipeline.build_session().run(shifted), [shifted]
        )
        assert outcome.degraded_mode == "ood-quantizer-fallback"
        assert outcome.ood_windows > 0

    def test_degraded_extraction_skips_non_finite_windows(self, tiny_pipeline):
        session = tiny_pipeline.build_session()
        # Tolerating no OOD window, the guard rejects the batch for its
        # one NaN window, so extraction takes the degraded path.
        session.inference_guard = InferenceGuard(
            tiny_pipeline.model.training_stats, max_ood_fraction=0.0
        )
        seq_len = tiny_pipeline.config.seq_len
        rng = np.random.default_rng(8)
        alice = rng.normal(-80.0, 4.0, size=4 * seq_len)
        bob = alice + rng.normal(0.0, 0.5, size=alice.size)
        dataset = build_dataset(alice, bob, seq_len=seq_len)
        dataset.alice_raw[1, 3] = np.nan
        detail = session.extract_detail(dataset)
        assert detail.degraded
        assert not detail.masks[1].any()  # the NaN window contributed nothing
        assert np.isin(detail.alice_bits, (0, 1)).all()


class TestPipelineOutcomeFields:
    def test_outcome_exposes_degraded_properties(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(episode="guard-clean")
        assert outcome.degraded_mode is None
        assert outcome.ood_windows == 0
