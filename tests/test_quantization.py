"""Tests for the three quantizers and the consensus mask."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import norm

from repro.exceptions import ConfigurationError
from repro.quantization import (
    GuardBandQuantizer,
    MeanThresholdQuantizer,
    MultiBitQuantizer,
    QuantizationResult,
    consensus_mask,
)
from repro.quantization.multibit import _normal_quantile
from repro.utils.bits import hamming_distance

RNG = np.random.default_rng(42)


class TestMeanThreshold:
    def test_known_window(self):
        result = MeanThresholdQuantizer().quantize(np.array([1.0, 2.0, 3.0, 10.0]))
        np.testing.assert_array_equal(result.bits, [0, 0, 0, 1])

    def test_keeps_all_samples(self):
        result = MeanThresholdQuantizer().quantize(RNG.normal(size=32))
        assert result.n_kept == 32
        assert result.efficiency == 1.0

    def test_empty_window_rejected(self):
        with pytest.raises(ConfigurationError):
            MeanThresholdQuantizer().quantize(np.array([]))

    @given(st.integers(min_value=2, max_value=128), st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_roughly_balanced_on_gaussian(self, n, seed):
        window = np.random.default_rng(seed).normal(size=n)
        bits = MeanThresholdQuantizer().quantize(window).bits
        assert 0 <= bits.sum() <= n


class TestMultiBit:
    def test_bit_count(self):
        quantizer = MultiBitQuantizer(bits_per_sample=2)
        result = quantizer.quantize(RNG.normal(size=64))
        assert result.bits.size == 2 * 64

    def test_levels_are_equiprobable(self):
        quantizer = MultiBitQuantizer(bits_per_sample=2)
        window = RNG.normal(size=4000)
        result = quantizer.quantize(window)
        groups = result.bits.reshape(-1, 2)
        # Each Gray codeword should appear ~25% of the time.
        _, counts = np.unique(groups, axis=0, return_counts=True)
        assert counts.min() > 800

    def test_similar_windows_mostly_agree(self):
        window = RNG.normal(size=256)
        noisy = window + RNG.normal(0, 0.02, size=256)
        quantizer = MultiBitQuantizer(bits_per_sample=2)
        bits_a = quantizer.quantize(window).bits
        bits_b = quantizer.quantize(noisy).bits
        assert hamming_distance(bits_a, bits_b) < 0.1 * bits_a.size

    def test_gray_coding_limits_neighbor_bin_damage(self):
        # Adjacent bins differ by one bit: samples that hop one bin under
        # noise cost exactly one bit flip each.
        quantizer = MultiBitQuantizer(bits_per_sample=3)
        window = np.linspace(0, 1, 512)
        shifted = window + 1e-3
        bits_a = quantizer.quantize(window).bits.reshape(-1, 3)
        bits_b = quantizer.quantize(shifted).bits.reshape(-1, 3)
        per_sample = (bits_a != bits_b).sum(axis=1)
        assert per_sample.max() <= 1

    def test_guard_band_drops_boundary_samples(self):
        quantizer = MultiBitQuantizer(bits_per_sample=2, guard_band_fraction=0.3)
        result = quantizer.quantize(RNG.normal(size=512))
        assert 0.5 < result.efficiency < 1.0

    def test_guard_band_improves_agreement(self):
        window = RNG.normal(size=1024)
        noisy = window + RNG.normal(0, 0.05, size=1024)
        plain = MultiBitQuantizer(bits_per_sample=2)
        guarded = MultiBitQuantizer(bits_per_sample=2, guard_band_fraction=0.3)

        plain_a, plain_b = plain.quantize(window), plain.quantize(noisy)
        plain_rate = np.mean(plain_a.bits != plain_b.bits)

        guarded_a, guarded_b = guarded.quantize(window), guarded.quantize(noisy)
        keep = consensus_mask(guarded_a.kept, guarded_b.kept)
        bits_a = guarded.quantize_with_mask(window, keep)
        bits_b = guarded.quantize_with_mask(noisy, keep)
        guarded_rate = np.mean(bits_a != bits_b)
        assert guarded_rate < plain_rate

    def test_window_too_small_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiBitQuantizer(bits_per_sample=3).quantize(np.arange(4.0))

    def test_invalid_bits_per_sample_rejected(self):
        with pytest.raises(ConfigurationError):
            MultiBitQuantizer(bits_per_sample=0)


class TestNormalQuantile:
    """The SciPy-free quantile equals ``scipy.stats.norm.ppf`` bit for bit."""

    def test_every_boundary_a_quantizer_can_ask_for(self):
        # Every boundary k / 2**b with 1 <= b <= 8 is one of the k / 256.
        probabilities = np.arange(1, 256) / 256
        ours = np.array([_normal_quantile(p) for p in probabilities.tolist()])
        np.testing.assert_array_equal(ours, norm.ppf(probabilities))

    @pytest.mark.parametrize("bits", range(1, 9))
    def test_fixed_thresholds_match_scipy(self, bits):
        quantizer = MultiBitQuantizer(bits, fixed_thresholds=True)
        np.testing.assert_array_equal(
            quantizer._normal_boundaries, norm.ppf(np.arange(1, 2**bits) / 2**bits)
        )


class TestGuardBand:
    def test_alpha_zero_keeps_everything(self):
        result = GuardBandQuantizer(alpha=0.0).quantize(RNG.normal(size=100))
        assert result.efficiency == 1.0

    def test_alpha_increases_drops(self):
        window = RNG.normal(size=2000)
        narrow = GuardBandQuantizer(alpha=0.4).quantize(window)
        wide = GuardBandQuantizer(alpha=1.2).quantize(window)
        assert wide.n_kept < narrow.n_kept

    def test_bits_match_sides_of_band(self):
        window = np.array([-5.0, -4.0, 0.1, 4.0, 5.0])
        result = GuardBandQuantizer(alpha=0.5).quantize(window)
        # The middle sample sits in the guard band.
        assert not result.kept[2]
        np.testing.assert_array_equal(result.bits, [0, 0, 1, 1])

    def test_paper_alpha_setting(self):
        result = GuardBandQuantizer(alpha=0.8).quantize(RNG.normal(size=1000))
        # ~31% of a Gaussian lies within +/-0.4 sigma.
        assert 0.55 < result.efficiency < 0.8


class TestConsensusAndMask:
    def test_consensus_is_intersection(self):
        a = np.array([True, True, False])
        b = np.array([True, False, False])
        np.testing.assert_array_equal(consensus_mask(a, b), [True, False, False])

    def test_quantize_with_mask_subsets_bits(self):
        quantizer = GuardBandQuantizer(alpha=0.8)
        window = RNG.normal(size=200)
        result = quantizer.quantize(window)
        # Agree on a strictly smaller mask.
        keep = result.kept.copy()
        keep[np.flatnonzero(keep)[:5]] = False
        bits = quantizer.quantize_with_mask(window, keep)
        assert bits.size == result.bits.size - 5

    def test_mask_superset_rejected(self):
        quantizer = GuardBandQuantizer(alpha=0.8)
        window = RNG.normal(size=50)
        result = quantizer.quantize(window)
        bad = np.ones_like(result.kept)
        if result.kept.all():
            pytest.skip("no dropped samples to violate")
        with pytest.raises(ConfigurationError):
            quantizer.quantize_with_mask(window, bad)

    def test_result_validation(self):
        with pytest.raises(ConfigurationError):
            QuantizationResult(
                bits=np.zeros(3, dtype=np.uint8),
                kept=np.ones(5, dtype=bool),
                bits_per_sample=1,
            )

    @given(st.integers(min_value=16, max_value=200), st.integers(0, 2**31))
    @settings(max_examples=25)
    def test_identical_windows_agree_perfectly(self, n, seed):
        window = np.random.default_rng(seed).normal(size=n)
        quantizer = MultiBitQuantizer(bits_per_sample=2, guard_band_fraction=0.2)
        a = quantizer.quantize(window)
        b = quantizer.quantize(window.copy())
        np.testing.assert_array_equal(a.bits, b.bits)
        np.testing.assert_array_equal(a.kept, b.kept)
