"""Tests for privacy amplification and the NIST SP 800-22 suite."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.privacy.amplification import amplify, amplify_to_bytes
from repro.security.nist import (
    SIGNIFICANCE_LEVEL,
    approximate_entropy_test,
    berlekamp_massey,
    block_frequency_test,
    cumulative_sums_test,
    dft_test,
    frequency_test,
    linear_complexity_test,
    longest_run_test,
    non_overlapping_template_test,
    run_nist_suite,
)
from repro.utils.bits import random_bits


class TestAmplification:
    def test_output_length(self):
        key = amplify(random_bits(256, 0), output_bits=128)
        assert key.shape == (128,)

    def test_deterministic(self):
        bits = random_bits(256, 1)
        np.testing.assert_array_equal(amplify(bits), amplify(bits))

    def test_single_bit_change_avalanches(self):
        bits = random_bits(256, 2)
        other = bits.copy()
        other[17] ^= 1
        difference = np.mean(amplify(bits) != amplify(other))
        assert 0.3 < difference < 0.7

    def test_salt_changes_output(self):
        bits = random_bits(256, 3)
        assert not np.array_equal(amplify(bits, salt=b"a"), amplify(bits, salt=b"b"))

    def test_cannot_stretch_entropy(self):
        with pytest.raises(ConfigurationError):
            amplify(random_bits(64, 4), output_bits=256)

    def test_bytes_variant_matches_bits(self):
        bits = random_bits(256, 5)
        from repro.utils.bits import bytes_to_bits

        np.testing.assert_array_equal(
            bytes_to_bits(amplify_to_bytes(bits)), amplify(bits)
        )

    def test_non_multiple_of_8_output_rejected(self):
        with pytest.raises(ConfigurationError):
            amplify(random_bits(256, 6), output_bits=100)

    def test_odd_length_input_accepted(self):
        assert amplify(random_bits(131, 7), output_bits=128).shape == (128,)


def _random_sequence(n=20000, seed=0):
    return random_bits(n, seed)


def _biased_sequence(n=20000, seed=0, p=0.7):
    rng = np.random.default_rng(seed)
    return (rng.uniform(size=n) < p).astype(np.uint8)


class TestIndividualNistTests:
    def test_frequency_passes_random(self):
        assert frequency_test(_random_sequence()) > 0.01

    def test_frequency_rejects_biased(self):
        assert frequency_test(_biased_sequence()) < 0.01

    def test_block_frequency_passes_random(self):
        assert block_frequency_test(_random_sequence(seed=1)) > 0.01

    def test_block_frequency_rejects_blocky(self):
        sequence = np.concatenate([np.ones(10000), np.zeros(10000)]).astype(np.uint8)
        assert block_frequency_test(sequence) < 0.01

    def test_longest_run_passes_random(self):
        assert longest_run_test(_random_sequence(seed=2)) > 0.01

    def test_longest_run_rejects_long_runs(self):
        rng = np.random.default_rng(0)
        # Alternating short random chunks and long 1-runs.
        chunks = []
        for _ in range(100):
            chunks.append(rng.integers(0, 2, 50).astype(np.uint8))
            chunks.append(np.ones(20, dtype=np.uint8))
        assert longest_run_test(np.concatenate(chunks)) < 0.01

    def test_dft_passes_random(self):
        assert dft_test(_random_sequence(seed=3)) > 0.01

    def test_dft_rejects_periodic(self):
        assert dft_test(np.tile([1, 0, 1, 0, 1, 0, 0, 1], 1000)) < 0.01

    def test_cusum_passes_random(self):
        assert cumulative_sums_test(_random_sequence(seed=4)) > 0.01

    def test_cusum_rejects_drift(self):
        assert cumulative_sums_test(_biased_sequence(p=0.55)) < 0.01

    def test_cusum_backward_mode(self):
        assert cumulative_sums_test(_random_sequence(seed=5), mode="backward") > 0.01

    def test_approximate_entropy_passes_random(self):
        assert approximate_entropy_test(_random_sequence(seed=6)) > 0.01

    def test_approximate_entropy_rejects_repetitive(self):
        assert approximate_entropy_test(np.tile([0, 1], 10000)) < 0.01

    def test_non_overlapping_passes_random(self):
        assert non_overlapping_template_test(_random_sequence(seed=7)) > 0.01

    def test_non_overlapping_rejects_template_spam(self):
        rng = np.random.default_rng(1)
        chunks = []
        for _ in range(200):
            chunks.append(rng.integers(0, 2, 30).astype(np.uint8))
            chunks.append(np.array([0, 0, 0, 0, 0, 0, 0, 0, 1], dtype=np.uint8))
        assert non_overlapping_template_test(np.concatenate(chunks)) < 0.01

    def test_linear_complexity_passes_random(self):
        assert linear_complexity_test(_random_sequence(seed=8)) > 0.01

    def test_linear_complexity_rejects_lfsr_like(self):
        # A short-period sequence has tiny linear complexity everywhere.
        assert linear_complexity_test(np.tile([1, 0, 0, 1, 1], 4000)) < 0.01

    def test_too_short_sequence_rejected(self):
        with pytest.raises(ConfigurationError):
            frequency_test(np.array([1, 0, 1]))

    def test_non_binary_rejected(self):
        with pytest.raises(ConfigurationError):
            frequency_test(np.array([0, 1, 2] * 10))


def _bits(text):
    return np.array([int(c) for c in text], dtype=np.uint8)


#: SP 800-22 rev1a's worked-example inputs: the first 100 bits of the
#: binary expansion of e, and the 128-bit longest-run example.
EPSILON_100 = _bits(
    "1100100100001111110110101010001000100001011010001100001000110100"
    "110001001100011001100010100010111000"
)
EPSILON_128 = _bits(
    "1100110000010101011011000100110011100000000000100100110101010001"
    "0001001111010110100000001101011111001100111001101101100010110010"
)


class TestKnownAnswers:
    """P-values printed in SP 800-22 rev1a's worked examples."""

    def test_frequency(self):  # section 2.1.8
        assert frequency_test(EPSILON_100) == pytest.approx(0.109599, abs=1e-6)

    def test_block_frequency(self):  # section 2.2.8
        assert block_frequency_test(EPSILON_100, block_size=10) == pytest.approx(
            0.706438, abs=1e-6
        )

    def test_cumulative_sums_forward(self):  # section 2.13.8
        assert cumulative_sums_test(EPSILON_100) == pytest.approx(0.219194, abs=1e-6)

    def test_cumulative_sums_backward(self):  # section 2.13.8
        assert cumulative_sums_test(EPSILON_100, mode="backward") == pytest.approx(
            0.114866, abs=1e-6
        )

    def test_approximate_entropy(self):  # section 2.12.8
        assert approximate_entropy_test(EPSILON_100, m=2) == pytest.approx(
            0.235301, abs=1e-6
        )

    def test_longest_run(self):  # section 2.4.8
        # The example's chi-square (4.882605) is reproduced exactly, but
        # igamc(1.5, 4.882605 / 2) is 0.180598; the spec prints 0.180609.
        assert longest_run_test(EPSILON_128) == pytest.approx(0.180609, abs=2e-5)


class TestBerlekampMassey:
    def test_known_lfsr(self):
        # x^4 + x + 1 LFSR has linear complexity 4.
        state = [1, 0, 0, 1]
        sequence = []
        for _ in range(60):
            sequence.append(state[-1])
            new = state[0] ^ state[3]
            state = [new] + state[:-1]
        assert berlekamp_massey(np.array(sequence, dtype=np.int8)) == 4

    def test_all_zeros_complexity_zero(self):
        assert berlekamp_massey(np.zeros(32, dtype=np.int8)) == 0

    def test_single_one_at_end(self):
        bits = np.zeros(16, dtype=np.int8)
        bits[-1] = 1
        assert berlekamp_massey(bits) == 16

    def test_random_sequence_complexity_near_half(self):
        bits = random_bits(500, 0).astype(np.int8)
        complexity = berlekamp_massey(bits)
        assert 240 <= complexity <= 260


def _all_pass(sequence):
    return all(p >= SIGNIFICANCE_LEVEL for p in run_nist_suite(sequence).values())


class TestSuite:
    def test_all_pass_on_random(self):
        assert _all_pass(_random_sequence(seed=9))

    def test_reports_eight_tests(self):
        results = run_nist_suite(_random_sequence(seed=10))
        assert len(results) == 8
        assert "Frequency" in results
        assert "Non Overlapping Template" in results

    def test_biased_stream_fails_somewhere(self):
        assert not _all_pass(_biased_sequence(seed=11))

    def test_hashed_keys_pass(self):
        # The actual use: concatenated privacy-amplified keys.
        keys = [amplify(random_bits(256, seed), 128) for seed in range(160)]
        stream = np.concatenate(keys)
        assert _all_pass(stream)
