"""Tests for Bloom filter, MAC, Cascade and compressed-sensing reconcilers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.reconciliation.base import ReconciliationOutcome
from repro.reconciliation.bloom import PositionPreservingBloomFilter
from repro.reconciliation.cascade import CascadeReconciliation
from repro.reconciliation.compressed_sensing import (
    CompressedSensingReconciliation,
    orthogonal_matching_pursuit,
)
from repro.reconciliation.mac import compute_mac, verify_mac
from repro.utils.bits import flip_bits, hamming_distance, random_bits


class TestBloomFilter:
    def test_round_trip(self):
        bloom = PositionPreservingBloomFilter(64, salt=b"s1")
        key = random_bits(64, 0)
        np.testing.assert_array_equal(bloom.inverse(bloom.transform(key)), key)

    def test_preserves_mismatch_count(self):
        bloom = PositionPreservingBloomFilter(64, salt=b"s1")
        a = random_bits(64, 1)
        b = flip_bits(a, [3, 10, 40])
        assert hamming_distance(bloom.transform(a), bloom.transform(b)) == 3

    def test_map_difference_matches_transform_xor(self):
        bloom = PositionPreservingBloomFilter(32, salt=b"s2")
        a = random_bits(32, 2)
        b = flip_bits(a, [1, 7])
        via_transform = bloom.transform(a) ^ bloom.transform(b)
        np.testing.assert_array_equal(bloom.map_difference(a ^ b), via_transform)

    def test_different_salts_give_different_transforms(self):
        key = random_bits(64, 3)
        t1 = PositionPreservingBloomFilter(64, salt=b"a").transform(key)
        t2 = PositionPreservingBloomFilter(64, salt=b"b").transform(key)
        assert not np.array_equal(t1, t2)

    def test_same_salt_is_deterministic(self):
        key = random_bits(64, 4)
        t1 = PositionPreservingBloomFilter(64, salt=b"x").transform(key)
        t2 = PositionPreservingBloomFilter(64, salt=b"x").transform(key)
        np.testing.assert_array_equal(t1, t2)

    def test_output_differs_from_input(self):
        key = random_bits(256, 5)
        transformed = PositionPreservingBloomFilter(256, salt=b"x").transform(key)
        assert hamming_distance(key, transformed) > 64

    def test_batch_matches_single(self):
        bloom = PositionPreservingBloomFilter(32, salt=b"q")
        keys = np.stack([random_bits(32, i) for i in range(4)])
        batch = bloom.transform_batch(keys)
        for row, key in zip(batch, keys):
            np.testing.assert_array_equal(row, bloom.transform(key))

    def test_wrong_length_rejected(self):
        with pytest.raises(ConfigurationError):
            PositionPreservingBloomFilter(64).transform(random_bits(32, 0))


class TestMac:
    def test_verify_accepts_valid_tag(self):
        key = random_bits(64, 0)
        tag = compute_mac(key, b"syndrome-bytes")
        assert verify_mac(key, b"syndrome-bytes", tag)

    def test_verify_rejects_tampered_message(self):
        key = random_bits(64, 0)
        tag = compute_mac(key, b"syndrome-bytes")
        assert not verify_mac(key, b"syndrome-bytez", tag)

    def test_verify_rejects_wrong_key(self):
        tag = compute_mac(random_bits(64, 0), b"m")
        assert not verify_mac(random_bits(64, 1), b"m", tag)

    def test_non_multiple_of_eight_keys_supported(self):
        tag = compute_mac(random_bits(13, 0), b"m")
        assert verify_mac(random_bits(13, 0), b"m", tag)

    def test_empty_message_rejected(self):
        with pytest.raises(ConfigurationError):
            compute_mac(random_bits(8, 0), b"")


class TestCascade:
    @pytest.mark.parametrize("flips", [0, 1, 3, 6, 10])
    def test_corrects_exactly(self, flips):
        bob = random_bits(128, flips)
        positions = np.random.default_rng(flips).choice(128, size=flips, replace=False)
        alice = flip_bits(bob, positions)
        outcome = CascadeReconciliation(block_size=3, iterations=4).reconcile(alice, bob)
        assert outcome.success

    def test_counts_messages(self):
        bob = random_bits(64, 0)
        alice = flip_bits(bob, [5, 40])
        outcome = CascadeReconciliation().reconcile(alice, bob)
        assert outcome.messages > 2  # parity rounds + binary searches
        assert outcome.bytes_exchanged > 0

    def test_no_errors_costs_only_parity_rounds(self):
        bob = random_bits(64, 1)
        outcome = CascadeReconciliation(iterations=4).reconcile(bob.copy(), bob)
        assert outcome.success
        assert outcome.messages == 8  # 2 per iteration

    def test_bob_key_untouched(self):
        bob = random_bits(64, 2)
        alice = flip_bits(bob, [0])
        outcome = CascadeReconciliation().reconcile(alice, bob)
        np.testing.assert_array_equal(outcome.bob_key, bob)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            CascadeReconciliation().reconcile(random_bits(64, 0), random_bits(32, 0))

    @given(
        st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=2**31),
    )
    @settings(max_examples=20, deadline=None)
    def test_always_converges_to_equaccording(self, flips, seed):
        rng = np.random.default_rng(seed)
        bob = random_bits(96, seed)
        positions = rng.choice(96, size=flips, replace=False)
        alice = flip_bits(bob, positions)
        outcome = CascadeReconciliation(block_size=3, iterations=4, seed=seed).reconcile(
            alice, bob
        )
        # With 4 iterations and <= 12.5% BDR cascade corrects essentially
        # always; allow the rare residual but require improvement.
        assert outcome.agreement >= 1.0 - flips / 96


class TestOMP:
    def test_recovers_exact_sparse_vector(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((20, 64))
        truth = np.zeros(64)
        truth[[3, 17, 42]] = [1.0, -1.0, 1.0]
        recovered, iterations = orthogonal_matching_pursuit(matrix, matrix @ truth, 10)
        np.testing.assert_allclose(recovered, truth, atol=1e-8)
        assert iterations == 3

    def test_zero_target_needs_no_iterations(self):
        matrix = np.eye(8)
        recovered, iterations = orthogonal_matching_pursuit(matrix, np.zeros(8), 4)
        assert iterations == 0
        np.testing.assert_array_equal(recovered, np.zeros(8))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            orthogonal_matching_pursuit(np.eye(4), np.zeros(3), 2)


class TestCompressedSensing:
    @pytest.mark.parametrize("flips", [0, 1, 2, 3])
    def test_corrects_sparse_mismatches(self, flips):
        bob = random_bits(64, flips + 10)
        positions = np.random.default_rng(flips).choice(64, size=flips, replace=False)
        alice = flip_bits(bob, positions)
        reconciler = CompressedSensingReconciliation(measurements=20, block_bits=64)
        assert reconciler.reconcile(alice, bob).success

    def test_multi_block_keys(self):
        bob = random_bits(128, 3)
        alice = flip_bits(bob, [5, 70])
        reconciler = CompressedSensingReconciliation(measurements=20, block_bits=64)
        outcome = reconciler.reconcile(alice, bob)
        assert outcome.success
        assert outcome.bytes_exchanged == 4 * 20 * 2

    def test_single_message(self):
        bob = random_bits(64, 4)
        outcome = CompressedSensingReconciliation().reconcile(bob.copy(), bob)
        assert outcome.messages == 1

    def test_dense_errors_degrade_gracefully(self):
        bob = random_bits(64, 5)
        positions = np.random.default_rng(5).choice(64, size=20, replace=False)
        alice = flip_bits(bob, positions)
        outcome = CompressedSensingReconciliation().reconcile(alice, bob)
        # Cannot succeed, but output must still be a valid bit array.
        assert set(np.unique(outcome.alice_key)).issubset({0, 1})

    def test_iteration_counter_exposed(self):
        bob = random_bits(64, 6)
        alice = flip_bits(bob, [1, 2, 3])
        reconciler = CompressedSensingReconciliation()
        reconciler.reconcile(alice, bob)
        assert reconciler.last_decoder_iterations >= 3

    def test_indivisible_length_rejected(self):
        with pytest.raises(ConfigurationError):
            CompressedSensingReconciliation(block_bits=64).reconcile(
                random_bits(70, 0), random_bits(70, 0)
            )


class TestReconciliationOutcome:
    def test_outcome_validation(self):
        with pytest.raises(ConfigurationError):
            ReconciliationOutcome(
                alice_key=np.zeros(4, dtype=np.uint8),
                bob_key=np.zeros(5, dtype=np.uint8),
                messages=0,
                bytes_exchanged=0,
            )
