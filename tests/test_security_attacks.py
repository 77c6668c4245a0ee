"""Tests for the eavesdropping and imitating attack harnesses."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.privacy.amplification import amplify_to_bytes
from repro.reconciliation.mac import verify_mac
from repro.security.attacks import (
    AttackReport,
    collect_attack_traces,
    invert_syndrome,
    run_attack,
)


@pytest.fixture(scope="module")
def eavesdrop_report(tiny_pipeline):
    return run_attack(tiny_pipeline, "eavesdropper", n_traces=1, n_rounds=256)


@pytest.fixture(scope="module")
def imitator_report(tiny_pipeline):
    return run_attack(tiny_pipeline, "imitator", n_traces=1, n_rounds=256)


class TestHarness:
    def test_unknown_attacker_rejected(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            run_attack(tiny_pipeline, "mallory")

    def test_traces_carry_attacker_recordings(self, tiny_pipeline):
        traces = collect_attack_traces(
            tiny_pipeline, "eavesdropper", n_traces=1, n_rounds=16
        )
        assert "eavesdropper" in traces[0].eve

    def test_report_shape(self, eavesdrop_report):
        assert isinstance(eavesdrop_report, AttackReport)
        assert eavesdrop_report.n_blocks > 0


class TestEavesdroppingAttack:
    def test_legitimate_parties_agree(self, eavesdrop_report):
        assert eavesdrop_report.legitimate_agreement > 0.85

    def test_eve_is_near_chance(self, eavesdrop_report):
        # Paper Fig. 15a: 42-51% for the eavesdropper.
        assert eavesdrop_report.eve_agreement < 0.65

    def test_syndrome_gives_eve_no_material_lift(self, eavesdrop_report):
        assert (
            eavesdrop_report.eve_agreement
            <= eavesdrop_report.eve_raw_agreement + 0.08
        )

    def test_eve_channel_uncorrelated(self, eavesdrop_report):
        assert abs(eavesdrop_report.eve_feature_correlation) < 0.4


class TestImitatingAttack:
    def test_legitimate_parties_agree(self, imitator_report):
        assert imitator_report.legitimate_agreement > 0.85

    def test_imitator_below_legitimate(self, imitator_report):
        assert (
            imitator_report.eve_agreement
            < imitator_report.legitimate_agreement - 0.1
        )

    def test_imitator_sees_some_large_scale_structure(self, imitator_report):
        # Fig. 16: the overall pattern is similar (nonzero correlation) but
        # far from the legitimate reciprocity.
        assert imitator_report.eve_feature_correlation > 0.0

    def test_imitator_cannot_build_the_key(self, imitator_report):
        # With agreement this far below 1, the probability of assembling a
        # matching 128-bit key is negligible.
        assert imitator_report.eve_agreement < 0.9


class TestSyndromeInversion:
    """The known leak, pinned: Bob's public syndrome gives his key away.

    Eve inverts each block's syndrome offline with the numpy-only
    attacker and tests her candidate against the block's MAC, which Bob
    keys with his own transformed block; the public key-confirmation
    commitments then tell her which blocks were amplified.  Step 2 of
    the leak fix (a code-offset reconciler, a MAC Eve cannot test
    offline) must flip both assertions, and CHANGES.md must record the
    flip.
    """

    SESSIONS = 20

    def test_eve_recovers_blocks_and_keys(self, tiny_pipeline):
        reconciler = tiny_pipeline.reconciler
        blocks = recovered = keyed = stolen = 0
        for index in range(self.SESSIONS):
            messages = []

            def tap(message):
                messages.append(message)
                return message

            session = tiny_pipeline.build_session()
            result = session.run(
                tiny_pipeline.collect_trace(f"eve-invert-{index}", n_rounds=256),
                tamper=tap,
            )
            candidates = {}
            for message in messages:
                candidate = invert_syndrome(reconciler, message.syndrome)
                blocks += 1
                if verify_mac(
                    reconciler.bloom.transform(candidate), message.body(), message.mac
                ):
                    recovered += 1
                    candidates[message.block_index] = candidate
            if result.final_key_bob is None:
                continue
            keyed += 1
            if all(block in candidates for block in result.verified_blocks):
                eve_key = amplify_to_bytes(
                    np.concatenate([candidates[b] for b in result.verified_blocks]),
                    session.final_key_bits,
                )
                stolen += eve_key == result.final_key_bob
        assert blocks > 0 and keyed > 0
        assert recovered >= 0.9 * blocks
        assert stolen >= 0.8 * keyed
