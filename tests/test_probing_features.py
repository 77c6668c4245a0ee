"""Tests for feature extraction and the paper's core preliminary claims."""

import numpy as np
import pytest

from repro.channel.mobility import RelativeMotion
from repro.channel.scenario import ScenarioName, scenario_config
from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD
from repro.probing.features import (
    FeatureConfig,
    adjacent_register_rssi,
    arrssi_sequences,
    eve_arrssi_sequences,
)
from repro.probing.eve import build_imitating_eve
from repro.probing.protocol import ProbingProtocol
from repro.utils.rng import SeedSequenceFactory


def run_session(seed=0, n_rounds=40, scenario=ScenarioName.V2I_URBAN, with_eve=False):
    seeds = SeedSequenceFactory(seed)
    config = scenario_config(scenario)
    alice, bob = config.build_trajectories(seeds)
    motion = RelativeMotion(alice, bob)
    channel = config.build_channel(seeds, motion)
    protocol = ProbingProtocol(
        channel=channel,
        phy=LoRaPHYConfig(),
        alice_device=DRAGINO_LORA_SHIELD,
        bob_device=DRAGINO_LORA_SHIELD,
    )
    eavesdroppers = []
    if with_eve:
        eavesdroppers.append(
            build_imitating_eve(config, seeds, channel, alice, bob)
        )
    return protocol.run(n_rounds, seeds, eavesdroppers=eavesdroppers)


class TestFeatureConfig:
    def test_defaults_match_paper(self):
        config = FeatureConfig()
        assert config.window_fraction == pytest.approx(0.10)

    def test_window_length_at_least_one(self):
        assert FeatureConfig(window_fraction=0.001).window_length(50) == 1

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(window_fraction=1.5)

    def test_invalid_values_per_packet_rejected(self):
        with pytest.raises(ConfigurationError):
            FeatureConfig(values_per_packet=0)


class TestAdjacentRegisterRssi:
    def test_shapes(self):
        first = np.random.default_rng(0).normal(-90, 2, size=(10, 50))
        second = np.random.default_rng(1).normal(-90, 2, size=(10, 50))
        config = FeatureConfig(window_fraction=0.2, values_per_packet=4)
        a, b = adjacent_register_rssi(first, second, config)
        assert a.shape == (10, 4)
        assert b.shape == (10, 4)

    def test_window_narrower_than_blocks_degrades_gracefully(self):
        first = np.zeros((4, 50))
        second = np.zeros((4, 50))
        config = FeatureConfig(window_fraction=0.04, values_per_packet=8)
        a, _ = adjacent_register_rssi(first, second, config)
        assert a.shape[1] <= 8

    def test_first_window_is_read_boundary_outward(self):
        # The first packet's samples ramp upward; its window is the packet
        # tail read backwards, so block 0 holds the largest values.
        first = np.tile(np.arange(50.0), (1, 1))
        second = np.zeros((1, 50))
        config = FeatureConfig(window_fraction=0.2, values_per_packet=2)
        a, _ = adjacent_register_rssi(first, second, config)
        assert a[0, 0] > a[0, 1]

    def test_second_window_is_boundary_onward(self):
        first = np.zeros((1, 50))
        second = np.tile(np.arange(50.0), (1, 1))
        config = FeatureConfig(window_fraction=0.2, values_per_packet=2)
        _, b = adjacent_register_rssi(first, second, config)
        assert b[0, 0] < b[0, 1]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ConfigurationError):
            adjacent_register_rssi(np.zeros((3, 5)), np.zeros((3, 6)))


class TestPaperClaims:
    """The preliminary-study findings the whole system is motivated by."""

    def test_arrssi_correlates_better_than_prssi(self):
        # Paper Fig. 3: rRSSI-derived features beat pRSSI in every scenario.
        # pRSSI is the trace's own, the chip's noisy whole-packet report.
        trace = run_session(seed=1, n_rounds=60)
        prssi_corr = np.corrcoef(trace.alice_prssi, trace.bob_prssi)[0, 1]
        bob_ar, alice_ar = arrssi_sequences(
            trace, FeatureConfig(window_fraction=0.10, values_per_packet=1)
        )
        arrssi_corr = np.corrcoef(bob_ar, alice_ar)[0, 1]
        assert arrssi_corr > prssi_corr

    def test_arrssi_correlation_is_high(self):
        trace = run_session(seed=2, n_rounds=60)
        bob_ar, alice_ar = arrssi_sequences(
            trace, FeatureConfig(window_fraction=0.10, values_per_packet=1)
        )
        assert np.corrcoef(bob_ar, alice_ar)[0, 1] > 0.7

    def test_eve_arrssi_correlates_worse_than_bobs(self):
        # Paper Fig. 16: an imitating Eve sees a different small-scale channel.
        trace = run_session(seed=3, n_rounds=60, with_eve=True)
        config = FeatureConfig(window_fraction=0.10, values_per_packet=1)
        bob_ar, alice_ar = arrssi_sequences(trace, config)
        eve_as_bob, _ = eve_arrssi_sequences(trace, "imitator", config)
        legit = np.corrcoef(bob_ar, alice_ar)[0, 1]
        eve = np.corrcoef(eve_as_bob, alice_ar)[0, 1]
        assert legit > eve + 0.2

    def test_sequences_have_expected_length(self):
        trace = run_session(seed=4, n_rounds=20)
        config = FeatureConfig(values_per_packet=4)
        bob_ar, alice_ar = arrssi_sequences(trace, config)
        assert len(bob_ar) == len(alice_ar) == 20 * 4
