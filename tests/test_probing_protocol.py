"""Tests for the probing protocol and trace containers."""

import numpy as np
import pytest

from repro.channel.scenario import ScenarioName, scenario_config
from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD, MULTITECH_XDOT
from repro.probing.eve import EveConfig, build_eavesdropping_eve, build_imitating_eve
from repro.probing.protocol import ProbingProtocol
from repro.probing.trace import EveTrace, ProbeTrace
from repro.utils.rng import SeedSequenceFactory


def make_protocol(seed=0, scenario=ScenarioName.V2I_RURAL, phy=None, **kwargs):
    seeds = SeedSequenceFactory(seed)
    config = scenario_config(scenario)
    alice, bob = config.build_trajectories(seeds)
    from repro.channel.mobility import RelativeMotion

    motion = RelativeMotion(alice, bob)
    channel = config.build_channel(seeds, motion)
    protocol = ProbingProtocol(
        channel=channel,
        phy=phy if phy is not None else LoRaPHYConfig(),
        alice_device=DRAGINO_LORA_SHIELD,
        bob_device=DRAGINO_LORA_SHIELD,
        **kwargs,
    )
    return protocol, seeds, config, (alice, bob), channel


class TestProtocolTiming:
    def test_round_period_includes_both_airtimes(self):
        protocol, *_ = make_protocol()
        assert protocol.round_period_s() > 2 * protocol.phy.airtime_s

    def test_round_starts_spaced_by_period(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(4, seeds)
        gaps = np.diff(trace.round_start_s)
        np.testing.assert_allclose(gaps, protocol.round_period_s(), rtol=1e-9)

    def test_inter_round_gap_extends_period(self):
        fast, *_ = make_protocol()
        slow, *_ = make_protocol(inter_round_gap_s=1.0)
        assert slow.round_period_s() == pytest.approx(fast.round_period_s() + 1.0)

    def test_zero_rounds_rejected(self):
        protocol, seeds, *_ = make_protocol()
        with pytest.raises(ConfigurationError):
            protocol.run(0, seeds)


class TestProtocolMeasurements:
    def test_trace_shapes(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(5, seeds)
        assert trace.n_rounds == 5
        assert trace.alice_rssi.shape == (5, protocol.phy.total_symbols)
        assert trace.bob_rssi.shape == trace.alice_rssi.shape

    def test_deterministic_given_seed(self):
        protocol_a, seeds_a, *_ = make_protocol(seed=3)
        protocol_b, seeds_b, *_ = make_protocol(seed=3)
        trace_a = protocol_a.run(3, seeds_a)
        trace_b = protocol_b.run(3, seeds_b)
        np.testing.assert_array_equal(trace_a.alice_rssi, trace_b.alice_rssi)
        np.testing.assert_array_equal(trace_a.bob_rssi, trace_b.bob_rssi)

    def test_rssi_values_plausible(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(3, seeds)
        assert np.all(trace.alice_rssi > -140)
        assert np.all(trace.alice_rssi < -20)

    def test_km_scale_link_stays_valid(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(5, seeds)
        assert trace.n_valid_rounds == 5

    def test_duration_covers_all_rounds(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(4, seeds)
        assert trace.duration_s >= 3 * protocol.round_period_s()


class TestEavesdroppers:
    def _run_with_eve(self, builder, n_rounds=3):
        protocol, seeds, config, (alice, bob), channel = make_protocol()
        eve = builder(
            config, seeds, channel, alice, bob,
        )
        trace = protocol.run(n_rounds, seeds, eavesdroppers=[eve])
        return trace, eve

    def test_eavesdropping_eve_records_both_directions(self):
        trace, eve = self._run_with_eve(build_eavesdropping_eve)
        assert eve.label in trace.eve
        eve_trace = trace.eve[eve.label]
        assert eve_trace.of_alice_rssi.shape == trace.bob_rssi.shape
        assert eve_trace.of_bob_rssi.shape == trace.alice_rssi.shape

    def test_imitating_eve_records_both_directions(self):
        trace, eve = self._run_with_eve(build_imitating_eve)
        assert trace.eve[eve.label].of_alice_rssi.shape == trace.bob_rssi.shape

    def test_eve_measurements_differ_from_legit(self):
        trace, eve = self._run_with_eve(build_imitating_eve)
        assert not np.allclose(trace.eve[eve.label].of_bob_rssi, trace.alice_rssi)

    def test_eve_config_validation(self):
        with pytest.raises(ConfigurationError):
            EveConfig(offset_m=0.0)

    def test_multiple_eavesdroppers(self):
        protocol, seeds, config, (alice, bob), channel = make_protocol()
        eve1 = build_eavesdropping_eve(
            config, seeds, channel, alice, bob, EveConfig(label="e1")
        )
        eve2 = build_imitating_eve(
            config, seeds, channel, alice, bob, EveConfig(label="e2")
        )
        trace = protocol.run(2, seeds, eavesdroppers=[eve1, eve2])
        assert set(trace.eve) == {"e1", "e2"}


class TestTraceContainers:
    def test_valid_only_filters_rounds(self):
        protocol, seeds, *_ = make_protocol()
        trace = protocol.run(4, seeds)
        trace.valid[1] = False
        clean = trace.valid_only()
        assert clean.n_rounds == 3
        np.testing.assert_array_equal(clean.alice_rssi[0], trace.alice_rssi[0])
        np.testing.assert_array_equal(clean.alice_rssi[1], trace.alice_rssi[2])

    def test_valid_only_filters_eve(self):
        protocol, seeds, config, (alice, bob), channel = make_protocol()
        eve = build_eavesdropping_eve(config, seeds, channel, alice, bob)
        trace = protocol.run(4, seeds, eavesdroppers=[eve])
        trace.valid[0] = False
        clean = trace.valid_only()
        assert clean.eve[eve.label].of_alice_rssi.shape[0] == 3

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ProbeTrace(
                phy=LoRaPHYConfig(),
                alice_rssi=np.zeros((3, 5)),
                bob_rssi=np.zeros((4, 5)),
                round_start_s=np.zeros(3),
                valid=np.ones(3, dtype=bool),
            )

    def test_packet_rssi_fallback_rounds_half_up(self):
        """Without packet RSSI, tied row means round toward +infinity.

        ``quantize_packet_rssi`` is the one rounding rule; ``ndarray.round``
        would send -87.5 to -88.0 (half to even) but -86.5 to -86.0.
        """
        register = np.array([[-87.0, -88.0], [-86.0, -87.0], [-90.0, -90.0]])
        trace = ProbeTrace(
            phy=LoRaPHYConfig(),
            alice_rssi=register,
            bob_rssi=register - 1.0,
            round_start_s=np.zeros(3),
            valid=np.ones(3, dtype=bool),
        )
        np.testing.assert_array_equal(trace.alice_prssi, [-87.0, -86.0, -90.0])
        np.testing.assert_array_equal(trace.bob_prssi, [-88.0, -87.0, -91.0])

    def test_eve_trace_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            EveTrace(of_alice_rssi=np.zeros((2, 3)), of_bob_rssi=np.zeros((2, 4)))
