"""Pinned-seed equivalence of fault-free probing and the frozen loop.

On a fault-free link ``ProbingProtocol.run`` is a one-session call to
the stacked kernel (``run_fastpath_group``); it must reproduce the
frozen per-attempt loop (``tests/oracles/probing_loop.py``), the oracle,
*bit-for-bit*: same register-RSSI matrices, same packet RSSI, same
eavesdropper traces, same round timestamps and validity flags.  The
oracle shares no code with the register pipeline the kernel and
``run_loop`` have in common, so it checks that pipeline on its own.
These tests build two independent protocol instances from the same seed
(separate channel objects, so the lazy channel caches grow under each
path's own query pattern) and compare every trace field with exact
equality.
"""

import numpy as np
import pytest

import repro.probing.protocol as protocol_module
from repro.channel.mobility import RelativeMotion
from repro.channel.scenario import ScenarioName, scenario_config
from repro.faults.adversary import AdversaryPlan, build_adversary
from repro.faults.link import LinkFaultModel
from repro.faults.plan import FaultPlan
from repro.lora.airtime import CodingRate, LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD, MULTITECH_XDOT
from repro.lora.rssi import quantize_packet_rssi
from repro.probing.eve import EveConfig, build_eavesdropping_eve, build_imitating_eve
from repro.probing.protocol import ProbingProtocol
from repro.utils.rng import SeedSequenceFactory
from tests.oracles.probing_loop import reference_run_loop

FAST_PHY = LoRaPHYConfig(spreading_factor=7, coding_rate=CodingRate.CR_4_5)


def build_setup(
    seed,
    scenario=ScenarioName.V2I_RURAL,
    phy=FAST_PHY,
    n_eves=0,
    devices=(DRAGINO_LORA_SHIELD, DRAGINO_LORA_SHIELD),
    **kwargs,
):
    """Fresh protocol + seed factory + eavesdroppers for one run.

    Every call builds independent channel/trajectory objects so the two
    execution paths cannot share lazily-grown channel state.
    """
    seeds = SeedSequenceFactory(seed)
    config = scenario_config(scenario)
    alice, bob = config.build_trajectories(seeds)
    motion = RelativeMotion(alice, bob)
    channel = config.build_channel(seeds, motion)
    eavesdroppers = []
    if n_eves >= 1:
        eavesdroppers.append(
            build_eavesdropping_eve(
                config, seeds, channel, alice, bob, EveConfig(label="eve-passive")
            )
        )
    if n_eves >= 2:
        eavesdroppers.append(
            build_imitating_eve(
                config, seeds, channel, alice, bob, EveConfig(label="eve-imitator")
            )
        )
    protocol = ProbingProtocol(
        channel=channel,
        phy=phy,
        alice_device=devices[0],
        bob_device=devices[1],
        **kwargs,
    )
    return protocol, seeds, eavesdroppers


def assert_traces_bit_identical(loop_trace, fast_trace):
    """Every array in the two traces must match exactly (no tolerance)."""
    np.testing.assert_array_equal(loop_trace.round_start_s, fast_trace.round_start_s)
    np.testing.assert_array_equal(loop_trace.alice_rssi, fast_trace.alice_rssi)
    np.testing.assert_array_equal(loop_trace.bob_rssi, fast_trace.bob_rssi)
    np.testing.assert_array_equal(loop_trace.alice_prssi, fast_trace.alice_prssi)
    np.testing.assert_array_equal(loop_trace.bob_prssi, fast_trace.bob_prssi)
    np.testing.assert_array_equal(loop_trace.valid, fast_trace.valid)
    np.testing.assert_array_equal(loop_trace.retries, fast_trace.retries)
    np.testing.assert_array_equal(loop_trace.dropped, fast_trace.dropped)
    assert set(loop_trace.eve) == set(fast_trace.eve)
    for label, eve_trace in loop_trace.eve.items():
        np.testing.assert_array_equal(
            eve_trace.of_alice_rssi, fast_trace.eve[label].of_alice_rssi
        )
        np.testing.assert_array_equal(
            eve_trace.of_bob_rssi, fast_trace.eve[label].of_bob_rssi
        )


def run_both_paths(seed, n_rounds=12, **setup_kwargs):
    """Run the frozen loop and ``run`` from identical fresh state."""
    loop_protocol, loop_seeds, loop_eves = build_setup(seed, **setup_kwargs)
    loop_trace = reference_run_loop(loop_protocol, n_rounds, loop_seeds, loop_eves)
    fast_protocol, fast_seeds, fast_eves = build_setup(seed, **setup_kwargs)
    fast_trace = fast_protocol.run(n_rounds, fast_seeds, eavesdroppers=fast_eves)
    return loop_trace, fast_trace


class TestBitIdentity:
    @pytest.mark.parametrize("scenario", list(ScenarioName))
    def test_all_scenarios(self, scenario):
        loop_trace, fast_trace = run_both_paths(101, scenario=scenario)
        assert_traces_bit_identical(loop_trace, fast_trace)

    def test_with_eavesdroppers(self):
        loop_trace, fast_trace = run_both_paths(
            7, scenario=ScenarioName.V2V_URBAN, n_eves=2
        )
        assert fast_trace.eve  # the scenario really exercised the eve path
        assert_traces_bit_identical(loop_trace, fast_trace)

    def test_unsmoothed_register(self):
        # MULTITECH_XDOT uses rssi_smoothing_alpha == 1.0 (no EWMA branch).
        loop_trace, fast_trace = run_both_paths(
            3, devices=(MULTITECH_XDOT, MULTITECH_XDOT)
        )
        assert_traces_bit_identical(loop_trace, fast_trace)

    def test_asymmetric_devices_and_gap(self):
        loop_trace, fast_trace = run_both_paths(
            21,
            devices=(DRAGINO_LORA_SHIELD, MULTITECH_XDOT),
            inter_round_gap_s=0.75,
        )
        assert_traces_bit_identical(loop_trace, fast_trace)

    def test_nonzero_start_time(self):
        loop_protocol, loop_seeds, _ = build_setup(5)
        loop_trace = reference_run_loop(loop_protocol, 6, loop_seeds, start_time_s=17.3)
        fast_protocol, fast_seeds, _ = build_setup(5)
        fast_trace = fast_protocol.run(6, fast_seeds, start_time_s=17.3)
        assert_traces_bit_identical(loop_trace, fast_trace)

    def test_paper_scale_phy(self):
        # SF12 at paper scale (fewer rounds here to keep the suite fast).
        loop_trace, fast_trace = run_both_paths(
            31, n_rounds=6, phy=LoRaPHYConfig(), scenario=ScenarioName.V2V_RURAL
        )
        assert_traces_bit_identical(loop_trace, fast_trace)


class TestDispatch:
    def test_run_uses_fast_path_when_fault_free(self):
        protocol, seeds, _ = build_setup(2)
        protocol.run_loop = None  # would raise if the dispatcher fell back
        trace = protocol.run(3, seeds)
        assert trace.n_rounds == 3

    def test_run_matches_loop_output(self):
        dispatch_protocol, dispatch_seeds, _ = build_setup(19)
        via_run = dispatch_protocol.run(5, dispatch_seeds)
        loop_protocol, loop_seeds, _ = build_setup(19)
        via_loop = loop_protocol.run_loop(5, loop_seeds)
        assert_traces_bit_identical(via_loop, via_run)

    def test_fault_model_falls_back_to_loop(self, monkeypatch):
        protocol, seeds, _ = build_setup(4)
        protocol.fault_model = LinkFaultModel(
            FaultPlan.lossy(0.3, mean_burst=2.0, snr_dependent=False), seeds
        )
        # The stacked kernel must not be consulted.
        monkeypatch.setattr(protocol_module, "run_fastpath_group", None)
        trace = protocol.run(4, seeds)
        assert trace.n_rounds == 4
        assert trace.retry_limit is not None  # the ARQ loop produced it

    def test_adversary_falls_back_to_loop(self, monkeypatch):
        protocol, seeds, _ = build_setup(6)
        protocol.adversary = build_adversary(AdversaryPlan(jamming_rate=0.3), seeds)
        monkeypatch.setattr(protocol_module, "run_fastpath_group", None)
        trace = protocol.run(4, seeds)
        assert trace.n_rounds == 4
        assert trace.retry_limit is not None


class TestQuantizationRule:
    def test_half_ties_round_toward_plus_infinity(self):
        # Python's round() would send -86.5 to -86.0 but -87.5 to -88.0
        # (banker's).  The documented rule sends every .5 tie up.
        assert quantize_packet_rssi(-86.5) == -86.0
        assert quantize_packet_rssi(-87.5) == -87.0
        assert quantize_packet_rssi(2.5) == 3.0
        assert quantize_packet_rssi(3.5) == 4.0

    def test_matches_python_round_away_from_ties(self):
        values = np.linspace(-120.0, -40.0, 997)  # no exact .5 ties
        expected = np.array([round(v) for v in values], dtype=float)
        np.testing.assert_array_equal(quantize_packet_rssi(values), expected)

    def test_scalar_input_returns_float(self):
        result = quantize_packet_rssi(-88.2)
        assert isinstance(result, float)
        assert result == -88.0

    def test_respects_resolution(self):
        np.testing.assert_array_equal(
            quantize_packet_rssi(np.array([-88.4, -88.6]), resolution_db=0.5),
            np.array([-88.5, -88.5]),
        )
