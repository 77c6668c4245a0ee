"""Tests for transceiver models, link budget and RSSI sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ConfigurationError
from repro.lora.airtime import STANDARD_BANDWIDTHS_HZ, LoRaPHYConfig
from repro.lora.link_budget import (
    _SNR_LIMIT_DB,
    LinkBudget,
    noise_floor_dbm,
    sensitivity_dbm,
)
from repro.lora.radio import (
    ALL_DEVICES,
    DRAGINO_LORA_SHIELD,
    MULTITECH_MDOT,
    MULTITECH_XDOT,
    TransceiverModel,
    device_by_name,
)
from repro.lora.rssi import RegisterRssiSampler


class TestDevices:
    def test_three_paper_devices_exist(self):
        assert len(ALL_DEVICES) == 3
        assert {d.chip for d in ALL_DEVICES} == {"SX1272", "SX1278"}

    def test_lookup_by_name(self):
        assert device_by_name("MultiTech xDot") is MULTITECH_XDOT
        assert device_by_name("MultiTech mDot") is MULTITECH_MDOT
        assert device_by_name("Dragino LoRa Shield") is DRAGINO_LORA_SHIELD

    def test_lookup_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError):
            device_by_name("nonexistent radio")

    def test_invalid_noise_rejected(self):
        with pytest.raises(ConfigurationError):
            TransceiverModel(name="x", chip="SX1278", rssi_noise_std_db=-1.0)


class TestLinkBudget:
    def test_noise_floor_125khz(self):
        # -174 + 10*log10(125e3) + 6 = -117.03 dBm.
        assert noise_floor_dbm(125_000.0) == pytest.approx(-117.0, abs=0.1)

    def test_sensitivity_improves_with_sf(self):
        assert sensitivity_dbm(12, 125_000.0) < sensitivity_dbm(7, 125_000.0)

    def test_sf12_sensitivity_matches_datasheet_ballpark(self):
        assert sensitivity_dbm(12, 125_000.0) == pytest.approx(-137.0, abs=1.0)

    def test_received_power_tracks_gain(self):
        budget = LinkBudget(tx_power_dbm=14.0)
        assert budget.received_power_dbm(-100.0) > budget.received_power_dbm(-110.0)

    def test_decodable_near_and_not_far(self):
        budget = LinkBudget()
        phy = LoRaPHYConfig()
        assert budget.is_decodable(-80.0, phy)
        assert not budget.is_decodable(-170.0, phy)

    def test_max_path_loss_is_long_range(self):
        # SF12 LoRa should tolerate >140 dB path loss (the km-scale claim).
        assert LinkBudget().max_path_loss_db(LoRaPHYConfig()) > 140.0

    def test_invalid_sf_rejected(self):
        with pytest.raises(ConfigurationError):
            sensitivity_dbm(13, 125_000.0)


def gains_around_the_limit(budget, phy, ulps=8):
    """The path gain that puts the SNR on the SF's limit, +-``ulps`` ulps.

    The SNR is the gain plus constants, so one of these usually lands on
    the limit exactly and the others straddle it.
    """
    gain = (
        _SNR_LIMIT_DB[phy.spreading_factor]
        + noise_floor_dbm(phy.bandwidth_hz)
        - budget.rx_antenna_gain_dbi
        - budget.eirp_dbm
    )
    return (np.array([gain]).view(np.int64) + np.arange(-ulps, ulps + 1)).view(
        np.float64
    )


class TestArrayDecision:
    """The link budget over an array is the scalar budget, element by element.

    ``ProbingProtocol.run_loop`` decides its attempts from one
    ``snr_db`` call over a look-ahead's gains and ``>=`` the SF's limit,
    where the frozen loop made a scalar ``snr_db`` and ``is_decodable``
    call per reception; the two must agree bit for bit.
    """

    @settings(max_examples=200, deadline=None)
    @given(
        spreading_factor=st.integers(7, 12),
        bandwidth_hz=st.sampled_from(STANDARD_BANDWIDTHS_HZ),
        tx_power_dbm=st.floats(-40.0, 20.0),
        rx_antenna_gain_dbi=st.floats(0.0, 6.0),
        drawn=st.lists(st.floats(-1e4, 10.0), max_size=16),
    )
    def test_snr_and_decodability_match_the_scalar_calls(
        self, spreading_factor, bandwidth_hz, tx_power_dbm, rx_antenna_gain_dbi, drawn
    ):
        budget = LinkBudget(
            tx_power_dbm=tx_power_dbm, rx_antenna_gain_dbi=rx_antenna_gain_dbi
        )
        phy = LoRaPHYConfig(spreading_factor=spreading_factor, bandwidth_hz=bandwidth_hz)
        gains = np.concatenate(
            [drawn, [0.0, -0.0, -300.0, -1e4], gains_around_the_limit(budget, phy)]
        )
        snr = budget.snr_db(gains, phy)
        scalar = np.array([budget.snr_db(gain, phy) for gain in gains.tolist()])
        np.testing.assert_array_equal(snr.view(np.uint64), scalar.view(np.uint64))
        assert (snr >= _SNR_LIMIT_DB[spreading_factor]).tolist() == [
            budget.is_decodable(gain, phy) for gain in gains.tolist()
        ]

    @pytest.mark.parametrize("spreading_factor", range(7, 13))
    def test_the_limit_is_hit_exactly(self, spreading_factor):
        """The default budget puts some gain's SNR exactly on every SF's limit."""
        budget, phy = LinkBudget(), LoRaPHYConfig(spreading_factor=spreading_factor)
        gains = gains_around_the_limit(budget, phy)
        on_limit = budget.snr_db(gains, phy) == _SNR_LIMIT_DB[spreading_factor]
        assert on_limit.any()
        assert all(budget.is_decodable(gain, phy) for gain in gains[on_limit].tolist())


class TestRegisterRssiSampler:
    def _sampler(self, device=DRAGINO_LORA_SHIELD):
        return RegisterRssiSampler(phy=LoRaPHYConfig(), device=device)

    def _read(self, sampler, power, start_s, seed):
        """One reception's register readings of the power trajectory ``power``."""
        times = sampler.reception_times(np.array([start_s]))
        noise = np.random.default_rng(seed).standard_normal(times.shape)
        return sampler.readings_for_power(power(times), noise)[0]

    def test_one_sample_per_symbol(self):
        sampler = self._sampler()
        assert sampler.n_samples == sampler.phy.total_symbols

    def test_reception_times_span_reception(self):
        sampler = self._sampler()
        times = sampler.reception_times(np.array([10.0, 20.0]))
        assert times.shape == (2, sampler.n_samples)
        np.testing.assert_allclose(times[1] - times[0], 10.0)
        assert times[0, 0] > 10.0
        assert times[0, -1] == pytest.approx(
            10.0 + sampler.n_samples * sampler.phy.symbol_time_s
        )

    def test_quantized_to_resolution(self):
        sampler = self._sampler()
        samples = self._read(sampler, lambda t: np.full_like(t, -90.3), 0.0, seed=1)
        steps = samples / sampler.device.rssi_resolution_db
        np.testing.assert_allclose(steps, np.round(steps))

    def test_floor_is_enforced(self):
        sampler = self._sampler()
        samples = self._read(sampler, lambda t: np.full_like(t, -500.0), 0.0, seed=1)
        assert np.all(samples >= sampler.device.rssi_floor_dbm)

    def test_offset_shifts_mean(self):
        offset_device = TransceiverModel(
            name="offset", chip="SX1278", rssi_offset_db=5.0, rssi_noise_std_db=0.0
        )
        clean_device = TransceiverModel(
            name="clean", chip="SX1278", rssi_offset_db=0.0, rssi_noise_std_db=0.0
        )
        power = lambda t: np.full_like(t, -90.0)
        shifted = self._read(self._sampler(offset_device), power, 0.0, seed=1)
        clean = self._read(self._sampler(clean_device), power, 0.0, seed=1)
        assert np.mean(shifted) - np.mean(clean) == pytest.approx(5.0, abs=0.01)

    def test_deterministic_given_seed(self):
        sampler = self._sampler()
        power = lambda t: -90.0 + 0.5 * np.sin(t)
        a = self._read(sampler, power, 0.0, seed=9)
        b = self._read(sampler, power, 0.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_mismatched_noise_shape_rejected(self):
        sampler = self._sampler()
        noise = np.zeros((1, sampler.n_samples))
        with pytest.raises(ConfigurationError):
            sampler.readings_for_power(np.array([[-90.0]]), noise)
