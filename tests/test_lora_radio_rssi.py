"""Tests for transceiver models, link budget and RSSI sampling."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import LinkBudget, noise_floor_dbm, sensitivity_dbm
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


class TestRegisterRssiSampler:
    def _sampler(self, device=DRAGINO_LORA_SHIELD):
        return RegisterRssiSampler(phy=LoRaPHYConfig(), device=device)

    def test_one_sample_per_symbol(self):
        sampler = self._sampler()
        assert sampler.n_samples == sampler.phy.total_symbols

    def test_sample_times_span_reception(self):
        sampler = self._sampler()
        times = sampler.sample_times(10.0)
        assert times[0] > 10.0
        assert times[-1] == pytest.approx(10.0 + sampler.n_samples * sampler.phy.symbol_time_s)

    def test_quantized_to_resolution(self):
        sampler = self._sampler()
        samples = sampler.sample(lambda t: np.full_like(t, -90.3), 0.0, seed=1)
        steps = samples / sampler.device.rssi_resolution_db
        np.testing.assert_allclose(steps, np.round(steps))

    def test_floor_is_enforced(self):
        sampler = self._sampler()
        samples = sampler.sample(lambda t: np.full_like(t, -500.0), 0.0, seed=1)
        assert np.all(samples >= sampler.device.rssi_floor_dbm)

    def test_offset_shifts_mean(self):
        offset_device = TransceiverModel(
            name="offset", chip="SX1278", rssi_offset_db=5.0, rssi_noise_std_db=0.0
        )
        clean_device = TransceiverModel(
            name="clean", chip="SX1278", rssi_offset_db=0.0, rssi_noise_std_db=0.0
        )
        power = lambda t: np.full_like(t, -90.0)
        shifted = self._sampler(offset_device).sample(power, 0.0, seed=1)
        clean = self._sampler(clean_device).sample(power, 0.0, seed=1)
        assert np.mean(shifted) - np.mean(clean) == pytest.approx(5.0, abs=0.01)

    def test_deterministic_given_seed(self):
        sampler = self._sampler()
        power = lambda t: -90.0 + 0.5 * np.sin(t)
        a = sampler.sample(power, 0.0, seed=9)
        b = sampler.sample(power, 0.0, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_wrong_shape_power_function_rejected(self):
        sampler = self._sampler()
        with pytest.raises(ConfigurationError):
            sampler.sample(lambda t: np.array([-90.0]), 0.0, seed=1)
