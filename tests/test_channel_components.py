"""Tests for doppler, path loss, shadowing and fading components."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.doppler import (
    coherence_time_from_speeds_s,
    coherence_time_s,
    doppler_shift_hz,
    jakes_autocorrelation,
)
from repro.channel.fading import SpatialJakesFading
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.channel.shadowing import GudmundsonShadowing
from repro.exceptions import ConfigurationError


class TestDoppler:
    def test_paper_example_40kmh(self):
        # |V_A - V_B| = 40 km/h at 434 MHz -> f_d ~= 16 Hz, T_c ~= 26 ms.
        fd = doppler_shift_hz(40.0 / 3.6, 434e6)
        assert fd == pytest.approx(16.1, abs=0.2)
        assert coherence_time_s(fd) == pytest.approx(0.026, abs=0.002)

    def test_static_link_never_decorrelates(self):
        assert coherence_time_s(0.0) == float("inf")

    def test_coherence_from_speeds_uses_relative_speed(self):
        same = coherence_time_from_speeds_s(50 / 3.6, 50 / 3.6, 434e6)
        different = coherence_time_from_speeds_s(50 / 3.6, 10 / 3.6, 434e6)
        assert same == float("inf")
        assert different < 1.0

    def test_autocorrelation_is_one_at_zero_lag(self):
        assert jakes_autocorrelation(0.0, 20.0) == pytest.approx(1.0)

    def test_autocorrelation_decays_with_lag(self):
        assert abs(jakes_autocorrelation(0.05, 20.0)) < jakes_autocorrelation(0.001, 20.0)

    def test_autocorrelation_vectorized(self):
        taus = np.linspace(0, 0.1, 5)
        values = jakes_autocorrelation(taus, 20.0)
        assert values.shape == (5,)

    def test_negative_doppler_rejected(self):
        with pytest.raises(ValueError):
            coherence_time_s(-1.0)


class TestPathLoss:
    def test_free_space_20db_per_decade(self):
        model = FreeSpacePathLoss()
        assert model.loss_db(1000.0) - model.loss_db(100.0) == pytest.approx(20.0)

    def test_log_distance_exponent_controls_slope(self):
        model = LogDistancePathLoss(exponent=3.0)
        assert model.loss_db(1000.0) - model.loss_db(100.0) == pytest.approx(30.0)

    def test_log_distance_matches_free_space_at_reference(self):
        log_model = LogDistancePathLoss(exponent=2.0, reference_distance_m=1.0)
        fs_model = FreeSpacePathLoss()
        assert log_model.loss_db(1.0) == pytest.approx(fs_model.loss_db(1.0))

    @given(d=st.floats(min_value=1.0, max_value=20_000.0))
    @settings(max_examples=30)
    def test_loss_monotone_in_distance(self, d):
        model = LogDistancePathLoss(exponent=2.7)
        assert model.loss_db(d * 1.5) > model.loss_db(d)

    def test_near_field_clamped(self):
        model = LogDistancePathLoss()
        assert np.isfinite(model.loss_db(0.0))


class TestShadowing:
    def test_deterministic_in_seed(self):
        a = GudmundsonShadowing(6.0, 50.0, seed=3).value_at(np.arange(100.0))
        b = GudmundsonShadowing(6.0, 50.0, seed=3).value_at(np.arange(100.0))
        np.testing.assert_array_equal(a, b)

    def test_zero_sigma_is_identically_zero(self):
        process = GudmundsonShadowing(0.0, 50.0, seed=1)
        np.testing.assert_array_equal(process.value_at(np.arange(10.0)), np.zeros(10))

    def test_marginal_std_near_sigma(self):
        process = GudmundsonShadowing(6.0, 10.0, seed=0)
        # Sample far apart so values are nearly independent.
        values = process.value_at(np.arange(0.0, 50_000.0, 100.0))
        assert 4.5 < np.std(values) < 7.5

    def test_nearby_points_are_correlated(self):
        process = GudmundsonShadowing(6.0, 50.0, seed=2)
        base = np.arange(0.0, 20_000.0, 200.0)
        a = process.value_at(base)
        b = process.value_at(base + 5.0)  # 5 m apart << 50 m decorrelation
        assert np.corrcoef(a, b)[0, 1] > 0.9

    def test_distant_points_decorrelate(self):
        process = GudmundsonShadowing(6.0, 20.0, seed=2)
        base = np.arange(0.0, 40_000.0, 400.0)
        a = process.value_at(base)
        b = process.value_at(base + 200.0)  # 10 decorrelation distances
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.3

    def test_negative_displacement_supported(self):
        process = GudmundsonShadowing(6.0, 50.0, seed=4)
        assert np.isfinite(process.value_at(-123.0))

    def test_values_independent_of_query_history(self):
        # Chunked queries grow the grid downward step by step; every value
        # must still equal a single bulk query's, bit for bit.
        for seed in range(20):
            rng = np.random.default_rng(seed)
            displacements = rng.uniform(-400.0, 2500.0, size=800)
            process = GudmundsonShadowing(6.0, 50.0, seed=seed)
            chunked = np.concatenate(
                [process.value_at(chunk) for chunk in np.array_split(displacements, 80)]
            )
            bulk = GudmundsonShadowing(6.0, 50.0, seed=seed).value_at(displacements)
            np.testing.assert_array_equal(chunked, bulk)

    def test_interpolation_is_continuous(self):
        process = GudmundsonShadowing(6.0, 50.0, seed=5)
        left = process.value_at(10.0)
        right = process.value_at(10.001)
        assert abs(left - right) < 0.1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_displacement_rejected(self, bad):
        process = GudmundsonShadowing(6.0, 50.0, seed=6)
        with pytest.raises(ConfigurationError):
            process.value_at(bad)
        with pytest.raises(ConfigurationError):
            process.value_at(np.array([0.0, bad, 10.0]))
        with pytest.raises(ConfigurationError):
            process.shifted(25.0).value_at(bad)
        # A rejected query leaves the realization intact.
        fresh = GudmundsonShadowing(6.0, 50.0, seed=6)
        assert process.value_at(-40.0) == fresh.value_at(-40.0)

    def test_theoretical_correlation(self):
        process = GudmundsonShadowing(6.0, 50.0, seed=1)
        assert process.theoretical_correlation(0.0) == 1.0
        assert process.theoretical_correlation(50.0) == pytest.approx(np.exp(-1))


class TestFading:
    def test_rayleigh_envelope_statistics(self):
        fading = SpatialJakesFading(wavelength_m=0.6912, n_paths=64, seed=0)
        # Sample many independent displacements (several wavelengths apart).
        displacements = np.arange(0.0, 20_000.0) * 3.5
        envelope = np.abs(fading.complex_gain(displacements))
        # Rayleigh with unit average power: mean envelope = sqrt(pi)/2.
        assert np.mean(envelope) == pytest.approx(np.sqrt(np.pi) / 2, abs=0.05)
        assert np.mean(envelope**2) == pytest.approx(1.0, abs=0.1)

    def test_decorrelates_beyond_half_wavelength(self):
        wavelength = 0.6912
        fading = SpatialJakesFading(wavelength_m=wavelength, n_paths=128, seed=1)
        base = np.arange(0.0, 5000.0) * wavelength * 2.7
        original = np.abs(fading.complex_gain(base))
        shifted = np.abs(fading.complex_gain(base + wavelength))
        assert abs(np.corrcoef(original, shifted)[0, 1]) < 0.35

    def test_correlated_within_small_displacement(self):
        wavelength = 0.6912
        fading = SpatialJakesFading(wavelength_m=wavelength, n_paths=128, seed=1)
        base = np.arange(0.0, 5000.0) * wavelength * 2.7
        original = np.abs(fading.complex_gain(base))
        shifted = np.abs(fading.complex_gain(base + wavelength / 50.0))
        assert np.corrcoef(original, shifted)[0, 1] > 0.95

    def test_rician_concentrates_envelope(self):
        rayleigh = SpatialJakesFading(0.6912, n_paths=64, rician_k=0.0, seed=3)
        rician = SpatialJakesFading(0.6912, n_paths=64, rician_k=8.0, seed=3)
        displacements = np.arange(0.0, 5000.0) * 3.5
        std_rayleigh = np.std(np.abs(rayleigh.complex_gain(displacements)))
        std_rician = np.std(np.abs(rician.complex_gain(displacements)))
        assert std_rician < std_rayleigh

    def test_gain_db_is_floored(self):
        fading = SpatialJakesFading(0.6912, n_paths=64, seed=4)
        gains = fading.gain_db(np.arange(0.0, 1000.0) * 0.5)
        assert np.all(gains >= -60.0 - 1e-9)

    def test_fixed_doppler_over_time(self):
        # A fixed maximum Doppler fd over time t is displacement
        # wavelength * fd * t: unit average power over 100 Doppler cycles.
        fading = SpatialJakesFading(0.6912, n_paths=64, seed=5)
        times = np.linspace(0.0, 10.0, 2000)
        envelope = np.abs(fading.complex_gain(0.6912 * 10.0 * times))
        assert np.mean(envelope**2) == pytest.approx(1.0, abs=0.25)

    def test_zero_displacement_is_static(self):
        # A stopped vehicle sees a frozen channel.
        fading = SpatialJakesFading(0.6912, n_paths=64, seed=6)
        gains = fading.complex_gain(np.zeros(50))
        assert np.allclose(gains, gains[0])

    def test_too_few_paths_rejected(self):
        with pytest.raises(ConfigurationError):
            SpatialJakesFading(0.6912, n_paths=2)

    def test_deterministic_in_seed(self):
        a = SpatialJakesFading(0.6912, seed=7).complex_gain(np.arange(10.0))
        b = SpatialJakesFading(0.6912, seed=7).complex_gain(np.arange(10.0))
        np.testing.assert_array_equal(a, b)
