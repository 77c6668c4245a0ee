"""Tests for mobility models, reciprocal channel and scenario presets."""

import numpy as np
import pytest

from repro.channel.mobility import (
    RelativeMotion,
    StaticTrajectory,
    StopAndGoTrajectory,
    StraightLineTrajectory,
)
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import (
    ALL_SCENARIOS,
    Environment,
    LinkType,
    ScenarioName,
    scenario_config,
)
from repro.exceptions import ConfigurationError
from repro.utils.rng import SeedSequenceFactory


class TestTrajectories:
    def test_static_never_moves(self):
        node = StaticTrajectory((3.0, 4.0))
        positions = node.position_m(np.array([0.0, 10.0, 100.0]))
        np.testing.assert_array_equal(positions, [[3, 4]] * 3)
        assert np.all(node.speed_m_s(np.array([0.0, 5.0])) == 0)

    def test_straight_line_speed_and_direction(self):
        node = StraightLineTrajectory((0.0, 0.0), speed_m_s=10.0, heading_deg=90.0)
        pos = node.position_m(np.array([2.0]))
        np.testing.assert_allclose(pos, [[0.0, 20.0]], atol=1e-9)
        assert node.speed_m_s(np.array([1.0]))[0] == pytest.approx(10.0)

    def test_stop_and_go_is_deterministic(self):
        times = np.linspace(0, 300, 100)
        a = StopAndGoTrajectory((0, 0), 15.0, seed=5).position_m(times)
        b = StopAndGoTrajectory((0, 0), 15.0, seed=5).position_m(times)
        np.testing.assert_array_equal(a, b)

    def test_stop_and_go_monotone_displacement(self):
        node = StopAndGoTrajectory((0, 0), 15.0, seed=6)
        times = np.linspace(0, 600, 500)
        xs = node.position_m(times)[:, 0]
        assert np.all(np.diff(xs) >= -1e-9)

    def test_stop_and_go_speed_bounded(self):
        node = StopAndGoTrajectory((0, 0), 15.0, seed=7)
        speeds = node.speed_m_s(np.linspace(0, 600, 500))
        assert np.all(speeds <= 15.0 + 1e-9)
        assert np.all(speeds >= 0)

    def test_stop_and_go_negative_time_rejected(self):
        node = StopAndGoTrajectory((0, 0), 15.0, seed=8)
        with pytest.raises(ConfigurationError):
            node.position_m(np.array([-1.0]))


class TestRelativeMotion:
    def test_distance_between_static_nodes(self):
        motion = RelativeMotion(StaticTrajectory((0, 0)), StaticTrajectory((30, 40)))
        assert motion.distance_m(np.array([0.0]))[0] == pytest.approx(50.0)

    def test_relative_speed_of_opposing_vehicles_adds(self):
        a = StraightLineTrajectory((0, 0), 10.0, heading_deg=0.0)
        b = StraightLineTrajectory((100, 0), 5.0, heading_deg=180.0)
        motion = RelativeMotion(a, b)
        assert motion.relative_speed_m_s(np.array([1.0]))[0] == pytest.approx(15.0)

    def test_same_velocity_convoy_has_zero_relative_motion(self):
        a = StraightLineTrajectory((0, 0), 20.0)
        b = StraightLineTrajectory((50, 0), 20.0)
        motion = RelativeMotion(a, b)
        assert motion.relative_displacement_m(100.0) == pytest.approx(0.0, abs=1e-6)

    def test_displacement_integral_for_constant_speed(self):
        motion = RelativeMotion(
            StraightLineTrajectory((0, 0), 12.0), StaticTrajectory((500, 0))
        )
        assert motion.relative_displacement_m(10.0) == pytest.approx(120.0, rel=1e-3)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_time_rejected(self, bad):
        motion = RelativeMotion(
            StraightLineTrajectory((0, 0), 12.0), StaticTrajectory((500, 0))
        )
        with pytest.raises(ConfigurationError):
            motion.relative_displacement_m(bad)
        with pytest.raises(ConfigurationError):
            motion.relative_displacement_m(np.array([1.0, bad]))
        assert motion.relative_displacement_m(10.0) == pytest.approx(120.0, rel=1e-3)

    def test_displacement_is_monotone(self):
        motion = RelativeMotion(
            StopAndGoTrajectory((0, 0), 15.0, seed=1), StaticTrajectory((300, 0))
        )
        values = motion.relative_displacement_m(np.linspace(0, 200, 100))
        assert np.all(np.diff(values) >= -1e-9)


class TestReciprocalChannel:
    def _channel(self, seed=0):
        seeds = SeedSequenceFactory(seed)
        config = scenario_config(ScenarioName.V2I_RURAL)
        return config.build_channel(seeds)

    def test_gain_is_reciprocal_by_construction(self):
        channel = self._channel()
        times = np.linspace(0, 10, 20)
        np.testing.assert_array_equal(channel.path_gain_db(times), channel.path_gain_db(times))

    def test_gain_is_finite_and_negative(self):
        channel = self._channel()
        gains = channel.path_gain_db(np.linspace(0, 60, 100))
        assert np.all(np.isfinite(gains))
        assert np.all(gains < 0)  # km-scale links always attenuate

    def test_prefading_gain_excludes_fading(self):
        channel = self._channel()
        times = np.linspace(0, 60, 200)
        total = channel.path_gain_db(times)
        partial, displacement = channel.prefading_gain_db(times)
        assert np.std(total - partial) > 0.5  # fading contributes variation
        np.testing.assert_array_equal(
            partial + channel.fading.gain_db(displacement), total
        )

    def test_scalar_time_returns_scalar(self):
        channel = self._channel()
        assert isinstance(channel.path_gain_db(1.0), float)

    def test_pathloss_only_channel(self):
        motion = RelativeMotion(
            StraightLineTrajectory((0, 0), 10.0), StaticTrajectory((1000, 0))
        )
        channel = ReciprocalChannel(motion, LogDistancePathLoss())
        gains = channel.path_gain_db(np.array([0.0, 1.0]))
        assert gains[0] < gains[1]  # moving toward Bob reduces loss


class TestScenarios:
    def test_four_presets(self):
        assert len(ALL_SCENARIOS) == 4

    @pytest.mark.parametrize("name", ALL_SCENARIOS)
    def test_presets_build(self, name):
        config = scenario_config(name)
        seeds = SeedSequenceFactory(11)
        channel = config.build_channel(seeds)
        gains = channel.path_gain_db(np.linspace(0, 30, 50))
        assert np.all(np.isfinite(gains))

    def test_urban_is_rayleigh_rural_is_rician(self):
        assert scenario_config(ScenarioName.V2V_URBAN).rician_k == 0.0
        assert scenario_config(ScenarioName.V2V_RURAL).rician_k > 0.0

    def test_v2i_has_static_bob(self):
        config = scenario_config(ScenarioName.V2I_URBAN)
        seeds = SeedSequenceFactory(0)
        _, bob = config.build_trajectories(seeds)
        assert np.all(bob.speed_m_s(np.array([0.0, 10.0])) == 0)

    def test_v2v_bob_moves(self):
        config = scenario_config(ScenarioName.V2V_RURAL)
        seeds = SeedSequenceFactory(0)
        _, bob = config.build_trajectories(seeds)
        assert bob.speed_m_s(np.array([1.0]))[0] > 0

    def test_name_properties(self):
        assert ScenarioName.V2I_URBAN.environment is Environment.URBAN
        assert ScenarioName.V2V_RURAL.environment is Environment.RURAL
        assert ScenarioName.V2I_RURAL.link_type is LinkType.V2I
        assert ScenarioName.V2V_URBAN.link_type is LinkType.V2V

    def test_with_speeds_override(self):
        config = scenario_config(ScenarioName.V2I_URBAN).with_speeds(30.0)
        assert config.alice_speed_kmh == 30.0
        assert config.bob_speed_kmh == 0.0

    def test_v2i_with_moving_bob_rejected(self):
        with pytest.raises(ConfigurationError):
            scenario_config(ScenarioName.V2I_URBAN).with_speeds(30.0, 10.0)

    def test_scenario_wavelength_matches_434mhz(self):
        config = scenario_config(ScenarioName.V2I_URBAN)
        assert config.wavelength_m == pytest.approx(0.6912, abs=1e-3)
