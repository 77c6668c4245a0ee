"""Failure-injection and edge-case tests across the stack."""

import dataclasses

import pytest

from repro.channel.mobility import RelativeMotion, StaticTrajectory
from repro.channel.pathloss import LogDistancePathLoss
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import ScenarioName, scenario_config
from repro.exceptions import ConfigurationError, ReproError
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.radio import DRAGINO_LORA_SHIELD
from repro.probing.protocol import ProbingProtocol
from repro.utils.rng import SeedSequenceFactory
from tests.conftest import make_tiny_pipeline


class TestPacketLoss:
    def _long_range_protocol(self, distance_km: float):
        # A static link far beyond the SF12 budget.
        motion = RelativeMotion(
            StaticTrajectory((0, 0)), StaticTrajectory((distance_km * 1000, 0))
        )
        channel = ReciprocalChannel(motion, LogDistancePathLoss(exponent=3.5))
        return ProbingProtocol(
            channel, LoRaPHYConfig(), DRAGINO_LORA_SHIELD, DRAGINO_LORA_SHIELD
        )

    def test_out_of_range_rounds_marked_invalid(self):
        protocol = self._long_range_protocol(distance_km=500.0)
        trace = protocol.run(4, SeedSequenceFactory(0))
        assert trace.n_valid_rounds == 0

    def test_valid_only_empties_out_of_range_trace(self):
        protocol = self._long_range_protocol(distance_km=500.0)
        trace = protocol.run(4, SeedSequenceFactory(0))
        assert trace.valid_only().n_rounds == 0

    def test_in_range_link_keeps_all_rounds(self):
        protocol = self._long_range_protocol(distance_km=1.0)
        trace = protocol.run(4, SeedSequenceFactory(0))
        assert trace.n_valid_rounds == 4


class TestSessionEdgeCases:
    def test_session_on_trace_without_a_full_window(self, tiny_pipeline):
        trace = tiny_pipeline.collect_trace("tiny-trace", n_rounds=4)
        result = tiny_pipeline.build_session().run(trace)
        assert result.n_blocks == 0
        assert result.final_key_alice is None
        assert not result.keys_match

    def test_session_requires_at_least_one_trace(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            tiny_pipeline.build_session().run([])

    def test_establish_key_reports_zero_kgr_without_blocks(self, tiny_pipeline):
        outcome = tiny_pipeline.establish_key(episode="no-blocks", n_rounds=4)
        assert outcome.key_generation_rate_bps == 0.0


class TestPipelineEdgeCases:
    def test_dead_link_scenario_raises_cleanly(self):
        pipeline = make_tiny_pipeline(seed=77)
        dead = dataclasses.replace(
            scenario_config(ScenarioName.V2I_RURAL),
            initial_distance_m=500_000.0,
            pathloss_exponent=3.5,
        )
        pipeline.config = dataclasses.replace(pipeline.config, scenario=dead)
        with pytest.raises(ReproError):
            pipeline.collect_dataset(n_episodes=2)

    def test_zero_episode_collection_rejected(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            tiny_pipeline.collect_dataset(n_episodes=0)


class TestTopLevelApi:
    def test_lazy_exports_resolve(self):
        import repro

        assert repro.ScenarioName.V2V_URBAN.value == "v2v-urban"
        assert repro.VehicleKeyPipeline is not None

    def test_unknown_attribute_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.does_not_exist

    def test_exception_hierarchy(self):
        from repro import ConfigurationError, ProtocolError, ReproError

        assert issubclass(ConfigurationError, ReproError)
        assert issubclass(ProtocolError, ReproError)

    def test_version_exposed(self):
        import repro

        assert repro.__version__.count(".") == 2
