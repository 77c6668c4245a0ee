"""Pinned-seed equivalence of the stacked fault-free probing kernel.

:func:`run_fastpath_group` stacks a whole batch of fault-free sessions
into ``[n_sessions, n_rounds, n_samples]`` grids so the channel
evaluation and the register-reading pipeline run once for the group.
Sharing work across sessions must never change a single bit of any
session's trace: these tests build each session twice from the same
seed (fresh channel objects both times, so lazy caches grow under each
path's own query pattern) and compare the grouped trace against the
frozen per-round loop (``run_loop``, the oracle) with exact equality.

The same contract is pinned one layer up for
:meth:`KeyAgreementPipeline.collect_traces` versus
:meth:`~KeyAgreementPipeline.collect_trace`.
"""

import numpy as np
import pytest

from repro.channel.fading import SpatialJakesFading
from repro.channel.interference import InterferenceSource
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import ScenarioName
from repro.exceptions import ConfigurationError
from repro.faults.link import LinkFaultModel
from repro.faults.plan import FaultPlan
from repro.lora.airtime import LoRaPHYConfig
from repro.probing.protocol import run_fastpath_group

from tests.test_probing_vectorized import (
    assert_traces_bit_identical,
    build_setup,
)


def build_group(seeds_list, **setup_kwargs):
    """Fresh protocols + seed factories, one per session seed."""
    protocols, factories = [], []
    for seed in seeds_list:
        protocol, factory, _ = build_setup(seed, **setup_kwargs)
        protocols.append(protocol)
        factories.append(factory)
    return protocols, factories


def assert_group_matches_singles(
    seeds_list, n_rounds=10, start_time_s=0.0, **setup_kwargs
):
    """Grouped traces must be bit-identical to per-session loop runs."""
    protocols, factories = build_group(seeds_list, **setup_kwargs)
    group_traces = run_fastpath_group(
        protocols, n_rounds, factories, start_time_s=start_time_s
    )
    assert len(group_traces) == len(seeds_list)
    for seed, group_trace in zip(seeds_list, group_traces):
        single_protocol, single_seeds, _ = build_setup(seed, **setup_kwargs)
        single_trace = single_protocol.run_loop(
            n_rounds, single_seeds, start_time_s=start_time_s
        )
        assert_traces_bit_identical(single_trace, group_trace)


def assert_each_matches_loop(make_rows, n_rounds=8):
    """Group ``make_rows()`` and compare each trace with ``run_loop``.

    ``make_rows`` returns ``(protocol, factory, eavesdroppers)`` rows
    built fresh on every call, so the oracle runs on its own channels.
    """
    protocols, factories, eavesdroppers = zip(*make_rows())
    group_traces = run_fastpath_group(
        protocols, n_rounds, factories, eavesdroppers=eavesdroppers
    )
    assert len(group_traces) == len(protocols)
    for (protocol, factory, eves), group_trace in zip(make_rows(), group_traces):
        assert_traces_bit_identical(
            protocol.run_loop(n_rounds, factory, eavesdroppers=eves), group_trace
        )
    return group_traces


def make_fading_free(protocol):
    """Swap in a ``ReciprocalChannel(motion, pathloss)``: no shadowing/fading."""
    channel = protocol.channel
    protocol.channel = ReciprocalChannel(channel.motion, channel.pathloss)


def set_path_count(protocol, factory, n_paths):
    """Swap in a Jakes fading realization with ``n_paths`` scatterers."""
    protocol.channel.fading = SpatialJakesFading(
        wavelength_m=protocol.channel.fading.wavelength_m,
        n_paths=n_paths,
        seed=factory.generator("fading"),
    )


class TestGroupBitIdentity:
    @pytest.mark.parametrize("scenario", list(ScenarioName))
    def test_all_scenarios(self, scenario):
        assert_group_matches_singles([101, 102, 103], scenario=scenario)

    def test_group_of_one(self):
        assert_group_matches_singles([42])

    def test_odd_sized_group(self):
        assert_group_matches_singles([1, 2, 3, 4, 5], n_rounds=6)

    def test_nonzero_start_time(self):
        assert_group_matches_singles([7, 8, 9], start_time_s=17.3)

    def test_custom_gap(self):
        assert_group_matches_singles([5, 6], inter_round_gap_s=0.75)

    def test_per_session_interference(self):
        # One session hears a jammer, its neighbours do not; the stacked
        # evaluation must keep the interference strictly per-row.
        def make_setups():
            quiet_a, seeds_a, _ = build_setup(31, scenario=ScenarioName.V2I_URBAN)
            noisy, seeds_b, _ = build_setup(
                32,
                scenario=ScenarioName.V2I_URBAN,
                interference=[
                    InterferenceSource(
                        (40.0, 5.0), eirp_dbm=0.0, mean_on_s=0.5, mean_off_s=1.0, seed=9
                    )
                ],
            )
            quiet_b, seeds_c, _ = build_setup(33, scenario=ScenarioName.V2I_URBAN)
            return [quiet_a, noisy, quiet_b], [seeds_a, seeds_b, seeds_c]

        protocols, factories = make_setups()
        group_traces = run_fastpath_group(protocols, 8, factories)
        singles, single_factories = make_setups()
        for protocol, factory, group_trace in zip(singles, single_factories, group_traces):
            assert_traces_bit_identical(protocol.run_loop(8, factory), group_trace)

    def test_per_session_eavesdroppers(self):
        # Two attackers on the first session, none on the second, one on
        # the third: each session's Eve traces stay strictly its own.
        def make_rows():
            return [
                build_setup(41, scenario=ScenarioName.V2V_URBAN, n_eves=2),
                build_setup(42, scenario=ScenarioName.V2V_URBAN),
                build_setup(43, scenario=ScenarioName.V2V_URBAN, n_eves=1),
            ]

        traces = assert_each_matches_loop(make_rows)
        assert [sorted(trace.eve) for trace in traces] == [
            ["eve-imitator", "eve-passive"],
            [],
            ["eve-passive"],
        ]

    def test_fading_free_channels(self):
        def make_rows():
            rows = [build_setup(seed) for seed in (51, 52)]
            for protocol, _, _ in rows:
                make_fading_free(protocol)
            return rows

        assert_each_matches_loop(make_rows)

    def test_mixed_fading_families(self):
        # Mixed path counts, plus a fading-free row, cannot share one
        # stacked trig pass: each row is evaluated on its own channel.
        def make_rows():
            rows = [build_setup(seed) for seed in (61, 62, 63)]
            for (protocol, factory, _), n_paths in zip(rows, (16, 24)):
                set_path_count(protocol, factory, n_paths)
            make_fading_free(rows[2][0])
            return rows

        assert_each_matches_loop(make_rows)


class TestFallback:
    def test_mixed_phy_falls_back_per_session(self):
        # Different spreading factors cannot share a timeline; the group
        # runner must quietly hand each session to ``protocol.run``.
        sf7, seeds_a, _ = build_setup(3)
        sf9, seeds_b, _ = build_setup(
            4, phy=LoRaPHYConfig(spreading_factor=9)
        )
        group_traces = run_fastpath_group([sf7, sf9], 5, [seeds_a, seeds_b])
        single_sf7, single_seeds_a, _ = build_setup(3)
        single_sf9, single_seeds_b, _ = build_setup(
            4, phy=LoRaPHYConfig(spreading_factor=9)
        )
        assert_traces_bit_identical(
            single_sf7.run_loop(5, single_seeds_a), group_traces[0]
        )
        assert_traces_bit_identical(
            single_sf9.run_loop(5, single_seeds_b), group_traces[1]
        )

    def test_fault_model_falls_back_per_session(self):
        def faulty_setup(seed):
            protocol, factory, _ = build_setup(seed)
            protocol.fault_model = LinkFaultModel(
                FaultPlan.lossy(0.3, mean_burst=2.0, snr_dependent=False), factory
            )
            return protocol, factory

        protocol_a, seeds_a = faulty_setup(11)
        protocol_b, seeds_b = faulty_setup(12)
        group_traces = run_fastpath_group([protocol_a, protocol_b], 6, [seeds_a, seeds_b])
        ref_a, ref_seeds_a = faulty_setup(11)
        ref_b, ref_seeds_b = faulty_setup(12)
        assert_traces_bit_identical(ref_a.run_loop(6, ref_seeds_a), group_traces[0])
        assert_traces_bit_identical(ref_b.run_loop(6, ref_seeds_b), group_traces[1])

    def test_mixed_faulted_group_keeps_input_order(self):
        # A faulted session between two fault-free ones: the group falls
        # back per session and every trace returns in its input slot.
        def make_rows():
            rows = [build_setup(seed) for seed in (71, 72, 73)]
            faulty, factory, _ = rows[1]
            faulty.fault_model = LinkFaultModel(
                FaultPlan.lossy(0.4, mean_burst=2.0, snr_dependent=False), factory
            )
            return rows

        traces = assert_each_matches_loop(make_rows, n_rounds=6)
        assert [trace.retry_limit is not None for trace in traces] == [
            False, True, False,
        ]


class TestValidation:
    def test_rejects_empty_group(self):
        with pytest.raises(ConfigurationError):
            run_fastpath_group([], 4, [])

    def test_rejects_mismatched_seed_count(self):
        protocol, factory, _ = build_setup(1)
        with pytest.raises(ConfigurationError):
            run_fastpath_group([protocol], 4, [factory, factory])

    def test_rejects_nonpositive_rounds(self):
        protocol, factory, _ = build_setup(1)
        with pytest.raises(ConfigurationError):
            run_fastpath_group([protocol], 0, [factory])

    def test_rejects_mismatched_eavesdropper_count(self):
        protocol, factory, _ = build_setup(1)
        with pytest.raises(ConfigurationError):
            run_fastpath_group([protocol], 4, [factory], eavesdroppers=[(), ()])


class TestPipelineCollectTraces:
    def test_matches_collect_trace(self, tiny_pipeline):
        labels = [f"xsession-{i}" for i in range(4)]
        group_traces = tiny_pipeline.collect_traces(labels, n_rounds=12)
        for label, group_trace in zip(labels, group_traces):
            single_trace = tiny_pipeline.collect_trace(label, n_rounds=12)
            assert_traces_bit_identical(single_trace, group_trace)

    def test_default_rounds(self, tiny_pipeline):
        traces = tiny_pipeline.collect_traces(["xsession-d"])
        assert traces[0].n_rounds == tiny_pipeline.config.rounds_per_episode

    def test_rejects_empty_episode_list(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            tiny_pipeline.collect_traces([])
