"""Pinned-seed equivalence of the stacked fault-free probing kernel.

:func:`run_fastpath_group` stacks a whole batch of fault-free sessions
into ``[n_sessions, n_rounds, n_samples]`` grids so the channel
evaluation and the register-reading pipeline run once for the group.
Sharing work across sessions must never change a single bit of any
session's trace: these tests build each session twice from the same
seed (fresh channel objects both times, so lazy caches grow under each
path's own query pattern) and compare the grouped trace against the
frozen per-attempt loop (``tests/oracles/probing_loop.py``, the oracle)
with exact equality.

A *windowed* group (``alice_reads``) measures only Alice's first reads
of each response.  The register filter is causal and the rest of the
pipeline elementwise, so those reads must equal the full trace's first
columns exactly, and every arRSSI value with them.  The pipeline's
served form, :meth:`VehicleKeyPipeline.collect_traces`, is pinned
against :meth:`~VehicleKeyPipeline.collect_trace` under that contract.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channel.fading import SpatialJakesFading
from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import ScenarioName
from repro.exceptions import ConfigurationError
from repro.faults.link import LinkFaultModel
from repro.faults.plan import FaultPlan
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import LinkBudget
from repro.lora.radio import DRAGINO_LORA_SHIELD, MULTITECH_XDOT
from repro.probing import protocol as protocol_module
from repro.probing.features import FeatureConfig, arrssi_sequences
from repro.probing.protocol import run_fastpath_group
from repro.probing.trace import ProbeTrace

from tests.oracles.probing_loop import reference_run_loop
from tests.test_probing_vectorized import (
    FAST_PHY,
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
    """Grouped traces must be bit-identical to per-session oracle runs."""
    protocols, factories = build_group(seeds_list, **setup_kwargs)
    group_traces = run_fastpath_group(
        protocols, n_rounds, factories, start_time_s=start_time_s
    )
    assert len(group_traces) == len(seeds_list)
    for seed, group_trace in zip(seeds_list, group_traces):
        single_protocol, single_seeds, _ = build_setup(seed, **setup_kwargs)
        single_trace = reference_run_loop(
            single_protocol, n_rounds, single_seeds, start_time_s=start_time_s
        )
        assert_traces_bit_identical(single_trace, group_trace)


def assert_each_matches_loop(make_rows, n_rounds=8):
    """Group ``make_rows()`` and compare each trace with the frozen loop.

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
            reference_run_loop(protocol, n_rounds, factory, eves), group_trace
        )
    return group_traces


def assert_windowed_matches(full_trace, windowed_trace, alice_reads):
    """``windowed_trace`` is ``full_trace`` with Alice's matrix cut to
    its first ``alice_reads`` columns; every other field is exact."""
    assert windowed_trace.alice_rssi.shape == (full_trace.n_rounds, alice_reads)
    np.testing.assert_array_equal(
        full_trace.alice_rssi[:, :alice_reads], windowed_trace.alice_rssi
    )
    if alice_reads < full_trace.samples_per_packet:
        assert np.isnan(windowed_trace.alice_prssi).all()
    else:
        np.testing.assert_array_equal(
            full_trace.alice_prssi, windowed_trace.alice_prssi
        )
    for name in (
        "bob_rssi",
        "bob_prssi",
        "round_start_s",
        "valid",
        "retries",
        "dropped",
        "injected",
        "replays_rejected",
        "backoff_time_s",
    ):
        np.testing.assert_array_equal(
            getattr(full_trace, name), getattr(windowed_trace, name)
        )
    assert windowed_trace.retry_limit == full_trace.retry_limit
    assert windowed_trace.phy == full_trace.phy
    assert windowed_trace.samples_per_packet == full_trace.samples_per_packet
    assert set(windowed_trace.eve) == set(full_trace.eve)


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


class TestOneChannelEvaluation:
    """A group evaluates its channels once per batch, not once per use.

    Bob's reads, Alice's reads and the mid-probe and mid-response
    decodability instants share one evaluation; the traces stay
    bit-identical to the frozen loop.
    """

    @staticmethod
    def count_calls(monkeypatch, owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_homogeneous_group_makes_one_stacked_evaluation(self, monkeypatch):
        group_calls = self.count_calls(monkeypatch, protocol_module, "_group_path_gain")
        trig_calls = self.count_calls(
            monkeypatch, protocol_module, "batched_spatial_gain_db"
        )
        protocols, factories = build_group([71, 72, 73])
        traces = run_fastpath_group(protocols, 10, factories)
        assert len(group_calls) == 1
        assert len(trig_calls) == 1
        for seed, trace in zip([71, 72, 73], traces):
            protocol, seeds, _ = build_setup(seed)
            assert_traces_bit_identical(reference_run_loop(protocol, 10, seeds), trace)

    def test_weak_link_validity_reads_the_decodability_instants(self):
        # Near sensitivity the mid-probe and mid-response slices of the
        # shared evaluation decide each round's validity.
        protocols, factories = build_group(
            [91, 92, 93], link_budget=LinkBudget(tx_power_dbm=-35.0)
        )
        traces = run_fastpath_group(protocols, 24, factories)
        assert all(0 < trace.valid.sum() < 24 for trace in traces)
        for seed, trace in zip([91, 92, 93], traces):
            protocol, seeds, _ = build_setup(
                seed, link_budget=LinkBudget(tx_power_dbm=-35.0)
            )
            assert_traces_bit_identical(reference_run_loop(protocol, 24, seeds), trace)

    def test_mixed_fading_group_evaluates_each_channel_once(self, monkeypatch):
        def make_rows():
            rows = [build_setup(seed) for seed in (81, 82, 83)]
            set_path_count(rows[0][0], rows[0][1], 16)
            make_fading_free(rows[2][0])
            return rows

        protocols, factories, _ = zip(*make_rows())
        path_calls = self.count_calls(monkeypatch, ReciprocalChannel, "path_gain_db")
        trig_calls = self.count_calls(
            monkeypatch, protocol_module, "batched_spatial_gain_db"
        )
        traces = run_fastpath_group(protocols, 10, factories)
        assert [call[0] for call in path_calls] == [p.channel for p in protocols]
        assert not trig_calls
        monkeypatch.undo()
        for (protocol, seeds, _), trace in zip(make_rows(), traces):
            assert_traces_bit_identical(reference_run_loop(protocol, 10, seeds), trace)


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
            reference_run_loop(single_sf7, 5, single_seeds_a), group_traces[0]
        )
        assert_traces_bit_identical(
            reference_run_loop(single_sf9, 5, single_seeds_b), group_traces[1]
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
        for ref, ref_seeds, group_trace in zip(
            (ref_a, ref_b), (ref_seeds_a, ref_seeds_b), group_traces
        ):
            assert_traces_bit_identical(
                reference_run_loop(ref, 6, ref_seeds), group_trace
            )

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


class TestWindowedAliceReads:
    """``alice_reads`` measures only the reads the key uses, exactly."""

    @given(
        window_fraction=st.floats(min_value=0.01, max_value=1.0),
        values_per_packet=st.integers(min_value=1, max_value=6),
        alphas=st.tuples(
            st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
            st.one_of(st.just(1.0), st.floats(min_value=0.05, max_value=1.0)),
        ),
        asymmetric=st.booleans(),
        spreading_factor=st.sampled_from([7, 12]),
        seeds_list=st.lists(
            st.integers(min_value=0, max_value=10_000),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        n_rounds=st.integers(min_value=1, max_value=64),
        tx_power_dbm=st.sampled_from([14.0, -35.0]),
        fallback=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_windowed_group_keeps_every_arrssi_value(
        self,
        window_fraction,
        values_per_packet,
        alphas,
        asymmetric,
        spreading_factor,
        seeds_list,
        n_rounds,
        tx_power_dbm,
        fallback,
    ):
        phy = LoRaPHYConfig(spreading_factor=spreading_factor)
        features = FeatureConfig(
            window_fraction=window_fraction, values_per_packet=values_per_packet
        )
        alice_reads = features.window_length(phy.total_symbols)
        devices = (
            replace(DRAGINO_LORA_SHIELD, rssi_smoothing_alpha=alphas[0]),
            replace(
                MULTITECH_XDOT if asymmetric else DRAGINO_LORA_SHIELD,
                rssi_smoothing_alpha=alphas[1],
            ),
        )

        def run(window):
            protocols, factories = build_group(
                seeds_list,
                phy=phy,
                devices=devices,
                link_budget=LinkBudget(tx_power_dbm=tx_power_dbm),
            )
            if fallback:
                # A faulted last session makes the group incompatible:
                # every session then runs on its own and is cut after.
                protocols[-1].fault_model = LinkFaultModel(
                    FaultPlan.lossy(0.3, mean_burst=2.0, snr_dependent=False),
                    factories[-1],
                )
            return run_fastpath_group(
                protocols, n_rounds, factories, alice_reads=window
            )

        for full, windowed in zip(run(None), run(alice_reads)):
            assert_windowed_matches(full, windowed, alice_reads)
            for expected, actual in zip(
                arrssi_sequences(full, features),
                arrssi_sequences(windowed, features),
            ):
                np.testing.assert_array_equal(expected, actual)

    def test_one_evaluation_covers_only_the_window(self, monkeypatch):
        trig_calls = TestOneChannelEvaluation.count_calls(
            monkeypatch, protocol_module, "batched_spatial_gain_db"
        )
        n_rounds, alice_reads = 10, 4
        protocols, factories = build_group([71, 72, 73])
        n_samples = protocols[0].phy.total_symbols
        run_fastpath_group(protocols, n_rounds, factories, alice_reads=alice_reads)
        # Bob's reads, Alice's window and the two decodability instants
        # per round; a full group evaluates 2 * n_samples + 2 per round.
        assert [call[1].shape for call in trig_calls] == [
            (3, n_rounds * (n_samples + alice_reads + 2))
        ]

    @pytest.mark.parametrize("alice_reads", [0, FAST_PHY.total_symbols + 1])
    def test_rejects_reads_outside_the_packet(self, alice_reads):
        protocol, factory, _ = build_setup(1)
        with pytest.raises(ConfigurationError):
            run_fastpath_group([protocol], 4, [factory], alice_reads=alice_reads)

    def test_rejects_eavesdroppers_with_a_window(self):
        protocol, factory, eves = build_setup(
            7, scenario=ScenarioName.V2V_URBAN, n_eves=1
        )
        with pytest.raises(ConfigurationError):
            run_fastpath_group(
                [protocol], 4, [factory], eavesdroppers=[eves], alice_reads=3
            )

    @pytest.mark.parametrize(
        "alice_shape", [(3, 6), (4, 5), (3, 0)], ids=["wider", "rounds", "empty"]
    )
    def test_trace_rejects_alice_beyond_bobs_grid(self, alice_shape):
        with pytest.raises(ConfigurationError):
            ProbeTrace(
                phy=LoRaPHYConfig(),
                alice_rssi=np.zeros(alice_shape),
                bob_rssi=np.zeros((3, 5)),
                round_start_s=np.zeros(3),
                valid=np.ones(3, dtype=bool),
            )

    def test_windowed_trace_survives_save_load_and_valid_only(self, tmp_path):
        protocols, factories = build_group(
            [91], link_budget=LinkBudget(tx_power_dbm=-35.0)
        )
        (trace,) = run_fastpath_group(protocols, 24, factories, alice_reads=3)
        assert 0 < trace.n_valid_rounds < trace.n_rounds
        path = tmp_path / "windowed.npz"
        trace.save(path)
        loaded = ProbeTrace.load(path)
        assert_windowed_matches(trace, loaded, alice_reads=3)
        clean = loaded.valid_only()
        assert clean.alice_rssi.shape == (trace.n_valid_rounds, 3)
        np.testing.assert_array_equal(
            clean.alice_rssi, trace.alice_rssi[trace.valid]
        )
        np.testing.assert_array_equal(clean.bob_rssi, trace.bob_rssi[trace.valid])
        assert np.isnan(clean.alice_prssi).all()
        assert clean.samples_per_packet == trace.samples_per_packet


class TestPipelineCollectTraces:
    def test_matches_collect_trace(self, tiny_pipeline):
        # Served traces are windowed to the reads the arRSSI feature
        # uses: Alice's matrix is collect_trace's first columns, her
        # packet RSSI is NaN, and everything else is bit-identical.
        config = tiny_pipeline.config
        alice_reads = config.feature_config.window_length(config.phy.total_symbols)
        assert alice_reads < config.phy.total_symbols
        labels = [f"xsession-{i}" for i in range(4)]
        group_traces = tiny_pipeline.collect_traces(labels, n_rounds=12)
        for label, group_trace in zip(labels, group_traces):
            single_trace = tiny_pipeline.collect_trace(label, n_rounds=12)
            assert_windowed_matches(single_trace, group_trace, alice_reads)
            for expected, actual in zip(
                arrssi_sequences(single_trace, config.feature_config),
                arrssi_sequences(group_trace, config.feature_config),
            ):
                np.testing.assert_array_equal(expected, actual)

    def test_default_rounds(self, tiny_pipeline):
        traces = tiny_pipeline.collect_traces(["xsession-d"])
        assert traces[0].n_rounds == tiny_pipeline.config.rounds_per_episode

    def test_rejects_empty_episode_list(self, tiny_pipeline):
        with pytest.raises(ConfigurationError):
            tiny_pipeline.collect_traces([])
