"""``ProbingProtocol.run_loop`` against the frozen per-attempt oracle.

``run_loop`` is the only engine with ARQ retransmission, link faults and
active attacks, so it cannot be pinned against the stacked fault-free
kernel alone.  ``tests/oracles/probing_loop.py`` keeps the loop as it
stood before each attempt evaluated the channel once; these tests run
both on independently built protocols from the same seed (separate
channel objects, so each grows its lazy channel state under its own
query pattern) and require every ``ProbeTrace`` field to match exactly.

The sweep draws its fault plan, attack plan and retry policy the way
``repro.faults.chaos.run_chaos`` does, over the four scenarios, zero to
two eavesdroppers and symmetric and asymmetric devices.

A *windowed* ``run_loop`` (``alice_reads``) measures only Alice's first
reads of each response; it must equal the full ``run_loop`` trace with
Alice's matrix cut to those columns.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.channel.reciprocity import ReciprocalChannel
from repro.channel.scenario import ScenarioName
from repro.exceptions import ConfigurationError
from repro.faults import chaos
from repro.faults.adversary import AdversaryPlan, build_adversary
from repro.faults.link import LinkFaultModel
from repro.faults.plan import FaultPlan, LossConfig, RegisterCorruptionConfig
from repro.faults.retry import RetryPolicy
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import _SNR_LIMIT_DB, LinkBudget
from repro.lora.radio import DRAGINO_LORA_SHIELD, MULTITECH_XDOT
from repro.lora.rssi import RegisterRssiSampler
from repro.probing import protocol as protocol_module
from repro.probing.features import FeatureConfig
from repro.probing.protocol import (
    LOOKAHEAD_ROUNDS,
    _success_timeline,
    run_fastpath_group,
)
from tests.oracles.probing_loop import reference_run_loop
from tests.test_probing_cross_session import assert_windowed_matches
from tests.test_probing_vectorized import FAST_PHY, build_setup

SCENARIOS = list(ScenarioName)
SYMMETRIC = (DRAGINO_LORA_SHIELD, DRAGINO_LORA_SHIELD)
ASYMMETRIC = (DRAGINO_LORA_SHIELD, MULTITECH_XDOT)
N_PLANS = 24
ROUNDS = 16
#: Rounds of the decision-instant bound: long enough that re-evaluating
#: the rest of the burst on every miss breaks it.
LONG_ROUNDS = 64
#: Alice's arRSSI window at the sweep's PHY, as the key path measures it.
ALICE_READS = FeatureConfig().window_length(FAST_PHY.total_symbols)


def plan_case(index):
    """Setup arguments and chaos-style plans for sweep case ``index``."""
    rng = np.random.default_rng([index, 0])
    fault_plan = chaos.random_fault_plan(rng)
    adversary_plan = chaos.random_adversary_plan(rng)
    policy = chaos.random_retry_policy(rng)
    setup = dict(
        scenario=SCENARIOS[index % 4],
        n_eves=index % 3,
        devices=ASYMMETRIC if (index // 4) % 2 else SYMMETRIC,
    )
    return setup, fault_plan, adversary_plan, policy


def build_attacked(seed, fault_plan, adversary_plan, policy, **setup_kwargs):
    """A fresh protocol carrying the plans, as the pipeline builds one."""
    protocol, seeds, eavesdroppers = build_setup(seed, **setup_kwargs)
    if not fault_plan.is_null:
        protocol.fault_model = LinkFaultModel(fault_plan, seeds)
    protocol.adversary = build_adversary(adversary_plan, seeds)
    protocol.retry_policy = policy
    return protocol, seeds, eavesdroppers


def run_both(seed, plans, n_rounds=ROUNDS, start_time_s=0.0, **setup_kwargs):
    """``(oracle trace, run_loop trace)`` from two independent builds."""
    protocol, seeds, eavesdroppers = build_attacked(seed, *plans, **setup_kwargs)
    expected = reference_run_loop(protocol, n_rounds, seeds, eavesdroppers, start_time_s)
    protocol, seeds, eavesdroppers = build_attacked(seed, *plans, **setup_kwargs)
    actual = protocol.run_loop(n_rounds, seeds, eavesdroppers, start_time_s)
    return expected, actual


def assert_traces_equal(expected, actual):
    """Every ``ProbeTrace`` field, with exact equality."""
    assert expected.phy == actual.phy
    for name in (
        "alice_rssi",
        "bob_rssi",
        "round_start_s",
        "valid",
        "alice_prssi",
        "bob_prssi",
        "retries",
        "dropped",
        "injected",
        "replays_rejected",
        "backoff_time_s",
    ):
        np.testing.assert_array_equal(
            getattr(expected, name), getattr(actual, name), err_msg=name
        )
    assert expected.retry_limit == actual.retry_limit
    assert set(expected.eve) == set(actual.eve)
    for label, eve in expected.eve.items():
        np.testing.assert_array_equal(eve.of_alice_rssi, actual.eve[label].of_alice_rssi)
        np.testing.assert_array_equal(eve.of_bob_rssi, actual.eve[label].of_bob_rssi)


class TestChaosPlans:
    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_matches_oracle(self, index):
        setup, *plans = plan_case(index)
        expected, actual = run_both(1000 + index, plans, **setup)
        assert_traces_equal(expected, actual)

    def test_sweep_exercises_the_arq_machinery(self):
        """The plans above retry, drop, inject and reject replays."""
        totals = dict(retries=0, dropped=0, injected=0, replays=0, eves=0)
        for index in range(N_PLANS):
            setup, *plans = plan_case(index)
            protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
            trace = protocol.run_loop(ROUNDS, seeds, eavesdroppers=eavesdroppers)
            totals["retries"] += int(trace.retries.sum())
            totals["dropped"] += int(trace.dropped.sum())
            totals["injected"] += int(trace.injected.sum())
            totals["replays"] += int(trace.replays_rejected.sum())
            totals["eves"] += len(trace.eve)
        assert totals["retries"] > 50, totals
        assert all(count > 0 for count in totals.values()), totals


class TestSpecialCases:
    def test_late_start_under_loss_jamming_and_injection(self):
        """A nonzero start time, with an eavesdropper overhearing the ARQ."""
        plans = (
            FaultPlan.lossy(0.3, mean_burst=2.0, snr_dependent=False),
            AdversaryPlan(jamming_rate=0.2, probe_injection_rate=0.1),
            RetryPolicy(max_retries=3),
        )
        expected, actual = run_both(
            13, plans, start_time_s=4.25, scenario=ScenarioName.V2I_URBAN, n_eves=1
        )
        assert actual.retries.sum() > 0
        assert_traces_equal(expected, actual)

    def test_paper_scale_sf12(self):
        plans = (
            FaultPlan.lossy(0.25, mean_burst=1.5),
            AdversaryPlan(probe_replay_rate=0.2),
            RetryPolicy(max_retries=2),
        )
        expected, actual = run_both(
            31,
            plans,
            n_rounds=6,
            phy=LoRaPHYConfig(),
            scenario=ScenarioName.V2V_RURAL,
            n_eves=2,
            devices=ASYMMETRIC,
        )
        assert_traces_equal(expected, actual)

    @pytest.mark.parametrize(
        "scenario, tx_power_dbm",
        [
            (ScenarioName.V2I_URBAN, -14.0),
            (ScenarioName.V2I_RURAL, -35.0),
            (ScenarioName.V2V_URBAN, -20.0),
            (ScenarioName.V2V_RURAL, -34.0),
        ],
    )
    def test_weak_link_decodability(self, scenario, tx_power_dbm):
        """Near sensitivity the mid-probe/mid-response gains decide outcomes.

        At full power every scenario keeps a wide SNR margin, so the
        decodability instants never change a trace; these budgets centre
        the margin near zero, where SNR-dependent loss and the
        sensitivity check drive the ARQ.
        """
        plans = (
            FaultPlan(loss=LossConfig(snr_dependent=True)),
            AdversaryPlan.none(),
            RetryPolicy(max_retries=2),
        )
        expected, actual = run_both(
            7,
            plans,
            n_rounds=24,
            scenario=scenario,
            n_eves=1,
            link_budget=LinkBudget(tx_power_dbm=tx_power_dbm),
        )
        assert actual.retries.sum() > 0 and actual.dropped.sum() > 0
        assert_traces_equal(expected, actual)

    def test_snr_exactly_on_the_limit_decodes(self):
        """A probe received exactly at the SF's SNR limit is decodable.

        The decision pass compares an array of SNRs ``>=`` the limit, as
        the frozen loop's scalar ``is_decodable`` does.  The transmit
        power is tuned, ulp by ulp, until one round's mid-probe SNR lands
        on the limit while its response stays above it, so that round's
        validity turns on the comparison.
        """
        plans = (FaultPlan.none(), AdversaryPlan.none(), RetryPolicy())
        setup = dict(scenario=ScenarioName.V2I_URBAN)
        protocol, _, _ = build_setup(41, **setup)
        limit = _SNR_LIMIT_DB[protocol.phy.spreading_factor]
        instants = np.concatenate(_success_timeline(protocol, 0.0, ROUNDS))
        gains = protocol.channel.path_gain_db(instants + protocol.phy.airtime_s / 2.0)
        k = int(np.argmax(gains[ROUNDS:] - gains[:ROUNDS]))
        budget = LinkBudget()
        tx_power = budget.tx_power_dbm + limit - budget.snr_db(gains[k], protocol.phy)
        candidates = (
            np.array([tx_power]).view(np.int64) + np.arange(-64, 65)
        ).view(np.float64)
        budget = next(
            candidate
            for candidate in (LinkBudget(tx_power_dbm=tx) for tx in candidates.tolist())
            if candidate.snr_db(float(gains[k]), protocol.phy) == limit
        )
        expected, actual = run_both(41, plans, link_budget=budget, **setup)
        assert expected.valid[k]
        assert_traces_equal(expected, actual)

    def test_fault_free_loop(self):
        """``run_loop`` called directly without faults (the benchmark reference)."""
        plans = (FaultPlan.none(), AdversaryPlan.none(), RetryPolicy())
        expected, actual = run_both(
            5,
            plans,
            n_rounds=8,
            phy=LoRaPHYConfig(),
            scenario=ScenarioName.V2V_URBAN,
            link_budget=LinkBudget(tx_power_dbm=-40.0),
        )
        assert expected.retry_limit is None
        assert 0 < actual.valid.sum() < actual.n_rounds
        assert_traces_equal(expected, actual)


def record_calls(monkeypatch, owner, name, record):
    """Call ``record(*args)`` on every call of ``owner.name``."""
    original = getattr(owner, name)

    def recorded(*args, **kwargs):
        record(*args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, recorded)


def decision_pass_counts(protocol, n_rounds, seeds, eavesdroppers):
    """``(trace, calls, instants)`` of one ``run_loop`` call.

    ``calls`` counts the ``path_gain_db`` calls on the protocol's own
    channel, which only the decision pass makes, and ``instants`` the
    times they evaluate; eavesdroppers' channels are not counted.
    """
    sizes = []
    original = ReciprocalChannel.path_gain_db

    def counted(channel, times):
        if channel is protocol.channel:
            sizes.append(np.size(times))
        return original(channel, times)

    with mock.patch.object(ReciprocalChannel, "path_gain_db", counted):
        trace = protocol.run_loop(n_rounds, seeds, eavesdroppers)
    return trace, len(sizes), sum(sizes)


def off_timeline_attempts(trace):
    """Retransmissions, plus first attempts after a dropped round."""
    return int(trace.retries.sum() + trace.dropped[:-1].sum())


def lookahead_chunks(n_rounds, lookahead):
    """Doubling chunks, the first ``lookahead`` rounds long, that cover ``n_rounds``."""
    chunks = 1
    while lookahead * (2**chunks - 1) < n_rounds:
        chunks += 1
    return chunks


class TestTwoPasses:
    """The shape of ``run_loop``: decide per attempt, measure per round.

    The frozen loop evaluates the channel and reads the registers once
    per attempt.  ``run_loop`` evaluates the channel at decision
    instants only, a few rounds ahead along the success timeline
    (``LOOKAHEAD_ROUNDS``), and then runs the register pipeline once per
    receiver.
    """

    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_one_register_pipeline_call_per_receiver(self, index, monkeypatch):
        setup, *plans = plan_case(index)
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        calls = []
        record_calls(
            monkeypatch, RegisterRssiSampler, "readings_for_power",
            lambda *args: calls.append(args),
        )
        protocol.run_loop(ROUNDS, seeds, eavesdroppers)
        assert len(calls) == 2 + len(eavesdroppers)

    @pytest.mark.parametrize("lookahead", [1, LOOKAHEAD_ROUNDS, ROUNDS])
    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_channel_calls_follow_the_lookahead(self, index, lookahead, monkeypatch):
        """One call for the burst, then at most one per look-ahead chunk.

        Only an attempt off the success timeline (a retransmission, or
        the first attempt after a dropped round) starts a new look-ahead,
        and each one takes at most as many doubling chunks as cover the
        burst.  With a look-ahead as long as the burst that is one call
        per attempt off the timeline, plus one.  The register reads go
        through the stacked fading evaluation, not ``path_gain_db``.
        """
        monkeypatch.setattr(protocol_module, "LOOKAHEAD_ROUNDS", lookahead)
        setup, *plans = plan_case(index)
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        trace, calls, _ = decision_pass_counts(protocol, ROUNDS, seeds, eavesdroppers)
        chunks = lookahead_chunks(ROUNDS, lookahead)
        assert 1 <= calls <= 1 + off_timeline_attempts(trace) * chunks

    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_decision_instants_are_linear_in_rounds_and_misses(self, index):
        """At most ``2 * (3 * rounds + LOOKAHEAD_ROUNDS * off-timeline attempts)``.

        The first evaluation covers the burst once.  A look-ahead that
        decides ``d`` rounds evaluates at most ``LOOKAHEAD_ROUNDS + 2 *
        (d - 1)`` of them, and every round is decided once plus once per
        retransmission; each round has two decision instants.  At
        ``LONG_ROUNDS`` this fails when every miss evaluates the whole
        rest of the burst, as a memo without a look-ahead did.
        """
        setup, *plans = plan_case(index)
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        trace, _, instants = decision_pass_counts(
            protocol, LONG_ROUNDS, seeds, eavesdroppers
        )
        off_timeline = off_timeline_attempts(trace)
        assert instants <= 2 * (3 * LONG_ROUNDS + LOOKAHEAD_ROUNDS * off_timeline)

    @pytest.mark.parametrize("lookahead", [1, ROUNDS])
    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_traces_do_not_depend_on_the_lookahead(self, index, lookahead, monkeypatch):
        monkeypatch.setattr(protocol_module, "LOOKAHEAD_ROUNDS", lookahead)
        setup, *plans = plan_case(index)
        expected, actual = run_both(1000 + index, plans, **setup)
        assert_traces_equal(expected, actual)

    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_memo_stays_within_the_frozen_loops_horizon(self, index, monkeypatch):
        """The memo looks no further ahead than the dropped rounds allow.

        It speculates along the success timeline.  Only a round dropped
        after a lost probe, with a timeout shorter than airtime plus Bob's
        turnaround, ends sooner than a successful one; each such round can
        pull the real timeline in by that difference, which is the only
        slack allowed past the frozen loop's last channel instant.
        """
        setup, *plans = plan_case(index)
        latest = []
        for name in ("path_gain_db", "prefading_gain_db"):
            record_calls(
                monkeypatch, ReciprocalChannel, name,
                lambda channel, times: latest.append(float(np.max(times))),
            )
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        reference_run_loop(protocol, ROUNDS, seeds, eavesdroppers)
        oracle_latest, latest[:] = max(latest), []
        protocol, seeds, eavesdroppers = build_attacked(1000 + index, *plans, **setup)
        trace = protocol.run_loop(ROUNDS, seeds, eavesdroppers)
        policy = protocol.retry_policy
        shortcut = protocol.phy.airtime_s + protocol.bob_device.processing_delay_s
        slack = trace.dropped.sum() * max(0.0, shortcut - policy.timeout_s)
        assert max(latest) <= oracle_latest + slack


def run_loop_without_eves(seed, plans, alice_reads, n_rounds=ROUNDS, **setup_kwargs):
    """``run_loop`` on a fresh build, with its eavesdroppers left out."""
    protocol, seeds, _ = build_attacked(seed, *plans, **setup_kwargs)
    return protocol.run_loop(n_rounds, seeds, alice_reads=alice_reads)


class TestAliceWindow:
    """``alice_reads`` on the ARQ engine: Alice's window of the full trace.

    The register filter is causal and the rest of the pipeline
    elementwise, and every noise and fault stream is drawn as on a full
    measurement, so a windowed trace is the full one with Alice's matrix
    cut to its first columns and her packet RSSI NaN.
    """

    @pytest.mark.parametrize(
        "alice_reads",
        [1, ALICE_READS, FAST_PHY.total_symbols - 1, FAST_PHY.total_symbols],
    )
    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_window_is_the_full_traces_first_columns(self, index, alice_reads):
        setup, *plans = plan_case(index)
        full = run_loop_without_eves(1000 + index, plans, None, **setup)
        windowed = run_loop_without_eves(1000 + index, plans, alice_reads, **setup)
        assert_windowed_matches(full, windowed, alice_reads)

    @pytest.mark.parametrize(
        "start", [1, ALICE_READS - 1, ALICE_READS], ids=["within", "straddling", "beyond"]
    )
    def test_register_glitch_around_the_window(self, start, monkeypatch):
        """A glitch drawn over the whole reception lands on the kept columns.

        Every glitch is drawn with the reception's full read count, so the
        fault streams advance as on a full measurement; the test then
        moves it to start at ``start``, within Alice's window, straddling
        its edge or beyond it.
        """
        burst = 3
        plans = (
            FaultPlan(
                loss=LossConfig(rate=0.2, mean_burst=2.0, snr_dependent=False),
                register=RegisterCorruptionConfig(
                    probability=0.5, burst_symbols=burst, magnitude_db=20.0
                ),
            ),
            AdversaryPlan.none(),
            RetryPolicy(max_retries=2),
        )
        sizes = []
        original = LinkFaultModel.register_glitch

        def run(alice_reads, glitch=True):
            def placed(model, size):
                sizes.append(size)
                drawn = original(model, size)
                if drawn is None or not glitch:
                    return None
                return slice(start, start + burst)

            monkeypatch.setattr(LinkFaultModel, "register_glitch", placed)
            return run_loop_without_eves(17, plans, alice_reads)

        full = run(None)
        windowed = run(ALICE_READS)
        assert_windowed_matches(full, windowed, ALICE_READS)
        assert set(sizes) == {FAST_PHY.total_symbols}
        # The glitches hit Alice: within the window, on its edge or only
        # past it.
        clean = run(None, glitch=False)
        hit = (full.alice_rssi != clean.alice_rssi).any(axis=0)
        assert hit[start] and not hit[:start].any()
        assert (windowed.alice_rssi != clean.alice_rssi[:, :ALICE_READS]).any() == (
            start < ALICE_READS
        )

    @pytest.mark.parametrize("index", range(N_PLANS))
    def test_one_stacked_evaluation_of_the_window(self, index, monkeypatch):
        """One fading pass per measurement: Bob's reads and Alice's window."""
        widths = []
        record_calls(
            monkeypatch, protocol_module, "batched_spatial_gain_db",
            lambda fadings, displacements: widths.append(displacements.shape),
        )
        setup, *plans = plan_case(index)
        run_loop_without_eves(1000 + index, plans, ALICE_READS, **setup)
        assert widths == [(1, ROUNDS * (FAST_PHY.total_symbols + ALICE_READS))]

    @pytest.mark.parametrize("method", ["run", "run_loop"])
    def test_rejects_eavesdroppers_with_a_window(self, method):
        plans = (
            FaultPlan.lossy(0.2, mean_burst=2.0),
            AdversaryPlan.none(),
            RetryPolicy(),
        )
        protocol, seeds, eavesdroppers = build_attacked(
            7, *plans, scenario=ScenarioName.V2V_URBAN, n_eves=1
        )
        with pytest.raises(ConfigurationError):
            getattr(protocol, method)(
                ROUNDS, seeds, eavesdroppers, alice_reads=ALICE_READS
            )

    @pytest.mark.parametrize("alice_reads", [0, FAST_PHY.total_symbols + 1])
    def test_rejects_reads_outside_the_packet(self, alice_reads):
        plans = (FaultPlan.lossy(0.2, mean_burst=2.0), AdversaryPlan.none(), RetryPolicy())
        protocol, seeds, _ = build_attacked(7, *plans)
        with pytest.raises(ConfigurationError):
            protocol.run_loop(ROUNDS, seeds, alice_reads=alice_reads)

    @pytest.mark.parametrize("method", ["run", "run_loop"])
    def test_fault_free_window_matches_the_stacked_kernel(self, method):
        """Both engines window a fault-free weak link the same way."""
        setup = dict(
            scenario=ScenarioName.V2V_URBAN,
            link_budget=LinkBudget(tx_power_dbm=-14.0),
        )
        protocol, seeds, _ = build_setup(5, **setup)
        actual = getattr(protocol, method)(ROUNDS, seeds, alice_reads=ALICE_READS)
        protocol, seeds, _ = build_setup(5, **setup)
        (expected,) = run_fastpath_group(
            [protocol], ROUNDS, [seeds], alice_reads=ALICE_READS
        )
        assert 0 < actual.valid.sum() < ROUNDS
        assert np.isnan(actual.alice_prssi).all()
        assert_traces_equal(expected, actual)


def loop_success_timeline(protocol, start_time_s, n_rounds):
    """The success timeline as a loop carrying the round cursor."""
    airtime = protocol.phy.airtime_s
    turnaround = protocol.bob_device.processing_delay_s
    settle = protocol.alice_device.processing_delay_s
    gap = protocol.inter_round_gap_s
    probe_starts = np.empty(n_rounds)
    response_starts = np.empty(n_rounds)
    cursor = float(start_time_s)
    for k in range(n_rounds):
        probe_starts[k] = cursor
        response_start = cursor + airtime + turnaround
        response_starts[k] = response_start
        cursor = response_start + airtime + settle + gap
    return probe_starts, response_starts


class TestSuccessTimeline:
    """One sequential accumulate replays the loop's cursor additions."""

    @settings(max_examples=300, deadline=None)
    @given(
        start=st.floats(0.0, 1e5),
        n_rounds=st.integers(1, 300),
        airtime=st.floats(1e-3, 5.0),
        turnaround=st.floats(0.0, 0.5),
        settle=st.floats(0.0, 0.5),
        gap=st.one_of(st.just(0.0), st.floats(0.0, 600.0)),
    )
    def test_matches_the_cursor_loop(
        self, start, n_rounds, airtime, turnaround, settle, gap
    ):
        protocol = SimpleNamespace(
            phy=SimpleNamespace(airtime_s=airtime),
            bob_device=SimpleNamespace(processing_delay_s=turnaround),
            alice_device=SimpleNamespace(processing_delay_s=settle),
            inter_round_gap_s=gap,
        )
        expected = loop_success_timeline(protocol, start, n_rounds)
        actual = _success_timeline(protocol, start, n_rounds)
        for want, got in zip(expected, actual):
            assert np.array_equal(want, got)
