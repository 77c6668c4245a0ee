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
"""

import numpy as np
import pytest

from repro.channel.interference import InterferenceSource
from repro.channel.scenario import ScenarioName
from repro.faults import chaos
from repro.faults.adversary import AdversaryPlan, build_adversary
from repro.faults.link import LinkFaultModel
from repro.faults.plan import FaultPlan, LossConfig
from repro.faults.retry import RetryPolicy
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.link_budget import LinkBudget
from repro.lora.radio import DRAGINO_LORA_SHIELD, MULTITECH_XDOT
from tests.oracles.probing_loop import reference_run_loop
from tests.test_probing_vectorized import build_setup

SCENARIOS = list(ScenarioName)
SYMMETRIC = (DRAGINO_LORA_SHIELD, DRAGINO_LORA_SHIELD)
ASYMMETRIC = (DRAGINO_LORA_SHIELD, MULTITECH_XDOT)
N_PLANS = 24
ROUNDS = 16


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
    def test_interference(self):
        def make_interference():
            # A fresh source per run: its telegraph process has lazy state.
            return [
                InterferenceSource(
                    (40.0, 5.0), eirp_dbm=0.0, mean_on_s=0.5, mean_off_s=1.0, seed=9
                )
            ]

        plans = (
            FaultPlan.lossy(0.3, mean_burst=2.0, snr_dependent=False),
            AdversaryPlan(jamming_rate=0.2, probe_injection_rate=0.1),
            RetryPolicy(max_retries=3),
        )
        protocol, seeds, eavesdroppers = build_attacked(
            13, *plans, scenario=ScenarioName.V2I_URBAN, n_eves=1,
            interference=make_interference(),
        )
        expected = reference_run_loop(protocol, ROUNDS, seeds, eavesdroppers, 4.25)
        protocol, seeds, eavesdroppers = build_attacked(
            13, *plans, scenario=ScenarioName.V2I_URBAN, n_eves=1,
            interference=make_interference(),
        )
        actual = protocol.run_loop(ROUNDS, seeds, eavesdroppers, 4.25)
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
