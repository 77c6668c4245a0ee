"""Tests for the fault-injection primitives (repro.faults)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.faults.link import (
    DIRECTIONS,
    GilbertElliottProcess,
    LinkFaultModel,
    snr_packet_error_rate,
)
from repro.faults.messages import LossyMessageChannel
from repro.faults.plan import (
    FaultPlan,
    LossConfig,
    MessageFaultConfig,
    RegisterCorruptionConfig,
)
from repro.faults.retry import RetryPolicy
from repro.lora.link_budget import _SNR_LIMIT_DB
from repro.lora.regional import EU868, UNRESTRICTED
from repro.utils.rng import SeedSequenceFactory


class TestFaultPlan:
    def test_none_is_null(self):
        assert FaultPlan.none().is_null
        assert not FaultPlan.none().loss.active
        assert not FaultPlan.none().register.active
        assert not FaultPlan.none().messages.active

    def test_lossy_is_not_null(self):
        plan = FaultPlan.lossy(0.2, mean_burst=3.0, message_drop_rate=0.1)
        assert not plan.is_null
        assert plan.loss.active
        assert plan.messages.active
        assert not plan.register.active

    def test_snr_dependent_alone_activates_loss(self):
        config = LossConfig(rate=0.0, snr_dependent=True)
        assert config.active
        assert not FaultPlan(loss=config).is_null

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: LossConfig(rate=-0.1),
            lambda: LossConfig(rate=1.5),
            lambda: LossConfig(rate=0.1, mean_burst=0.5),
            lambda: RegisterCorruptionConfig(probability=2.0),
            lambda: RegisterCorruptionConfig(probability=0.1, burst_symbols=0),
            lambda: MessageFaultConfig(drop_rate=-0.2),
        ],
    )
    def test_invalid_configs_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            bad()


class TestSnrPacketErrorRate:
    def test_half_at_demodulation_limit(self):
        for sf, limit in _SNR_LIMIT_DB.items():
            assert snr_packet_error_rate(limit, sf) == pytest.approx(0.5)

    def test_monotonically_decreasing_in_snr(self):
        snrs = np.linspace(-30.0, 10.0, 81)
        pers = [snr_packet_error_rate(s, 7) for s in snrs]
        assert all(a >= b for a, b in zip(pers, pers[1:]))

    def test_extremes_saturate(self):
        assert snr_packet_error_rate(-120.0, 12) == 1.0
        assert snr_packet_error_rate(60.0, 7) == 0.0

    def test_unknown_spreading_factor_rejected(self):
        with pytest.raises(ConfigurationError):
            snr_packet_error_rate(0.0, 42)


class TestGilbertElliott:
    def test_deterministic_under_fixed_seed(self):
        # Satellite acceptance: the same SeedSequenceFactory seed must
        # reproduce the exact burst pattern.
        runs = []
        for _ in range(2):
            seeds = SeedSequenceFactory(1234)
            process = GilbertElliottProcess(0.3, 4.0, seeds.generator("fault-loss-a2b"))
            runs.append([process.step() for _ in range(500)])
        assert runs[0] == runs[1]

    def test_stationary_loss_rate(self):
        seeds = SeedSequenceFactory(7)
        process = GilbertElliottProcess(0.25, 3.0, seeds.generator("ge"))
        losses = np.array([process.step() for _ in range(20000)])
        assert losses.mean() == pytest.approx(0.25, abs=0.03)

    def test_mean_burst_controls_correlation(self):
        def mean_burst_length(mean_burst):
            seeds = SeedSequenceFactory(3)
            process = GilbertElliottProcess(0.2, mean_burst, seeds.generator("ge"))
            losses = np.array([process.step() for _ in range(20000)], dtype=int)
            edges = np.diff(np.concatenate([[0], losses, [0]]))
            starts = np.count_nonzero(edges == 1)
            return losses.sum() / max(1, starts)

        assert mean_burst_length(1.0) == pytest.approx(1.0, abs=0.15)
        assert mean_burst_length(6.0) > 2.0 * mean_burst_length(1.0)

    def test_zero_rate_never_loses(self):
        seeds = SeedSequenceFactory(0)
        process = GilbertElliottProcess(0.0, 1.0, seeds.generator("ge"))
        assert not any(process.step() for _ in range(100))


class TestLinkFaultModel:
    def test_deterministic_per_seed_and_direction(self):
        plan = FaultPlan.lossy(0.3, mean_burst=2.0)

        def pattern():
            model = LinkFaultModel(plan, SeedSequenceFactory(42))
            return {
                direction: [model.packet_lost(direction, 5.0, 7) for _ in range(200)]
                for direction in DIRECTIONS
            }

        first, second = pattern(), pattern()
        assert first == second
        assert first["a2b"] != first["b2a"]

    def test_unknown_direction_rejected(self):
        model = LinkFaultModel(FaultPlan.lossy(0.1), SeedSequenceFactory(0))
        with pytest.raises(ConfigurationError):
            model.packet_lost("eve", 0.0, 7)

    def test_snr_dependence_dominates_weak_links(self):
        plan = FaultPlan.lossy(0.0, snr_dependent=True)
        model = LinkFaultModel(plan, SeedSequenceFactory(5))
        weak = sum(model.packet_lost("a2b", -30.0, 7) for _ in range(200))
        strong = sum(model.packet_lost("b2a", 20.0, 7) for _ in range(200))
        assert weak == 200
        assert strong == 0

    def test_register_corruption_inactive_returns_same_object(self):
        model = LinkFaultModel(FaultPlan.lossy(0.1), SeedSequenceFactory(0))
        samples = np.full(16, -80.0)
        glitch = model.register_glitch(samples.size)
        assert glitch is None
        assert model.apply_glitch(samples, glitch, -137.0) is samples

    def test_register_corruption_drops_a_burst(self):
        plan = FaultPlan(
            register=RegisterCorruptionConfig(
                probability=1.0, burst_symbols=3, magnitude_db=20.0
            )
        )
        model = LinkFaultModel(plan, SeedSequenceFactory(9))
        samples = np.full(16, -80.0)
        out = model.apply_glitch(samples, model.register_glitch(samples.size), -137.0)
        assert out is not samples
        assert np.count_nonzero(out < samples) == 3
        np.testing.assert_allclose(out[out < samples], -100.0)

    def test_register_corruption_clamped_at_floor(self):
        plan = FaultPlan(
            register=RegisterCorruptionConfig(probability=1.0, magnitude_db=500.0)
        )
        model = LinkFaultModel(plan, SeedSequenceFactory(2))
        out = model.apply_glitch(np.full(8, -120.0), model.register_glitch(8), -137.0)
        assert out.min() >= -137.0

    @pytest.mark.parametrize(
        "register",
        [
            RegisterCorruptionConfig(),
            RegisterCorruptionConfig(probability=0.4, burst_symbols=24),
            RegisterCorruptionConfig(probability=0.4, burst_symbols=3),
        ],
        ids=["inactive", "burst-covers-reception", "short-burst"],
    )
    def test_glitches_decided_before_the_reads_match_per_reception(
        self, register
    ):
        """Deciding every glitch first equals deciding each as its reception arrives.

        Twin models on one seed: one decides and applies each reception's
        glitch as it arrives, as the frozen per-attempt loop does; the
        other decides every glitch first and applies them afterwards, as
        ``run_loop``'s two passes do.  Outputs, identity on a miss, and
        the stream state afterwards must all agree.
        """
        plan = FaultPlan(register=register)
        whole = LinkFaultModel(plan, SeedSequenceFactory(11))
        split = LinkFaultModel(plan, SeedSequenceFactory(11))
        receptions = np.random.default_rng(3).normal(-90.0, 5.0, size=(200, 16))
        glitches = [split.register_glitch(16) for _ in receptions]
        fired = 0
        for samples, glitch in zip(receptions, glitches):
            expected = whole.apply_glitch(samples, whole.register_glitch(16), -110.0)
            actual = split.apply_glitch(samples, glitch, -110.0)
            np.testing.assert_array_equal(actual, expected)
            assert (actual is samples) == (expected is samples)
            fired += expected is not samples
        assert whole._register_rng.random() == split._register_rng.random()
        assert (0 < fired < 200) if register.active else fired == 0


class TestLossyMessageChannel:
    def test_reliable_when_all_rates_zero(self):
        channel = LossyMessageChannel(
            MessageFaultConfig(), SeedSequenceFactory(0).generator("m")
        )
        for i in range(10):
            assert channel.deliver(i) == [i]
        assert channel.flush() == []
        assert channel.dropped == channel.duplicated == channel.reordered == 0

    def test_deterministic_under_fixed_seed(self):
        config = MessageFaultConfig(drop_rate=0.3, duplicate_rate=0.2, reorder_rate=0.2)

        def arrivals():
            channel = LossyMessageChannel(
                config, SeedSequenceFactory(77).generator("fault-messages")
            )
            out = [channel.deliver(i) for i in range(50)]
            out.append(channel.flush())
            return out

        assert arrivals() == arrivals()

    def test_drops_are_counted_and_missing(self):
        config = MessageFaultConfig(drop_rate=0.5)
        channel = LossyMessageChannel(config, SeedSequenceFactory(1).generator("m"))
        sent = list(range(200))
        received = [m for i in sent for m in channel.deliver(i)]
        received += channel.flush()
        assert channel.dropped == len(sent) - len(received)
        assert 0 < channel.dropped < len(sent)

    def test_duplicates_arrive_twice(self):
        config = MessageFaultConfig(duplicate_rate=1.0)
        channel = LossyMessageChannel(config, SeedSequenceFactory(1).generator("m"))
        assert channel.deliver("x") == ["x", "x"]
        assert channel.duplicated == 1

    def test_reorder_swaps_with_successor(self):
        config = MessageFaultConfig(reorder_rate=1.0)
        channel = LossyMessageChannel(config, SeedSequenceFactory(1).generator("m"))
        first = channel.deliver("a")
        second = channel.deliver("b")
        # "a" is held back; "b" triggers its release, arriving first.
        assert first == []
        assert second[0] == "b"
        assert "a" in second + channel.flush()

    def test_no_message_lost_without_drops(self):
        config = MessageFaultConfig(duplicate_rate=0.3, reorder_rate=0.3)
        channel = LossyMessageChannel(config, SeedSequenceFactory(5).generator("m"))
        received = [m for i in range(100) for m in channel.deliver(i)]
        received += channel.flush()
        assert set(received) == set(range(100))


class TestRetryPolicy:
    def test_exponential_ramp_capped(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, max_backoff_s=0.5
        )
        assert policy.backoff_s(0) == pytest.approx(0.1)
        assert policy.backoff_s(1) == pytest.approx(0.2)
        assert policy.backoff_s(2) == pytest.approx(0.4)
        assert policy.backoff_s(3) == pytest.approx(0.5)
        assert policy.backoff_s(10) == pytest.approx(0.5)

    def test_duty_cycle_floors_backoff(self):
        policy = RetryPolicy(backoff_base_s=0.01, regional_plan=EU868)
        airtime = 0.2
        # EU868's 1% duty cycle mandates 99x the airtime of silence, far
        # above the configured backoff ramp.
        assert policy.backoff_s(0, airtime) == pytest.approx(
            EU868.min_gap_after(airtime)
        )

    def test_unrestricted_plan_leaves_ramp_alone(self):
        policy = RetryPolicy(backoff_base_s=0.05, regional_plan=UNRESTRICTED)
        assert policy.backoff_s(0, 0.2) == pytest.approx(0.05)

    def test_retry_delay_adds_timeout(self):
        policy = RetryPolicy(timeout_s=0.07, backoff_base_s=0.05)
        assert policy.retry_delay_s(0) == pytest.approx(0.12)

    def test_invalid_policies_rejected(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ConfigurationError):
            RetryPolicy(backoff_base_s=1.0, max_backoff_s=0.5)
