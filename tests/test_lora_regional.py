"""Tests for the regional duty-cycle model and the duty-cycle experiment's pacing."""

import pytest

from repro.core.baselines.common import SystemRunResult
from repro.exceptions import ConfigurationError
from repro.experiments.duty_cycle import _paced_kgr
from repro.lora.airtime import LoRaPHYConfig
from repro.lora.regional import (
    ALL_PLANS,
    EU433,
    EU868,
    US915,
    UNRESTRICTED,
    RegionalPlan,
    paced_duration_s,
)
from repro.metrics.agreement import AgreementSummary


class TestPlans:
    def test_four_plans(self):
        assert len(ALL_PLANS) == 4

    def test_eu433_gap(self):
        # 10% duty: 1 s of airtime demands 9 s of silence.
        assert EU433.min_gap_after(1.0) == pytest.approx(9.0)

    def test_eu868_gap(self):
        assert EU868.min_gap_after(1.0) == pytest.approx(99.0)

    def test_unrestricted_gap_is_zero(self):
        assert UNRESTRICTED.min_gap_after(5.0) == 0.0

    def test_us915_dwell_limit(self):
        assert US915.allows_airtime(0.3)
        assert not US915.allows_airtime(1.5)

    def test_invalid_duty_cycle_rejected(self):
        with pytest.raises(ConfigurationError):
            RegionalPlan(name="bad", duty_cycle=0.0)


class TestPacedDuration:
    def test_single_message_pays_no_gap(self):
        assert paced_duration_s(1, 1.0, EU433) == pytest.approx(1.0)

    def test_many_messages_dominated_by_gaps(self):
        ten = paced_duration_s(10, 1.0, EU433)
        assert ten == pytest.approx(10 * 1.0 + 9 * 9.0)

    def test_zero_messages(self):
        assert paced_duration_s(0, 1.0, EU868) == 0.0

    def test_unrestricted_is_pure_airtime(self):
        assert paced_duration_s(7, 0.5, UNRESTRICTED) == pytest.approx(3.5)

    def test_tighter_duty_cycle_is_slower(self):
        assert paced_duration_s(5, 1.0, EU868) > paced_duration_s(5, 1.0, EU433)

    def test_dwell_limit_forbids_a_long_message(self):
        with pytest.raises(ConfigurationError):
            paced_duration_s(1, 1.0, US915)

    def test_dwell_limit_allows_no_messages(self):
        assert paced_duration_s(0, 1.0, US915) == 0.0

    def test_messages_within_the_dwell_limit(self):
        assert paced_duration_s(3, 0.3, US915) == pytest.approx(0.9)


def run_result(public_bytes=40, messages=3):
    """A 10-block run, built as ``test_lora_airtime.py`` builds one."""
    summary = AgreementSummary(mean=1.0, std=0.0, n_pairs=1)
    return SystemRunResult(
        system="s", raw_agreement=summary, reconciled_agreement=summary,
        matched_blocks=10, n_blocks=10, block_bits=64, probing_time_s=60.0,
        reconciliation_messages=messages, public_bytes=public_bytes,
    )


class TestPacedKgr:
    def test_paper_phy_probe_exceeds_us915_dwell(self):
        # SF12 / 125 kHz / CR 4/8: a probe takes 1.712 s of airtime.
        phy = LoRaPHYConfig()
        assert _paced_kgr(run_result(), phy, UNRESTRICTED) > 0.0
        assert _paced_kgr(run_result(), phy, US915) == 0.0

    def test_reconciliation_message_exceeds_us915_dwell(self):
        # SF7 / 125 kHz: the probe fits in 0.4 s, one 255-byte message does not.
        phy = LoRaPHYConfig(spreading_factor=7)
        assert phy.airtime_s < US915.dwell_limit_s
        assert _paced_kgr(run_result(255, 1), phy, US915) == 0.0

    def test_fast_phy_fits_us915_dwell(self):
        phy = LoRaPHYConfig(spreading_factor=7, bandwidth_hz=500_000.0)
        unrestricted = _paced_kgr(run_result(), phy, UNRESTRICTED)
        assert unrestricted > 0.0
        assert _paced_kgr(run_result(), phy, US915) == unrestricted
