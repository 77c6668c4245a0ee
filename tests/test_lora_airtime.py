"""Tests for the LoRa airtime and bit-rate model against paper figures."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import ConfigurationError
from repro.lora.airtime import (
    CodingRate,
    LoRaPHYConfig,
    STANDARD_BANDWIDTHS_HZ,
    standard_data_rate_sweep,
)


class TestBitRate:
    def test_paper_default_is_183_bps(self):
        # BW=125 kHz, SF=12, CR=4/8 -> 183 bps (paper Sec. II-A).
        cfg = LoRaPHYConfig()
        assert cfg.bit_rate_bps == pytest.approx(183.1, abs=0.1)

    def test_sweep_low_endpoint_near_23_bps(self):
        cfg = LoRaPHYConfig(
            spreading_factor=12, bandwidth_hz=15_625.0, coding_rate=CodingRate.CR_4_8
        )
        assert cfg.bit_rate_bps == pytest.approx(22.9, abs=0.1)

    def test_sweep_high_endpoint_near_1172_bps(self):
        cfg = LoRaPHYConfig(
            spreading_factor=12, bandwidth_hz=500_000.0, coding_rate=CodingRate.CR_4_5
        )
        assert cfg.bit_rate_bps == pytest.approx(1171.9, abs=0.1)

    @given(
        sf=st.integers(min_value=6, max_value=12),
        bw=st.sampled_from(STANDARD_BANDWIDTHS_HZ),
        cr=st.sampled_from(list(CodingRate)),
    )
    def test_bit_rate_positive_and_monotone_in_cr(self, sf, bw, cr):
        cfg = LoRaPHYConfig(spreading_factor=sf, bandwidth_hz=bw, coding_rate=cr)
        assert cfg.bit_rate_bps > 0
        best = LoRaPHYConfig(
            spreading_factor=sf, bandwidth_hz=bw, coding_rate=CodingRate.CR_4_5
        )
        assert best.bit_rate_bps >= cfg.bit_rate_bps


class TestAirtime:
    def test_symbol_time_sf12_125k(self):
        assert LoRaPHYConfig().symbol_time_s == pytest.approx(4096 / 125_000)

    def test_naive_airtime_matches_paper_example(self):
        # Paper Sec. II-A: 16-byte packet at 183 bps -> ~700 ms.
        cfg = LoRaPHYConfig()
        assert cfg.naive_airtime_s == pytest.approx(0.70, abs=0.01)

    def test_semtech_airtime_exceeds_preamble(self):
        cfg = LoRaPHYConfig()
        assert cfg.airtime_s > cfg.preamble_time_s

    def test_minimum_payload_is_eight_symbols(self):
        # LoRa packets carry at least 8 payload symbols (paper Sec. II-A).
        tiny = LoRaPHYConfig(payload_bytes=1, spreading_factor=12)
        assert tiny.n_payload_symbols >= 8

    def test_airtime_decreases_with_bandwidth(self):
        slow = LoRaPHYConfig(bandwidth_hz=125_000.0)
        fast = LoRaPHYConfig(bandwidth_hz=500_000.0)
        assert fast.airtime_s < slow.airtime_s

    @given(payload=st.integers(min_value=1, max_value=255))
    def test_airtime_nondecreasing_in_payload(self, payload):
        smaller = LoRaPHYConfig(payload_bytes=payload)
        larger = LoRaPHYConfig(payload_bytes=payload + 1)
        assert larger.airtime_s >= smaller.airtime_s

    def test_ldro_engages_for_slow_symbols(self):
        slow = LoRaPHYConfig(spreading_factor=12, bandwidth_hz=125_000.0)
        fast = LoRaPHYConfig(spreading_factor=7, bandwidth_hz=125_000.0)
        assert slow.low_data_rate_optimize is True
        assert fast.low_data_rate_optimize is False

    def test_total_symbols_counts_preamble(self):
        cfg = LoRaPHYConfig()
        assert cfg.total_symbols == 13 + cfg.n_payload_symbols  # ceil(8 + 4.25)


class TestValidation:
    def test_rejects_bad_spreading_factor(self):
        with pytest.raises(ConfigurationError):
            LoRaPHYConfig(spreading_factor=5)

    def test_rejects_nonstandard_bandwidth(self):
        with pytest.raises(ConfigurationError):
            LoRaPHYConfig(bandwidth_hz=100_000.0)

    def test_rejects_zero_payload(self):
        with pytest.raises(ConfigurationError):
            LoRaPHYConfig(payload_bytes=0)


class TestDataRateSweep:
    def test_sorted_ascending(self):
        rates = [cfg.bit_rate_bps for cfg in standard_data_rate_sweep()]
        assert rates == sorted(rates)

    def test_covers_paper_range(self):
        rates = [cfg.bit_rate_bps for cfg in standard_data_rate_sweep()]
        assert rates[0] == pytest.approx(23, abs=0.5)
        assert rates[-1] == pytest.approx(1172, abs=0.5)

    def test_includes_paper_default_rate(self):
        rates = [cfg.bit_rate_bps for cfg in standard_data_rate_sweep()]
        assert any(abs(r - 183.1) < 0.5 for r in rates)

    def test_with_payload_changes_only_payload(self):
        cfg = LoRaPHYConfig().with_payload(32)
        assert cfg.payload_bytes == 32
        assert cfg.spreading_factor == 12

    def test_describe_mentions_rate(self):
        assert "bps" in LoRaPHYConfig().describe()


class TestMessageAirtime:
    """The one per-message airtime formula behind every KGR figure."""

    PHYS = (
        LoRaPHYConfig(),
        LoRaPHYConfig(
            spreading_factor=7, bandwidth_hz=500_000.0, coding_rate=CodingRate.CR_4_5
        ),
    )
    # Zero messages, empty payloads and shares above 255 bytes included.
    GRID = [
        (phy, payload, messages)
        for phy in PHYS
        for payload in (0, 1, 17, 255, 256, 511, 766, 2000)
        for messages in (0, 1, 2, 3, 9)
    ]

    def test_pins_the_three_former_expressions(self):
        for phy, payload, messages in self.GRID:
            per_message = phy.message_airtime_s(payload, messages)
            # VehicleKeyPipeline.reconciliation_airtime_s and
            # SystemRunResult.reconciliation_airtime_s (the same body).
            if messages == 0:
                total = 0.0
            else:
                share = max(1, min(255, -(-payload // messages)))
                total = messages * phy.with_payload(share).airtime_s
            assert messages * per_message == total
            # duty_cycle._paced_kgr's per-message airtime.
            share = max(1, min(255, -(-payload // max(1, messages))))
            assert per_message == phy.with_payload(share).airtime_s

    def test_reconciliation_airtime_callers_share_it(self):
        from repro.core.baselines.common import SystemRunResult
        from repro.core.pipeline import VehicleKeyPipeline
        from repro.metrics.agreement import AgreementSummary

        pipeline = VehicleKeyPipeline()
        phy = pipeline.config.phy
        summary = AgreementSummary(mean=1.0, std=0.0, n_pairs=1)
        for payload, messages in ((0, 0), (40, 3), (2000, 2)):
            expected = messages * phy.message_airtime_s(payload, messages)
            assert pipeline.reconciliation_airtime_s(messages, payload) == expected
            run = SystemRunResult(
                system="s", raw_agreement=summary, reconciled_agreement=summary,
                matched_blocks=0, n_blocks=0, block_bits=64, probing_time_s=1.0,
                reconciliation_messages=messages, public_bytes=payload,
            )
            assert run.reconciliation_airtime_s(phy) == expected
