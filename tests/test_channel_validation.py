"""The channel simulator's statistical self-checks, run as tests."""

import pytest

from repro.channel.validation import (
    ValidationReport,
    check_friis_slope,
    check_jakes_autocorrelation,
    check_log_distance_slope,
    check_rayleigh_distribution,
    check_rayleigh_envelope,
    check_shadowing_correlation,
    check_shadowing_marginal,
    validate_all,
)


class TestIndividualChecks:
    def test_rayleigh_envelope(self):
        assert check_rayleigh_envelope(seed=0).passed

    def test_rayleigh_distribution(self):
        assert check_rayleigh_distribution(seed=1).passed

    def test_jakes_autocorrelation(self):
        assert check_jakes_autocorrelation(seed=2).passed

    @pytest.mark.parametrize(
        "seed, temporal",
        [(0, 0.8481409009796628), (2, 0.8584264428667672), (11, 0.8611702337520164)],
        ids=["seed-0", "seed-2", "seed-11"],
    )
    def test_jakes_autocorrelation_matches_the_temporal_model(self, seed, temporal):
        # The statistics a time-indexed Jakes model (progress 2 pi fd t)
        # measured on the same realizations: evaluating the spatial model
        # at displacement wavelength * fd * t reads the same figure.
        assert check_jakes_autocorrelation(seed=seed).statistic == pytest.approx(
            temporal, abs=1e-8
        )

    def test_shadowing_marginal(self):
        assert check_shadowing_marginal(seed=3).passed

    def test_shadowing_correlation(self):
        assert check_shadowing_correlation(seed=4).passed

    def test_friis_slope(self):
        assert check_friis_slope().passed

    def test_log_distance_slope(self):
        assert check_log_distance_slope().passed


class TestValidateAll:
    def test_every_check_passes(self):
        reports = validate_all(seed=11)
        failing = [name for name, report in reports.items() if not report.passed]
        assert not failing, failing

    def test_report_rendering(self):
        report = ValidationReport("demo", statistic=1.0, expected=1.0, tolerance=0.1)
        assert report.passed
        assert "demo" in str(report)

    def test_failed_report_detected(self):
        report = ValidationReport("demo", statistic=2.0, expected=1.0, tolerance=0.1)
        assert not report.passed
