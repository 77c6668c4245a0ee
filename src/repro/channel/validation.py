"""Statistical self-checks of the channel simulator.

A reproduction whose substrate is a simulator owes the reader evidence
that the simulator realizes the statistics it claims.  Each check here
compares a realized process against its closed-form theory and returns a
:class:`ValidationReport`; the test suite runs them all, and users can
run :func:`validate_all` after changing channel parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np
from scipy.special import j0
from scipy.stats import kstest

from repro.channel.fading import SpatialJakesFading
from repro.channel.pathloss import FreeSpacePathLoss, LogDistancePathLoss
from repro.channel.shadowing import GudmundsonShadowing
from repro.utils.rng import SeedLike, as_generator


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of one statistical check.

    Attributes:
        name: What was checked.
        statistic: The measured quantity.
        expected: Its theoretical value.
        tolerance: Allowed absolute deviation.
    """

    name: str
    statistic: float
    expected: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """Whether the measurement is within tolerance of theory."""
        return abs(self.statistic - self.expected) <= self.tolerance

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        flag = "ok " if self.passed else "FAIL"
        return (
            f"[{flag}] {self.name}: measured {self.statistic:.4f}, "
            f"expected {self.expected:.4f} +/- {self.tolerance:.4f}"
        )


def check_rayleigh_envelope(seed: SeedLike = 0, n_samples: int = 20_000) -> ValidationReport:
    """Rayleigh fading's mean envelope: ``sqrt(pi)/2`` at unit power."""
    fading = SpatialJakesFading(wavelength_m=0.6912, n_paths=64, seed=seed)
    displacements = np.arange(n_samples) * 3.3  # ~5 wavelengths apart
    envelope = np.abs(fading.complex_gain(displacements))
    return ValidationReport(
        name="rayleigh mean envelope",
        statistic=float(envelope.mean()),
        expected=float(np.sqrt(np.pi) / 2.0),
        tolerance=0.03,
    )


def check_rayleigh_distribution(seed: SeedLike = 1, n_samples: int = 8_000) -> ValidationReport:
    """Kolmogorov-Smirnov distance of the envelope against Rayleigh."""
    fading = SpatialJakesFading(wavelength_m=0.6912, n_paths=128, seed=seed)
    displacements = np.arange(n_samples) * 4.7
    envelope = np.abs(fading.complex_gain(displacements))
    statistic, _ = kstest(envelope, "rayleigh", args=(0, np.sqrt(0.5)))
    return ValidationReport(
        name="rayleigh envelope KS distance",
        statistic=float(statistic),
        expected=0.0,
        tolerance=0.03,
    )


def check_jakes_autocorrelation(seed: SeedLike = 2) -> ValidationReport:
    """Temporal fading autocorrelation at lag tau vs ``J0(2 pi fd tau)``.

    A fixed maximum Doppler ``fd`` moves the endpoints ``wavelength * fd``
    meters per second, so time ``t`` is displacement ``wavelength * fd * t``.
    """
    doppler = 12.0
    lag = 0.01
    wavelength = 0.6912
    fading = SpatialJakesFading(wavelength_m=wavelength, n_paths=128, seed=seed)
    times = np.arange(0.0, 4000.0, 0.9)  # samples far apart for independence
    base = fading.complex_gain(wavelength * doppler * times)
    lagged = fading.complex_gain(wavelength * doppler * (times + lag))
    measured = float(np.real(np.mean(base * np.conj(lagged))) / np.mean(np.abs(base) ** 2))
    return ValidationReport(
        name="jakes autocorrelation at 10 ms",
        statistic=measured,
        expected=float(j0(2 * np.pi * doppler * lag)),
        tolerance=0.08,
    )


def check_shadowing_marginal(seed: SeedLike = 3) -> ValidationReport:
    """Gudmundson marginal standard deviation equals sigma."""
    process = GudmundsonShadowing(6.0, 20.0, seed=seed)
    values = process.value_at(np.arange(0.0, 400_000.0, 200.0))
    return ValidationReport(
        name="shadowing marginal std",
        statistic=float(np.std(values)),
        expected=6.0,
        tolerance=0.5,
    )


def check_shadowing_correlation(seed: SeedLike = 4) -> ValidationReport:
    """Spatial correlation at one decorrelation distance equals 1/e."""
    decorr = 30.0
    process = GudmundsonShadowing(6.0, decorr, seed=seed)
    base = np.arange(0.0, 600_000.0, 300.0)
    a = process.value_at(base)
    b = process.value_at(base + decorr)
    return ValidationReport(
        name="shadowing correlation at d_corr",
        statistic=float(np.corrcoef(a, b)[0, 1]),
        expected=float(np.exp(-1.0)),
        tolerance=0.05,
    )


def check_friis_slope() -> ValidationReport:
    """Free-space loss slope: 20 dB per decade."""
    model = FreeSpacePathLoss()
    return ValidationReport(
        name="free-space dB/decade",
        statistic=float(model.loss_db(10_000.0) - model.loss_db(1_000.0)),
        expected=20.0,
        tolerance=1e-9,
    )


def check_log_distance_slope() -> ValidationReport:
    """Log-distance slope: 10 n dB per decade."""
    model = LogDistancePathLoss(exponent=3.2)
    return ValidationReport(
        name="log-distance dB/decade (n=3.2)",
        statistic=float(model.loss_db(5_000.0) - model.loss_db(500.0)),
        expected=32.0,
        tolerance=1e-9,
    )


def validate_all(seed: SeedLike = 0) -> Dict[str, ValidationReport]:
    """Run every simulator self-check."""
    rng = as_generator(seed)
    reports = [
        check_rayleigh_envelope(seed=rng),
        check_rayleigh_distribution(seed=rng),
        check_jakes_autocorrelation(seed=rng),
        check_shadowing_marginal(seed=rng),
        check_shadowing_correlation(seed=rng),
        check_friis_slope(),
        check_log_distance_slope(),
    ]
    return {report.name: report for report in reports}
