"""The sum-of-sinusoids kernel's accuracy and batching contracts.

The kernel accumulates and range-reduces angles in float64 turns, then
runs cos/sin in float32 where SIMD transcendentals apply.  These tests
pin the two promises that make that safe:

- **Accuracy**: the gain never deviates from the exact float64
  evaluation (``tests/oracles/fading.py``) by more than ~5e-3 dB.  Away
  from fades the error is ~1e-4 dB; the bound is set by deep fades,
  where the dB scale amplifies a ~1e-6 linear error against a near-zero
  gain.  Either way it stays two orders of magnitude under the 0.5 dB
  RSSI register resolution, so no downstream quantization, thresholding
  or key bit can flip outside an already knife-edge tie.
- **Batched bit-identity**: :func:`batched_spatial_gain_db` stacks S
  realizations into one trig pass; each output row must equal the
  per-realization :meth:`SpatialJakesFading.gain_db` *bit for bit*, for
  any time-axis chunking.
"""

import numpy as np
import pytest

from repro.channel import fading
from repro.channel.fading import SpatialJakesFading, batched_spatial_gain_db
from repro.exceptions import ConfigurationError
from tests.oracles.fading import exact_gain_db

# Generous versus the measured worst case (~1e-3 dB, in a deep fade
# over 0-600 m) and still 100x below the 0.5 dB register resolution.
MAX_ABS_DB_ERROR = 5e-3
WAVELENGTH_M = 0.6912


def max_error_db(s, seed, **kwargs):
    """Largest gap between the kernel and the exact float64 evaluation."""
    model = SpatialJakesFading(WAVELENGTH_M, seed=seed, **kwargs)
    exact = exact_gain_db(WAVELENGTH_M, s, seed=seed, **kwargs)
    return float(np.abs(model.gain_db(s) - exact).max())


class TestAccuracyContract:
    def test_spatial_rayleigh(self):
        s = np.linspace(0.0, 600.0, 40_001)
        assert max_error_db(s, 3) < MAX_ABS_DB_ERROR

    def test_spatial_rician(self):
        s = np.linspace(0.0, 600.0, 40_001)
        assert max_error_db(s, 7, rician_k=4.0) < MAX_ABS_DB_ERROR

    def test_fixed_doppler_over_time(self):
        # 80 Hz of Doppler over 30 s: displacement wavelength * 80 * t.
        t = np.linspace(0.0, 30.0, 20_001)
        assert max_error_db(WAVELENGTH_M * 80.0 * t, 5) < MAX_ABS_DB_ERROR

    def test_large_displacement_range_reduction(self):
        # Kilometric displacements are where naive float32 angles break
        # down; float64 range reduction must keep them accurate.
        s = np.linspace(5_000.0, 5_100.0, 10_001)
        assert max_error_db(s, 11) < MAX_ABS_DB_ERROR


class TestBatchedBitIdentity:
    def assert_rows_bit_identical(self, models, disp):
        batched = batched_spatial_gain_db(models, disp)
        for i, model in enumerate(models):
            np.testing.assert_array_equal(batched[i], model.gain_db(disp[i]))

    def test_rayleigh_mixed(self):
        models = [SpatialJakesFading(0.6912, seed=s) for s in range(4)]
        rng = np.random.default_rng(0)
        disp = rng.uniform(0.0, 400.0, size=(4, 257))
        self.assert_rows_bit_identical(models, disp)

    def test_rician(self):
        models = [SpatialJakesFading(0.6912, rician_k=6.0, seed=s) for s in range(3)]
        rng = np.random.default_rng(1)
        disp = rng.uniform(0.0, 400.0, size=(3, 101))
        self.assert_rows_bit_identical(models, disp)

    def test_chunking_never_perturbs_rows(self, monkeypatch):
        # A chunk size far below one row forces many time-axis chunks;
        # the output must not change by a single bit.
        models = [SpatialJakesFading(0.6912, rician_k=2.0, seed=s) for s in range(3)]
        rng = np.random.default_rng(2)
        disp = rng.uniform(0.0, 400.0, size=(3, 211))
        unchunked = batched_spatial_gain_db(models, disp)
        monkeypatch.setattr(fading, "BATCH_CHUNK_ELEMS", 1)
        chunked = batched_spatial_gain_db(models, disp)
        np.testing.assert_array_equal(unchunked, chunked)
        monkeypatch.setattr(fading, "BATCH_CHUNK_ELEMS", 777)
        self.assert_rows_bit_identical(models, disp)

    @pytest.mark.parametrize("rician_k", [0.0, 3.0])
    def test_single_row_chunking_never_perturbs_gain_db(self, monkeypatch, rician_k):
        # gain_db runs the same chunked kernel: one instant per chunk
        # must reproduce the one-chunk evaluation bit for bit.
        model = SpatialJakesFading(0.6912, rician_k=rician_k, seed=4)
        s = np.random.default_rng(3).uniform(0.0, 400.0, size=(7, 23))
        unchunked = model.gain_db(s)
        complex_unchunked = model.complex_gain(s)
        monkeypatch.setattr(fading, "BATCH_CHUNK_ELEMS", 1)
        np.testing.assert_array_equal(model.gain_db(s), unchunked)
        np.testing.assert_array_equal(model.complex_gain(s), complex_unchunked)
        assert unchunked.shape == s.shape

    def test_heterogeneous_wavelengths_allowed(self):
        models = [
            SpatialJakesFading(0.6912, seed=0),
            SpatialJakesFading(0.3456, seed=1),
        ]
        disp = np.linspace(0.0, 50.0, 64).reshape(1, -1).repeat(2, axis=0)
        self.assert_rows_bit_identical(models, disp)

    def test_single_realization_group(self):
        models = [SpatialJakesFading(0.6912, seed=9)]
        disp = np.linspace(0.0, 120.0, 333)[np.newaxis, :]
        self.assert_rows_bit_identical(models, disp)

    def test_rejects_heterogeneous_realizations(self):
        disp = np.zeros((2, 8))
        with pytest.raises(ConfigurationError):
            batched_spatial_gain_db(
                [
                    SpatialJakesFading(0.6912, n_paths=64, seed=0),
                    SpatialJakesFading(0.6912, n_paths=32, seed=1),
                ],
                disp,
            )
        with pytest.raises(ConfigurationError):
            batched_spatial_gain_db(
                [
                    SpatialJakesFading(0.6912, rician_k=0.0, seed=0),
                    SpatialJakesFading(0.6912, rician_k=3.0, seed=1),
                ],
                disp,
            )

    def test_rejects_bad_shapes(self):
        models = [SpatialJakesFading(0.6912, seed=0)]
        with pytest.raises(ConfigurationError):
            batched_spatial_gain_db(models, np.zeros(8))  # 1-D
        with pytest.raises(ConfigurationError):
            batched_spatial_gain_db(models, np.zeros((2, 8)))  # row mismatch
        with pytest.raises(ConfigurationError):
            batched_spatial_gain_db([], np.zeros((0, 8)))
