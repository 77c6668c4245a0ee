"""Small-scale multipath fading (Clarke/Jakes sum-of-sinusoids).

Small-scale fading is the component that (a) makes the key random -- its
spatial decorrelation over half a wavelength is the security foundation of
the whole scheme -- and (b) makes key generation hard over LoRa, because
it decorrelates over the channel coherence time, which is shorter than the
packet airtime.

Two parameterizations of the same sum-of-sinusoids model are provided:

- :class:`SpatialJakesFading` evaluates the complex gain as a function of
  the *relative displacement* between the endpoints (in meters).  Mobility
  models feed it the accumulated relative motion, which handles varying
  vehicle speed exactly (the instantaneous Doppler is just the derivative
  of displacement over wavelength).
- :class:`TemporalJakesFading` evaluates it against time for a fixed
  maximum Doppler, matching textbook Jakes simulators; used by the
  theoretical-verification experiments.

Both support a Rician K-factor: ``K = 0`` is pure Rayleigh (urban NLOS),
larger K adds a LOS component (rural).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive

_DEFAULT_N_PATHS = 64
_TWO_PI = 2.0 * np.pi

#: Cap on the ``S * T_chunk * n_paths`` intermediate of
#: :func:`batched_spatial_gain_db`.  It keeps each float64 temporary of
#: the angle, trig and reduction passes at 512 KiB, small enough to stay
#: in cache; at 1,000,000 elements each was 8 MB and every pass streamed
#: through memory (``docs/PERFORMANCE.md`` has the measured costs).
#: Chunking is along the time axis only, so it never perturbs the
#: path-axis reduction order.
BATCH_CHUNK_ELEMS = 65_536

#: Valid ``trig_precision`` modes for the sum-of-sinusoids evaluation.
#:
#: ``"mixed"`` (the default) accumulates the per-path angles in float64
#: *turns* (angle / 2*pi), range-reduces them with a bare
#: ``turns - floor(turns)`` in float64, and only then evaluates cos/sin
#: in float32 where SIMD transcendentals apply.  The float64 reduction
#: keeps the float32 arguments small, so the gain error stays ~1e-4 dB
#: away from fades and below ~5e-3 dB even in deep fades (where the dB
#: scale amplifies tiny linear errors) -- two orders of magnitude under
#: the 0.5 dB RSSI register resolution either way (the precision
#: contract pinned by ``tests/test_fading_precision.py``).
#: ``"float64"`` is the exact legacy evaluation, kept as an escape
#: hatch and as the reference the contract is measured against.
TRIG_PRECISION_MODES = ("mixed", "float64")


def _diffuse_sum_exact(angles: np.ndarray, n_paths: int) -> np.ndarray:
    """Float64 reference: sum ``exp(1j*angles)`` over the path axis."""
    return np.exp(1j * angles).sum(axis=-1) / np.sqrt(n_paths)


def _diffuse_sum_turns(turns: np.ndarray, n_paths: int) -> np.ndarray:
    """Mixed-precision diffuse sum over per-path *turns* (angle / 2*pi).

    Working in turns makes the float64 range reduction a bare
    ``turns - floor(turns)`` -- two memory passes instead of the four a
    mod-2*pi on radians needs -- before the float32 SIMD cos/sin.
    ``turns`` is float64 and owned by the caller (mutated in place).
    """
    turns -= np.floor(turns)
    a32 = turns.astype(np.float32)
    a32 *= np.float32(_TWO_PI)
    re = np.cos(a32).sum(axis=-1, dtype=np.float32)
    im = np.sin(a32).sum(axis=-1, dtype=np.float32)
    return (re.astype(float) + 1j * im.astype(float)) / np.sqrt(n_paths)


class _SumOfSinusoids:
    """Shared machinery: N scatterers with random angles and phases."""

    def __init__(
        self,
        n_paths: int,
        rician_k: float,
        seed: SeedLike,
        trig_precision: str = "mixed",
    ):
        require(n_paths >= 8, f"n_paths must be >= 8 for a credible Rayleigh sum, got {n_paths}")
        require(rician_k >= 0, "rician_k must be >= 0")
        require(
            trig_precision in TRIG_PRECISION_MODES,
            f"trig_precision must be one of {TRIG_PRECISION_MODES}, got {trig_precision!r}",
        )
        rng = as_generator(seed)
        self.n_paths = int(n_paths)
        self.rician_k = float(rician_k)
        self.trig_precision = str(trig_precision)
        # Isotropic arrival angles and i.i.d. phases (Clarke's model).
        self._cos_angles = np.cos(rng.uniform(0.0, 2.0 * np.pi, size=self.n_paths))
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=self.n_paths)
        # Per-path phases pre-scaled to turns for the mixed-precision path.
        self._phases_turns = self._phases * (1.0 / _TWO_PI)
        self._los_phase = float(rng.uniform(0.0, 2.0 * np.pi))
        self._los_cos = float(np.cos(rng.uniform(0.0, 2.0 * np.pi)))

    def _complex_gain(self, phase_progress: np.ndarray) -> np.ndarray:
        """Complex gain given per-path phase progress (radians per unit cos-angle).

        ``phase_progress`` has shape ``(..., 1)`` broadcastable against the
        path axis; returns shape ``(...)`` complex gains with unit average
        power.
        """
        if self.trig_precision == "float64":
            angles = phase_progress * self._cos_angles + self._phases
            diffuse = _diffuse_sum_exact(angles, self.n_paths)
        else:
            turns = (
                phase_progress * (1.0 / _TWO_PI) * self._cos_angles
                + self._phases_turns
            )
            diffuse = _diffuse_sum_turns(turns, self.n_paths)
        if self.rician_k == 0:
            return diffuse
        # The LOS term is a single path: float64 cost is negligible and
        # its phase never benefits from the SIMD batch, so it stays exact.
        los = np.exp(1j * (phase_progress[..., 0] * self._los_cos + self._los_phase))
        k = self.rician_k
        return np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * diffuse


class SpatialJakesFading(_SumOfSinusoids):
    """Fading as a function of relative displacement between the endpoints.

    Args:
        wavelength_m: Carrier wavelength (0.6912 m at 434 MHz).
        n_paths: Number of scatterers in the sum-of-sinusoids.
        rician_k: Rician K-factor (0 = Rayleigh).
        seed: Randomness of the realization.

    The complex gain at displacement ``s`` is

        h(s) = sum_n exp(j (2 pi s / lambda) cos(alpha_n) + j phi_n) / sqrt(N)

    which decorrelates like ``J_0(2 pi s / lambda)``: about zero beyond
    half a wavelength, the paper's Eve-separation argument.
    """

    def __init__(
        self,
        wavelength_m: float,
        n_paths: int = _DEFAULT_N_PATHS,
        rician_k: float = 0.0,
        seed: SeedLike = None,
        trig_precision: str = "mixed",
    ):
        require_positive(wavelength_m, "wavelength_m")
        super().__init__(n_paths, rician_k, seed, trig_precision=trig_precision)
        self.wavelength_m = float(wavelength_m)

    def complex_gain(self, displacement_m) -> np.ndarray:
        """Complex channel gain at the given displacement(s)."""
        s = np.asarray(displacement_m, dtype=float)
        progress = (2.0 * np.pi * s / self.wavelength_m)[..., np.newaxis]
        return self._complex_gain(progress)

    def gain_db(self, displacement_m) -> np.ndarray:
        """Power gain in dB, floored at -60 dB to avoid log-of-zero."""
        magnitude = np.abs(self.complex_gain(displacement_m))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-3))


class TemporalJakesFading(_SumOfSinusoids):
    """Fading as a function of time for a fixed maximum Doppler.

    Equivalent to :class:`SpatialJakesFading` with displacement
    ``s = v t``; exposed separately for experiments that sweep Doppler
    directly.
    """

    def __init__(
        self,
        max_doppler_hz: float,
        n_paths: int = _DEFAULT_N_PATHS,
        rician_k: float = 0.0,
        seed: SeedLike = None,
        trig_precision: str = "mixed",
    ):
        require(max_doppler_hz >= 0, "max_doppler_hz must be >= 0")
        super().__init__(n_paths, rician_k, seed, trig_precision=trig_precision)
        self.max_doppler_hz = float(max_doppler_hz)

    def complex_gain(self, time_s) -> np.ndarray:
        """Complex channel gain at the given time(s)."""
        t = np.asarray(time_s, dtype=float)
        progress = (2.0 * np.pi * self.max_doppler_hz * t)[..., np.newaxis]
        return self._complex_gain(progress)

    def gain_db(self, time_s) -> np.ndarray:
        """Power gain in dB, floored at -60 dB."""
        magnitude = np.abs(self.complex_gain(time_s))
        return 20.0 * np.log10(np.maximum(magnitude, 1e-3))


def batched_spatial_gain_db(
    fadings: Sequence[SpatialJakesFading], displacements_m: np.ndarray
) -> np.ndarray:
    """Evaluate S fading realizations on S displacement rows in one sweep.

    This is the cross-session form of :meth:`SpatialJakesFading.gain_db`:
    the per-realization scatterer tables are stacked into ``[S, n_paths]``
    arrays so one vectorized trig pass covers the whole batch instead of
    S separate dispatches.  Row ``i`` of the result is bit-identical to
    ``fadings[i].gain_db(displacements_m[i])`` because every operation is
    elementwise except the final path-axis sum, whose pairwise reduction
    order depends only on the (shared) path count -- the contract pinned
    by ``tests/test_probing_cross_session.py``.

    Args:
        fadings: Homogeneous realizations (same ``n_paths``, ``rician_k``
            and ``trig_precision``; wavelengths may differ per row).
        displacements_m: ``[S, T]`` displacement rows, one per realization.
            The time axis is evaluated in chunks of at most
            :data:`BATCH_CHUNK_ELEMS` angles.

    Returns:
        ``[S, T]`` float64 power gains in dB, floored at -60 dB.
    """
    models = list(fadings)
    require(len(models) > 0, "batched_spatial_gain_db needs at least one realization")
    disp = np.asarray(displacements_m, dtype=float)
    require(
        disp.ndim == 2 and disp.shape[0] == len(models),
        f"displacements_m must be [S={len(models)}, T], got shape {disp.shape}",
    )
    first = models[0]
    for model in models:
        require(
            model.n_paths == first.n_paths
            and model.rician_k == first.rician_k
            and model.trig_precision == first.trig_precision,
            "batched_spatial_gain_db requires homogeneous fading realizations",
        )
    progress = np.empty_like(disp)
    for i, model in enumerate(models):
        progress[i] = 2.0 * np.pi * disp[i] / model.wavelength_m
    cos_angles = np.stack([m._cos_angles for m in models])  # [S, P]
    n_paths = first.n_paths
    rician_k = first.rician_k
    mixed = first.trig_precision != "float64"
    if mixed:
        # Same op order as the scalar path: progress scaled to turns
        # *before* the per-path product, per-path phases pre-scaled.
        scaled = progress * (1.0 / _TWO_PI)
        per_path = np.stack([m._phases_turns for m in models])  # [S, P]
    else:
        scaled = progress
        per_path = np.stack([m._phases for m in models])  # [S, P]
    if rician_k > 0:
        los_cos = np.array([m._los_cos for m in models])[:, np.newaxis]
        los_phase = np.array([m._los_phase for m in models])[:, np.newaxis]
    n_sessions, n_times = disp.shape
    gains = np.empty((n_sessions, n_times), dtype=complex)
    step = max(1, BATCH_CHUNK_ELEMS // max(1, n_sessions * n_paths))
    for start in range(0, n_times, step):
        chunk = scaled[:, start : start + step]  # [S, Tc]
        angles = chunk[:, :, np.newaxis] * cos_angles[:, np.newaxis, :] + per_path[:, np.newaxis, :]
        if mixed:
            diffuse = _diffuse_sum_turns(angles, n_paths)
        else:
            diffuse = _diffuse_sum_exact(angles, n_paths)
        if rician_k == 0:
            gains[:, start : start + step] = diffuse
        else:
            # The single-path LOS term stays exact float64 on radians.
            los = np.exp(
                1j * (progress[:, start : start + step] * los_cos + los_phase)
            )
            k = rician_k
            gains[:, start : start + step] = (
                np.sqrt(k / (k + 1.0)) * los + np.sqrt(1.0 / (k + 1.0)) * diffuse
            )
    magnitude = np.abs(gains)
    return 20.0 * np.log10(np.maximum(magnitude, 1e-3))
