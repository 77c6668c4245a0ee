"""Small-scale multipath fading (Clarke/Jakes sum-of-sinusoids).

Small-scale fading is the component that (a) makes the key random -- its
spatial decorrelation over half a wavelength is the security foundation of
the whole scheme -- and (b) makes key generation hard over LoRa, because
it decorrelates over the channel coherence time, which is shorter than the
packet airtime.

:class:`SpatialJakesFading` evaluates the complex gain as a function of
the *relative displacement* between the endpoints (in meters).  Mobility
models feed it the accumulated relative motion, which handles varying
vehicle speed exactly (the instantaneous Doppler is just the derivative
of displacement over wavelength); a fixed maximum Doppler ``f_d`` over
time ``t`` is displacement ``wavelength * f_d * t``.  A Rician K-factor
of ``K = 0`` is pure Rayleigh (urban NLOS); larger K adds a LOS
component (rural).

One kernel, :func:`_sum_of_sinusoids`, evaluates every gain: the
single-realization :meth:`SpatialJakesFading.gain_db` and
:meth:`~SpatialJakesFading.complex_gain` as one row, and
:func:`batched_spatial_gain_db` as one row per realization.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive

_DEFAULT_N_PATHS = 64
_TWO_PI = 2.0 * np.pi
_TURNS_PER_RADIAN = 1.0 / _TWO_PI
_TWO_PI_F32 = np.float32(_TWO_PI)

#: Cap on the ``S * T_chunk * n_paths`` intermediate of
#: :func:`_sum_of_sinusoids`.  It keeps each float64 temporary of the
#: angle, trig and reduction passes at 512 KiB, small enough to stay in
#: cache; at 1,000,000 elements each was 8 MB and every pass streamed
#: through memory (``docs/PERFORMANCE.md`` has the measured costs).
#: Chunking is along the time axis only, so it never perturbs the
#: path-axis reduction order.
BATCH_CHUNK_ELEMS = 65_536


def _sum_of_sinusoids(progress, cos_angles, phases_turns, rician_k, los_cos, los_phase):
    """Complex gains with unit average power, shaped ``progress.shape[:-1]``.

    ``progress`` is ``[..., T, 1]``: phase progress in radians per unit
    cos-angle.  ``cos_angles`` and ``phases_turns`` are the scatterer
    tables, ``[n_paths]`` for one realization or ``[S, 1, n_paths]`` for
    ``[S, T, 1]`` rows; ``los_cos`` and ``los_phase`` are the LOS path's
    (scalars or ``[S, 1]``).  When the ``progress.size * n_paths`` angles
    exceed :data:`BATCH_CHUNK_ELEMS`, the ``T`` axis is evaluated in
    chunks.

    The per-path angles accumulate in float64 *turns* (angle / 2*pi) and
    range-reduce with a bare ``turns - floor(turns)``; only then do cos
    and sin run in float32, where SIMD transcendentals apply.  The
    float64 reduction keeps the float32 arguments small, so the gain
    error stays ~1e-4 dB away from fades and below ~5e-3 dB even in deep
    fades (where the dB scale amplifies tiny linear errors) -- two
    orders of magnitude under the 0.5 dB RSSI register resolution either
    way (``tests/test_fading_precision.py`` pins this against the exact
    float64 evaluation in ``tests/oracles/fading.py``).  The single LOS
    path stays float64 on radians.  Every operation is elementwise but
    the path-axis sum, whose reduction order depends only on the path
    count, so a row's gains depend neither on the other rows nor on the
    chunking.
    """
    n_paths = cos_angles.shape[-1]
    n_times = progress.shape[-2] if progress.ndim > 1 else 1
    if n_times > 1 and progress.size * n_paths > BATCH_CHUNK_ELEMS:
        # Each chunk holds at most the cap's angles, or one instant.
        step = max(1, BATCH_CHUNK_ELEMS * n_times // (progress.size * n_paths))
        gains = np.empty(progress.shape[:-1], dtype=complex)
        for start in range(0, n_times, step):
            gains[..., start : start + step] = _sum_of_sinusoids(
                progress[..., start : start + step, :],
                cos_angles,
                phases_turns,
                rician_k,
                los_cos,
                los_phase,
            )
        return gains
    turns = progress * _TURNS_PER_RADIAN * cos_angles + phases_turns
    turns -= np.floor(turns)
    a32 = turns.astype(np.float32)
    a32 *= _TWO_PI_F32
    re = np.cos(a32).sum(axis=-1, dtype=np.float32)
    im = np.sin(a32).sum(axis=-1, dtype=np.float32)
    diffuse = (re.astype(float) + 1j * im.astype(float)) / math.sqrt(n_paths)
    if rician_k == 0:
        return diffuse
    los = np.exp(1j * (progress[..., 0] * los_cos + los_phase))
    k = rician_k
    return math.sqrt(k / (k + 1.0)) * los + math.sqrt(1.0 / (k + 1.0)) * diffuse


def _power_db(gains: np.ndarray) -> np.ndarray:
    """Power gain in dB, floored at -60 dB to avoid log-of-zero."""
    return 20.0 * np.log10(np.maximum(np.abs(gains), 1e-3))


class SpatialJakesFading:
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
    ):
        require_positive(wavelength_m, "wavelength_m")
        require(n_paths >= 8, f"n_paths must be >= 8 for a credible Rayleigh sum, got {n_paths}")
        require(rician_k >= 0, "rician_k must be >= 0")
        rng = as_generator(seed)
        self.wavelength_m = float(wavelength_m)
        self.n_paths = int(n_paths)
        self.rician_k = float(rician_k)
        # Isotropic arrival angles and i.i.d. phases (Clarke's model);
        # the phases are pre-scaled to turns for the kernel.
        self._cos_angles = np.cos(rng.uniform(0.0, _TWO_PI, size=self.n_paths))
        self._phases_turns = rng.uniform(0.0, _TWO_PI, size=self.n_paths) * _TURNS_PER_RADIAN
        self._los_phase = float(rng.uniform(0.0, _TWO_PI))
        self._los_cos = float(np.cos(rng.uniform(0.0, _TWO_PI)))

    def complex_gain(self, displacement_m) -> np.ndarray:
        """Complex channel gain at the given displacement(s)."""
        s = np.asarray(displacement_m, dtype=float)
        return _sum_of_sinusoids(
            (_TWO_PI * s / self.wavelength_m)[..., np.newaxis],
            self._cos_angles,
            self._phases_turns,
            self.rician_k,
            self._los_cos,
            self._los_phase,
        )

    def gain_db(self, displacement_m) -> np.ndarray:
        """Power gain in dB, floored at -60 dB to avoid log-of-zero."""
        return _power_db(self.complex_gain(displacement_m))


def batched_spatial_gain_db(
    fadings: Sequence[SpatialJakesFading], displacements_m: np.ndarray
) -> np.ndarray:
    """Evaluate S fading realizations on S displacement rows in one sweep.

    This is the cross-session form of :meth:`SpatialJakesFading.gain_db`:
    the per-realization scatterer tables are stacked into
    ``[S, n_paths]`` arrays so one vectorized trig pass covers the whole
    batch instead of S separate dispatches.  Row ``i`` of the
    result is bit-identical to ``fadings[i].gain_db(displacements_m[i])``
    -- both run :func:`_sum_of_sinusoids` -- the contract pinned by
    ``tests/test_probing_cross_session.py``.

    Args:
        fadings: Homogeneous realizations (same ``n_paths`` and
            ``rician_k``; wavelengths may differ per row).
        displacements_m: ``[S, T]`` displacement rows, one per realization.

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
    require(
        all(
            model.n_paths == first.n_paths and model.rician_k == first.rician_k
            for model in models
        ),
        "batched_spatial_gain_db requires homogeneous fading realizations",
    )
    wavelengths = np.array([[model.wavelength_m] for model in models])
    return _power_db(
        _sum_of_sinusoids(
            (_TWO_PI * disp / wavelengths)[..., np.newaxis],
            np.stack([model._cos_angles for model in models])[:, np.newaxis, :],
            np.stack([model._phases_turns for model in models])[:, np.newaxis, :],
            first.rician_k,
            np.array([[model._los_cos] for model in models]),
            np.array([[model._los_phase] for model in models]),
        )
    )
