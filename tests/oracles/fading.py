"""The exact float64 sum-of-sinusoids: the fading kernel's accuracy reference.

:func:`exact_gain_db` evaluates Clarke's model for the realization
``SpatialJakesFading(wavelength_m, n_paths, rician_k, seed)`` draws --
arrival-angle cosines, path phases, then the LOS phase and cosine, from
one generator in that order -- entirely in float64 on radians, with
``exp(1j * angle)`` per path.  It reads nothing of
``repro.channel.fading``, so ``tests/test_fading_precision.py`` can hold
the package's mixed-precision kernel to its accuracy contract against
it.
"""

import numpy as np

TWO_PI = 2.0 * np.pi


def exact_gain_db(wavelength_m, displacement_m, n_paths=64, rician_k=0.0, seed=None):
    """Power gain in dB at ``displacement_m``, floored at -60 dB, in float64."""
    rng = np.random.default_rng(seed)
    cos_angles = np.cos(rng.uniform(0.0, TWO_PI, size=n_paths))
    phases = rng.uniform(0.0, TWO_PI, size=n_paths)
    los_phase = rng.uniform(0.0, TWO_PI)
    los_cos = np.cos(rng.uniform(0.0, TWO_PI))
    progress = TWO_PI * np.asarray(displacement_m, dtype=float) / wavelength_m
    angles = progress[..., np.newaxis] * cos_angles + phases
    gain = np.exp(1j * angles).sum(axis=-1) / np.sqrt(n_paths)
    if rician_k > 0:
        los = np.exp(1j * (progress * los_cos + los_phase))
        gain = np.sqrt(rician_k / (rician_k + 1.0)) * los + np.sqrt(
            1.0 / (rician_k + 1.0)
        ) * gain
    return 20.0 * np.log10(np.maximum(np.abs(gain), 1e-3))
