"""The frozen node-at-a-time AR(1) loop: the shadowing grid's oracle.

:func:`reference_extend` is ``GudmundsonShadowing._extend`` as it stood
before the recursion moved onto a Python list: one batched noise draw,
then one iteration per new grid node over the NumPy array, computing
``rho * anchor + float(draw)``.  The instance attributes it read (``sigma_db``
and ``rho``) are arguments, so the oracle never reads the code it
checks.

``tests/test_shadowing_oracle.py`` pins the live recursion, the grids it
grows and ``value_at`` to it element for element.
"""

import numpy as np


def reference_extend(
    anchor: float, count: int, rng: np.random.Generator, sigma_db: float, rho: float
) -> np.ndarray:
    """``count`` AR(1) steps from ``anchor``, one Python step per node."""
    if sigma_db == 0:
        return np.zeros(count)
    noise_std = sigma_db * np.sqrt(1.0 - rho**2)
    noise = rng.normal(0.0, noise_std, size=count)
    values = []
    for draw in noise:
        anchor = rho * anchor + float(draw)
        values.append(anchor)
    return np.array(values)
