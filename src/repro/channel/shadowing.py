"""Spatially correlated log-normal shadowing (Gudmundson model).

Shadowing is the medium-scale channel component caused by buildings and
terrain.  Its log-domain value is Gaussian with standard deviation
``sigma_db`` and decorrelates exponentially with *distance travelled*:

    E[S(s) S(s + delta)] = sigma^2 * exp(-|delta| / d_corr)

(Gudmundson 1991).  We realize the process with an AR(1) recursion on a
fine spatial grid and interpolate between grid points, extending the grid
lazily (in both directions) as callers ask for new displacements.  Because
shadowing depends on the *environment around the route*, an imitating
attacker that follows the same route observes (nearly) the same shadowing
-- the attack model of Sec. V-H2 -- so the process is keyed by route, not
by node.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive


class GudmundsonShadowing:
    """AR(1)-on-a-grid realization of correlated log-normal shadowing.

    Args:
        sigma_db: Log-domain standard deviation (urban ~6-8 dB, rural ~4 dB).
        decorrelation_distance_m: Distance at which correlation falls to 1/e
            (urban ~25 m, rural ~100 m+).
        seed: Randomness for the realization.
        grid_step_m: Spatial grid resolution; defaults to 1/8 of the
            decorrelation distance.
    """

    def __init__(
        self,
        sigma_db: float,
        decorrelation_distance_m: float,
        seed: SeedLike = None,
        grid_step_m: float = None,
    ):
        require(sigma_db >= 0, "sigma_db must be >= 0")
        require_positive(decorrelation_distance_m, "decorrelation_distance_m")
        self.sigma_db = float(sigma_db)
        self.decorrelation_distance_m = float(decorrelation_distance_m)
        self._step = (
            float(grid_step_m)
            if grid_step_m is not None
            else decorrelation_distance_m / 8.0
        )
        require_positive(self._step, "grid_step_m")
        self._rho = float(np.exp(-self._step / decorrelation_distance_m))
        self._rng = as_generator(seed)
        # Grid values at displacements step * (offset + i) for i in range(len).
        self._grid = np.array([self._draw_initial()])
        self._offset = 0  # grid index of self._grid[0]
        # Independent innovation streams per growth direction.  Each grid
        # node then consumes a fixed draw (the |index|-th of its
        # direction's stream) no matter which caller forced the extension
        # or how queries were chunked -- several consumers share one
        # realization (e.g. an eavesdropper's shifted view), and the
        # vectorized probing path queries them in a different order than
        # the per-round loop.  Upward growth keeps consuming the main
        # stream (spawn() does not advance it), so realizations that only
        # ever grow upward -- every eavesdropper-free scenario -- are
        # unchanged from the original single-stream implementation.
        self._up_rng = self._rng
        (self._down_rng,) = self._rng.spawn(1)

    def _draw_initial(self) -> float:
        return float(self._rng.normal(0.0, self.sigma_db)) if self.sigma_db else 0.0

    def _extend(
        self, anchor: float, count: int, rng: np.random.Generator
    ) -> np.ndarray:
        """``count`` AR(1) steps ``x[i] = rho * x[i-1] + draw[i]`` from ``anchor``.

        One ``rng.normal(size=count)`` call yields the same stream as
        ``count`` scalar draws (NumPy's ziggurat stream is chunking
        invariant), and the recurrence runs over a Python list of the
        draws in the same double arithmetic, so the grid values are
        bit-identical to the original node-at-a-time loop
        (``tests/oracles/shadowing.py``) -- without a NumPy scalar, a
        ``float()`` call and an append per node.
        """
        if self.sigma_db == 0:
            return np.zeros(count)
        noise_std = self.sigma_db * np.sqrt(1.0 - self._rho**2)
        values = rng.normal(0.0, noise_std, size=count).tolist()
        rho = self._rho
        for index, draw in enumerate(values):
            anchor = rho * anchor + draw
            values[index] = anchor
        return np.array(values)

    def _ensure_index(self, index: int) -> None:
        """Grow the grid (by the new nodes only) until it covers ``index``."""
        top = self._offset + self._grid.size
        if index >= top:
            above = self._extend(float(self._grid[-1]), index - top + 1, self._up_rng)
            self._grid = np.concatenate([self._grid, above])
        if index < self._offset:
            below = self._extend(
                float(self._grid[0]), self._offset - index, self._down_rng
            )
            self._grid = np.concatenate([below[::-1], self._grid])
            self._offset = index

    def value_at(self, displacement_m) -> np.ndarray:
        """Shadowing value(s) in dB at the given route displacement(s).

        Negative displacements are valid (the grid grows both ways).
        Values between grid points are linearly interpolated, so the
        process is continuous in displacement.  Interpolation runs on the
        absolute grid index (``floor(disp / step)``), so a value depends
        only on its displacement, never on how far earlier queries grew
        the grid downward.
        """
        disp = np.atleast_1d(np.asarray(displacement_m, dtype=float)).ravel()
        if disp.size:
            low, high = disp.min(), disp.max()
            # min and max propagate NaN, so the two bounds see every
            # non-finite displacement.
            require(
                -np.inf < low and high < np.inf,
                "shadowing is defined for finite displacements",
            )
            self._ensure_index(int(np.floor(low / self._step)))
            self._ensure_index(int(np.floor(high / self._step)) + 1)
        grid = self._grid
        positions = disp / self._step
        node = np.floor(positions)
        frac = positions - node
        idx = np.minimum(
            np.maximum(node.astype(int) - self._offset, 0), grid.size - 2
        )
        result = grid[idx] + frac * (grid[idx + 1] - grid[idx])
        if np.isscalar(displacement_m):
            return float(result[0])
        return result.reshape(np.shape(displacement_m))

    def theoretical_correlation(self, delta_m: float) -> float:
        """The model's correlation at spatial lag ``delta_m``."""
        return float(np.exp(-abs(delta_m) / self.decorrelation_distance_m))

    def shifted(self, offset_m: float) -> "ShiftedShadowing":
        """A view of this realization displaced by ``offset_m``.

        Used for nearby attackers: an eavesdropper following the same
        route ``offset_m`` behind sees the *same* shadowing environment
        sampled at route positions shifted by her trailing distance, so
        her correlation with the legitimate link is exactly the process's
        spatial correlation at that offset.
        """
        return ShiftedShadowing(self, offset_m)


class ShiftedShadowing:
    """A displaced view of an existing shadowing realization."""

    def __init__(self, base: GudmundsonShadowing, offset_m: float):
        self._base = base
        self._offset = float(offset_m)

    @property
    def sigma_db(self) -> float:
        return self._base.sigma_db

    @property
    def decorrelation_distance_m(self) -> float:
        return self._base.decorrelation_distance_m

    def value_at(self, displacement_m) -> np.ndarray:
        """Shadowing at the displaced route position(s)."""
        return self._base.value_at(np.asarray(displacement_m) - self._offset)
