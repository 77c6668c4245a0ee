"""The frozen per-point relative-motion grid: the grid build's oracle.

:class:`ReferenceMotionGrid` is ``RelativeMotion``'s integration grid as
it stood before the integrand was evaluated once per constant-velocity
piece: ``_ensure_grid`` evaluates ``|v_A - v_B|`` at every 10 ms grid
point and accumulates the trapezoid increments.  ``ensure_grid`` is
that method verbatim and ``relative_speed_m_s`` is inlined, so the
oracle reads only the two trajectories it is handed and never the code
it checks.

``tests/test_motion_grid_oracle.py`` pins ``RelativeMotion``'s grid to
it bit for bit; ``benchmarks/test_bench_probing.py`` times it as the
``motion_grid`` entry's declared ``before``.
"""

from typing import Optional

import numpy as np


class ReferenceMotionGrid:
    """Cumulative relative displacement at ``k * step``, grown per point."""

    def __init__(self, trajectory_a, trajectory_b, integration_step_s=0.01):
        self.trajectory_a = trajectory_a
        self.trajectory_b = trajectory_b
        self._step = float(integration_step_s)
        self._grid_cumulative: Optional[np.ndarray] = None  # cum displacement at k*step

    @property
    def grid(self) -> Optional[np.ndarray]:
        return self._grid_cumulative

    def relative_speed_m_s(self, time_s) -> np.ndarray:
        """Magnitude of the vector velocity difference."""
        delta = self.trajectory_a.velocity_m_s(time_s) - self.trajectory_b.velocity_m_s(
            time_s
        )
        return np.linalg.norm(delta, axis=-1)

    def ensure_grid(self, horizon_s: float) -> None:
        needed = int(np.ceil(horizon_s / self._step)) + 2
        current = 0 if self._grid_cumulative is None else len(self._grid_cumulative)
        if needed <= current:
            return
        # Extend incrementally (with slack) so repeated growth stays linear.
        needed = max(needed, 2 * current)
        start_index = max(current - 1, 0)
        times = (start_index + np.arange(needed - start_index)) * self._step
        speeds = self.relative_speed_m_s(times)
        increments = 0.5 * (speeds[1:] + speeds[:-1]) * self._step
        base = 0.0 if current == 0 else float(self._grid_cumulative[-1])
        # Seed the running sum with the stored base so accumulation stays
        # strictly sequential: grid values are then bit-identical no matter
        # how queries chunked the growth (one bulk query vs many small
        # ones), which the vectorized probing fast path relies on.
        extension = np.cumsum(np.concatenate([[base], increments]))[1:]
        if current == 0:
            self._grid_cumulative = np.concatenate([[0.0], extension])
        else:
            self._grid_cumulative = np.concatenate(
                [self._grid_cumulative, extension]
            )
