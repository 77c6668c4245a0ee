"""Vehicle mobility models.

Trajectories produce positions and velocities over time; the channel layer
consumes two derived signals:

- the *separation distance* between the endpoints (drives path loss),
- the *accumulated relative displacement* ``integral |v_A(t) - v_B(t)| dt``
  (drives small-scale fading and shadowing decorrelation -- this is the
  paper's ``f_d = |V_A - V_B| / C * f_0`` model generalized to
  time-varying vector velocities).

Three trajectory families cover the paper's scenarios: a static roadside
unit (V2I), constant-speed highway driving (rural), and stop-and-go urban
traffic with random speed segments.  All of them have *piecewise-constant
velocity*, and every trajectory reports the instants where its velocity
may change (:meth:`Trajectory.velocity_breaks_s`).  :class:`RelativeMotion`
relies on that contract: it evaluates the integrand once per
constant-velocity piece, not once per integration grid point.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import require, require_positive


class Trajectory(abc.ABC):
    """A node's motion: position and velocity as functions of time."""

    @abc.abstractmethod
    def position_m(self, time_s) -> np.ndarray:
        """Position(s) in meters; shape ``(..., 2)`` for array input."""

    @abc.abstractmethod
    def velocity_m_s(self, time_s) -> np.ndarray:
        """Velocity vector(s) in m/s; shape ``(..., 2)`` for array input."""

    @abc.abstractmethod
    def velocity_breaks_s(self, horizon_s: float) -> np.ndarray:
        """Ascending instants in ``(0, horizon_s]`` where velocity may change.

        Velocity is constant from each break up to the next one, the
        break included, so the velocity at a break is the new piece's.
        A trajectory whose velocity varies continuously cannot honour
        this, and :class:`RelativeMotion` would integrate it wrongly.
        """

    def speed_m_s(self, time_s) -> np.ndarray:
        """Scalar speed(s) in m/s."""
        return np.linalg.norm(self.velocity_m_s(time_s), axis=-1)


class StaticTrajectory(Trajectory):
    """A fixed node (roadside unit, building-mounted gateway)."""

    def __init__(self, position: Tuple[float, float] = (0.0, 0.0)):
        self._position = np.asarray(position, dtype=float)
        require(self._position.shape == (2,), "position must be a 2-vector")

    def position_m(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        positions = np.empty(t.shape + (2,))
        positions[...] = self._position
        return positions

    def velocity_m_s(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        return np.zeros(t.shape + (2,))

    def velocity_breaks_s(self, horizon_s: float) -> np.ndarray:
        return np.empty(0)


class StraightLineTrajectory(Trajectory):
    """Constant-velocity motion: rural highway driving."""

    def __init__(
        self,
        start: Tuple[float, float],
        speed_m_s: float,
        heading_deg: float = 0.0,
    ):
        require(speed_m_s >= 0, "speed_m_s must be >= 0")
        self._start = np.asarray(start, dtype=float)
        require(self._start.shape == (2,), "start must be a 2-vector")
        heading = np.deg2rad(heading_deg)
        self._velocity = speed_m_s * np.array([np.cos(heading), np.sin(heading)])

    def position_m(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        return self._start + t[..., np.newaxis] * self._velocity

    def velocity_m_s(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        return np.broadcast_to(self._velocity, t.shape + (2,)).copy()

    def velocity_breaks_s(self, horizon_s: float) -> np.ndarray:
        return np.empty(0)


class StopAndGoTrajectory(Trajectory):
    """Urban stop-and-go traffic along a straight street.

    Speed is piecewise constant: segments with random durations
    (``segment_duration_s`` on average, exponential) and random speeds
    uniform in ``[0, max_speed_m_s]``, with a ``stop_probability`` chance
    of a full stop (red light).  Segments are realized lazily out to the
    queried horizon, so the trajectory is deterministic in its seed.
    """

    def __init__(
        self,
        start: Tuple[float, float],
        max_speed_m_s: float,
        heading_deg: float = 0.0,
        segment_duration_s: float = 15.0,
        stop_probability: float = 0.2,
        seed: SeedLike = None,
    ):
        require_positive(max_speed_m_s, "max_speed_m_s")
        require_positive(segment_duration_s, "segment_duration_s")
        require(0.0 <= stop_probability <= 1.0, "stop_probability must be in [0, 1]")
        self._start = np.asarray(start, dtype=float)
        require(self._start.shape == (2,), "start must be a 2-vector")
        heading = np.deg2rad(heading_deg)
        self._direction = np.array([np.cos(heading), np.sin(heading)])
        self._max_speed = float(max_speed_m_s)
        self._segment_duration = float(segment_duration_s)
        self._stop_probability = float(stop_probability)
        self._rng = as_generator(seed)
        # Segment k covers [boundaries[k], boundaries[k+1]) at speeds[k];
        # cumulative[k] is distance travelled by boundaries[k].
        self._boundaries = [0.0]
        self._speeds: list = []
        self._cumulative = [0.0]
        # ndarray views of the segment lists, rebuilt only when the
        # trajectory extends; per-round scalar queries would otherwise
        # re-convert every list on every call.
        self._segment_cache = None

    def _extend_to(self, horizon_s: float) -> None:
        if self._boundaries[-1] > horizon_s:
            return
        while self._boundaries[-1] <= horizon_s:
            duration = float(self._rng.exponential(self._segment_duration))
            duration = max(duration, 1.0)
            if self._rng.uniform() < self._stop_probability:
                speed = 0.0
            else:
                speed = float(self._rng.uniform(0.2, 1.0) * self._max_speed)
            self._speeds.append(speed)
            self._cumulative.append(self._cumulative[-1] + speed * duration)
            self._boundaries.append(self._boundaries[-1] + duration)
        self._segment_cache = None

    def _segment_arrays(self):
        """ndarray views of (boundaries, cumulative, speeds)."""
        if self._segment_cache is None:
            self._segment_cache = (
                np.asarray(self._boundaries),
                np.asarray(self._cumulative),
                np.asarray(self._speeds),
            )
        return self._segment_cache

    def _segments(self, t: np.ndarray):
        """``(flat times, segment index of each)``, extending as needed."""
        flat = np.atleast_1d(t).ravel()
        require(flat.min(initial=0.0) >= 0, "StopAndGoTrajectory is defined for t >= 0")
        horizon = float(flat.max(initial=0.0))
        # Extending to an infinite horizon would never return.
        require(horizon < np.inf, "StopAndGoTrajectory is defined for finite t")
        self._extend_to(horizon + 1.0)
        bounds = self._segment_arrays()[0]
        idx = np.searchsorted(bounds, flat, side="right") - 1
        return flat, np.minimum(np.maximum(idx, 0), len(self._speeds) - 1)

    def position_m(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        flat, idx = self._segments(t)
        bounds, cumulative, speeds = self._segment_arrays()
        dist = cumulative[idx] + speeds[idx] * (flat - bounds[idx])
        return self._start + dist.reshape(t.shape)[..., np.newaxis] * self._direction

    def velocity_m_s(self, time_s) -> np.ndarray:
        t = np.asarray(time_s, dtype=float)
        _, idx = self._segments(t)
        speed = self._segment_arrays()[2][idx].reshape(t.shape)
        return speed[..., np.newaxis] * self._direction

    def velocity_breaks_s(self, horizon_s: float) -> np.ndarray:
        # Extend as velocity_m_s(horizon_s) would.  Segments are drawn in
        # order from this trajectory's own stream, so extending earlier
        # than a query would changes no segment.
        self._extend_to(float(horizon_s) + 1.0)
        bounds = self._segment_arrays()[0]
        return bounds[1 : np.searchsorted(bounds, horizon_s, side="right")]


class RelativeMotion:
    """Derived signals for a pair of trajectories.

    Provides the separation distance and the accumulated relative
    displacement ``integral |v_A - v_B| dt``, the quantity that indexes
    the spatial fading process.  The integral is evaluated on a cached
    uniform grid (default 10 ms) extended lazily, so repeated queries are
    cheap and deterministic.

    Both trajectories have piecewise-constant velocity, so the integrand
    ``|v_A - v_B|`` is evaluated once per constant-velocity piece (the
    union of both trajectories' :meth:`~Trajectory.velocity_breaks_s`)
    and spread over the grid points the piece covers; the trapezoid
    running sum over the grid is unchanged.
    """

    def __init__(
        self,
        trajectory_a: Trajectory,
        trajectory_b: Trajectory,
        integration_step_s: float = 0.01,
    ):
        require_positive(integration_step_s, "integration_step_s")
        self.trajectory_a = trajectory_a
        self.trajectory_b = trajectory_b
        self._step = float(integration_step_s)
        self._grid_cumulative: Optional[np.ndarray] = None  # cum displacement at k*step

    def distance_m(self, time_s) -> np.ndarray:
        """Separation distance between the endpoints."""
        delta = self.trajectory_a.position_m(time_s) - self.trajectory_b.position_m(time_s)
        # What np.linalg.norm(delta, axis=-1) computes for 2-vectors.
        delta *= delta
        return np.sqrt(delta[..., 0] + delta[..., 1])

    def relative_speed_m_s(self, time_s) -> np.ndarray:
        """Magnitude of the vector velocity difference."""
        delta = self.trajectory_a.velocity_m_s(time_s) - self.trajectory_b.velocity_m_s(
            time_s
        )
        return np.linalg.norm(delta, axis=-1)

    def _ensure_grid(self, horizon_s: float) -> None:
        # Also rejects NaN; an infinite horizon has no grid to build.
        require(horizon_s < np.inf, "relative displacement is defined for finite t")
        needed = int(np.ceil(horizon_s / self._step)) + 2
        current = 0 if self._grid_cumulative is None else len(self._grid_cumulative)
        if needed <= current:
            return
        # Extend incrementally (with slack) so repeated growth stays linear.
        needed = max(needed, 2 * current)
        start_index = max(current - 1, 0)
        # Float arange holds the same exact integers as an int one, and
        # skips the int-to-float cast in the product.
        times = np.arange(start_index, needed, dtype=float)
        times *= self._step
        # One integrand evaluation per constant-velocity piece.  A grid
        # instant on a break belongs to the new piece, and a piece
        # between two grid instants covers none of them.
        breaks = np.union1d(
            self.trajectory_a.velocity_breaks_s(times[-1]),
            self.trajectory_b.velocity_breaks_s(times[-1]),
        )
        breaks = breaks[breaks > times[0]]
        piece_speeds = self.relative_speed_m_s(np.concatenate([times[:1], breaks]))
        edges = np.searchsorted(times, breaks, side="left")
        speeds = np.repeat(
            piece_speeds, np.diff(edges, prepend=0, append=len(times))
        )
        grid = np.empty(needed)
        grid[: start_index + 1] = self._grid_cumulative if current else 0.0
        # Trapezoid increments, then the running sum seeded with the
        # stored base, in place.  Accumulation stays strictly sequential:
        # grid values are then bit-identical no matter how queries
        # chunked the growth (one bulk query vs many small ones), which
        # the vectorized probing fast path relies on.
        increments = grid[start_index + 1 :]
        np.add(speeds[1:], speeds[:-1], out=increments)
        increments *= 0.5
        increments *= self._step
        np.cumsum(grid[start_index:], out=grid[start_index:])
        self._grid_cumulative = grid

    def relative_displacement_m(self, time_s) -> np.ndarray:
        """Accumulated relative displacement up to the given time(s)."""
        t = np.asarray(time_s, dtype=float)
        flat = np.atleast_1d(t).ravel()
        require(flat.min(initial=0.0) >= 0, "relative displacement is defined for t >= 0")
        self._ensure_grid(float(flat.max(initial=0.0)))
        positions = flat / self._step
        idx = np.minimum(
            np.maximum(positions.astype(int), 0), len(self._grid_cumulative) - 2
        )
        frac = positions - idx
        lo = self._grid_cumulative[idx]
        hi = self._grid_cumulative[idx + 1]
        result = (lo + frac * (hi - lo)).reshape(np.shape(t))
        if np.isscalar(time_s):
            return float(result)
        return result
