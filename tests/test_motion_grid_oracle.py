"""``RelativeMotion``'s integration grid against the frozen per-point one.

``RelativeMotion`` evaluates ``|v_A - v_B|`` once per constant-velocity
piece, the union of both trajectories' ``velocity_breaks_s``, and spreads
the piece speeds over the grid.  ``tests/oracles/motion_grid.py`` keeps
the grid build as it stood before, evaluating the integrand at every
grid point.  These tests grow both from independently built trajectories
and require the grids to be equal element for element, so no fading or
shadowing value, and hence no trace or key, can move.

The edge cases the per-piece build must get right are pinned with
synthetic piecewise trajectories: a break exactly on a grid instant
belongs to the new piece, and a piece between two grid instants covers
none of them.
"""

import numpy as np
import pytest

from repro.channel.mobility import (
    RelativeMotion,
    StaticTrajectory,
    StopAndGoTrajectory,
    StraightLineTrajectory,
    Trajectory,
)
from repro.channel.scenario import ALL_SCENARIOS, ScenarioName, scenario_config
from repro.exceptions import ConfigurationError
from repro.probing.eve import (
    EveConfig,
    _OffsetTrajectory,
    build_eavesdropping_eve,
    build_imitating_eve,
)
from repro.utils.rng import SeedSequenceFactory
from tests.oracles.motion_grid import ReferenceMotionGrid

STEP = 0.01


class PiecewiseTrajectory(Trajectory):
    """Straight-line motion whose velocity jumps at given instants."""

    def __init__(self, breaks, velocities):
        self._breaks = np.asarray(breaks, dtype=float)
        self._velocities = np.asarray(velocities, dtype=float)
        assert self._velocities.shape == (len(self._breaks) + 1, 2)

    def velocity_m_s(self, time_s):
        t = np.asarray(time_s, dtype=float)
        return self._velocities[np.searchsorted(self._breaks, t, side="right")]

    def position_m(self, time_s):
        raise NotImplementedError  # the grid build never reads positions

    def velocity_breaks_s(self, horizon_s):
        return self._breaks[self._breaks <= horizon_s]


def grids_equal(live: RelativeMotion, oracle: ReferenceMotionGrid) -> bool:
    return np.array_equal(live._grid_cumulative, oracle.grid)


def grow_both(live, oracle, horizons):
    """Grow the live and the frozen grid in step, checking after each."""
    for horizon in horizons:
        live.relative_displacement_m(horizon)
        oracle.ensure_grid(horizon)
        assert grids_equal(live, oracle), horizon


def scenario_pair(name, seed):
    """Two independent realizations of one scenario's trajectories."""
    config = scenario_config(name)
    return (
        config.build_trajectories(SeedSequenceFactory(seed)),
        config.build_trajectories(SeedSequenceFactory(seed)),
    )


class TestScenarioGrids:
    """The four presets, including V2V-urban's two stop-and-go vehicles."""

    @pytest.mark.parametrize("name", ALL_SCENARIOS, ids=lambda n: n.value)
    @pytest.mark.parametrize("seed", [0, 3])
    def test_small_growths_match(self, name, seed):
        (a, b), (a2, b2) = scenario_pair(name, seed)
        rng = np.random.default_rng([seed, 7])
        horizons = np.cumsum(rng.exponential(6.0, size=60))
        grow_both(RelativeMotion(a, b), ReferenceMotionGrid(a2, b2), horizons)

    @pytest.mark.parametrize("name", ALL_SCENARIOS, ids=lambda n: n.value)
    def test_one_bulk_query_matches_many_small_growths(self, name):
        (a, b), (a2, b2) = scenario_pair(name, 1)
        bulk = RelativeMotion(a, b)
        bulk.relative_displacement_m(np.linspace(0.0, 600.0, 7))
        oracle = ReferenceMotionGrid(a2, b2)
        for horizon in np.arange(0.5, 600.0, 2.75):
            oracle.ensure_grid(horizon)
        common = min(len(bulk._grid_cumulative), len(oracle.grid))
        assert common > 60_000
        assert np.array_equal(bulk._grid_cumulative[:common], oracle.grid[:common])

    def test_v2v_urban_has_breaks_from_both_vehicles(self):
        (a, b), _ = scenario_pair(ScenarioName.V2V_URBAN, 0)
        assert isinstance(a, StopAndGoTrajectory)
        assert isinstance(b, StopAndGoTrajectory)
        assert len(a.velocity_breaks_s(600.0)) > 5
        assert len(b.velocity_breaks_s(600.0)) > 5


class TestEavesdropperGrids:
    """Eve's channels pair a legitimate trajectory with an offset one."""

    @pytest.mark.parametrize("name", [ScenarioName.V2V_URBAN, ScenarioName.V2I_URBAN])
    def test_offset_trajectory_grids_match(self, name):
        config = scenario_config(name)

        def eve_motions():
            seeds = SeedSequenceFactory(4)
            alice, bob = config.build_trajectories(seeds)
            channel = config.build_channel(seeds, RelativeMotion(alice, bob))
            setups = [
                build_eavesdropping_eve(
                    config, seeds, channel, alice, bob, EveConfig(label="passive")
                ),
                build_imitating_eve(
                    config, seeds, channel, alice, bob, EveConfig(label="imitator")
                ),
            ]
            return [
                ch.motion
                for setup in setups
                for ch in (setup.channel_from_alice, setup.channel_from_bob)
            ]

        offsets = 0
        for live, frozen in zip(eve_motions(), eve_motions()):
            offsets += isinstance(live.trajectory_b, _OffsetTrajectory)
            oracle = ReferenceMotionGrid(frozen.trajectory_a, frozen.trajectory_b)
            grow_both(live, oracle, [3.0, 40.0, 41.0, 250.0, 900.0])
        assert offsets == 4


class TestPieceEdges:
    """Breaks on a grid instant, and several breaks in one grid interval."""

    STATIC = StaticTrajectory((100.0, 0.0))

    def check(self, breaks, speeds, horizons):
        velocities = np.column_stack([speeds, np.zeros(len(speeds))])
        live = RelativeMotion(PiecewiseTrajectory(breaks, velocities), self.STATIC)
        oracle = ReferenceMotionGrid(
            PiecewiseTrajectory(breaks, velocities), self.STATIC
        )
        grow_both(live, oracle, horizons)
        return live

    def test_break_exactly_on_a_grid_instant(self):
        # The grid instant k * step equals the break, so the new piece's
        # speed applies there: the oracle reads velocity at that instant.
        breaks = [np.float64(37) * STEP, np.float64(512) * STEP, 20.0]
        assert breaks[0] == np.arange(100)[37] * STEP
        self.check(breaks, [3.0, 11.0, 0.0, 7.5], [0.2, 0.37, 0.38, 5.0, 30.0])

    def test_two_breaks_inside_one_grid_interval(self):
        # The middle piece (13 m/s) covers no grid instant; the grid point
        # after it must take the last piece's 2 m/s, not 13.
        self.check(
            [0.503, 0.507, 3.0041, 3.0042, 3.0043],
            [5.0, 13.0, 2.0, 9.0, 1.0, 4.0],
            [0.1, 0.505, 1.0, 3.0, 3.01, 8.0],
        )

    def test_break_on_the_first_instant_of_a_growth(self):
        # A growth starts from the stored last grid point; a break there
        # ends the first growth's last piece and starts the second's.
        first = 0.5
        last_index = int(np.ceil(first / STEP)) + 1
        on_grid = np.float64(last_index) * STEP
        live = self.check([on_grid, 2.0], [1.0, 6.0, 3.0], [first, 0.52, 4.0])
        assert live._grid_cumulative[last_index] > 0.0

    def test_breaks_in_both_trajectories_are_unioned(self):
        a = [0.25, 0.9, np.float64(150) * STEP]
        b = [0.9, 1.111, 2.0]
        va = np.column_stack([[1.0, 2.0, 3.0, 4.0], np.zeros(4)])
        vb = np.column_stack([[0.5, -1.0, 6.0, 2.0], np.zeros(4)])
        live = RelativeMotion(PiecewiseTrajectory(a, va), PiecewiseTrajectory(b, vb))
        oracle = ReferenceMotionGrid(PiecewiseTrajectory(a, va), PiecewiseTrajectory(b, vb))
        grow_both(live, oracle, [0.5, 1.5, 3.0, 12.0])


class TestOnePiecePerEvaluation:
    def test_integrand_is_evaluated_once_per_piece(self):
        # Fails with a per-point build, which evaluates the grid itself.
        (a, b), _ = scenario_pair(ScenarioName.V2V_URBAN, 2)
        motion = RelativeMotion(a, b)
        calls = []
        evaluate = motion.relative_speed_m_s

        def recording(time_s):
            calls.append(np.array(time_s, dtype=float))
            return evaluate(time_s)

        motion.relative_speed_m_s = recording
        sizes = []
        for horizon in (10.0, 11.0, 300.0, 900.0):
            current = 0 if motion._grid_cumulative is None else len(motion._grid_cumulative)
            motion.relative_displacement_m(horizon)
            first = max(current - 1, 0) * STEP
            last = (len(motion._grid_cumulative) - 1) * STEP
            breaks = np.union1d(a.velocity_breaks_s(last), b.velocity_breaks_s(last))
            expected = np.concatenate([[first], breaks[breaks > first]])
            assert np.array_equal(calls[-1], expected)
            sizes.append(len(motion._grid_cumulative) - current)
        assert len(calls) == 4
        assert sum(len(call) for call in calls) < sum(sizes) / 100


def package_trajectories():
    """One instance of every ``Trajectory`` class the package defines."""
    return {
        StaticTrajectory: StaticTrajectory((5.0, -2.0)),
        StraightLineTrajectory: StraightLineTrajectory((0.0, 0.0), 19.0, 180.0),
        StopAndGoTrajectory: StopAndGoTrajectory(
            (0.0, 0.0), 14.0, heading_deg=30.0, seed=9
        ),
        _OffsetTrajectory: _OffsetTrajectory(
            StopAndGoTrajectory((0.0, 0.0), 12.0, seed=10), (-10.0, 0.0)
        ),
    }


class TestPiecewiseConstantContract:
    """Every trajectory in the package reports where its velocity changes."""

    HORIZON = 400.0

    def test_every_package_trajectory_is_covered(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        package = {c for c in subclasses(Trajectory) if c.__module__.startswith("repro.")}
        assert package == set(package_trajectories())

    @pytest.mark.parametrize(
        "cls", list(package_trajectories()), ids=lambda cls: cls.__name__
    )
    def test_velocity_is_constant_on_each_piece(self, cls):
        trajectory = package_trajectories()[cls]
        breaks = trajectory.velocity_breaks_s(self.HORIZON)
        assert np.all(np.diff(breaks) > 0)
        assert np.all((breaks > 0) & (breaks <= self.HORIZON))
        if cls in (StopAndGoTrajectory, _OffsetTrajectory):
            assert len(breaks) > 3
        starts = np.concatenate([[0.0], breaks])
        ends = np.concatenate([breaks, [self.HORIZON]])
        changed = 0
        for start, end in zip(starts, ends):
            inside = np.concatenate(
                [
                    [start, np.nextafter(start, np.inf)],
                    start + (end - start) * np.array([0.25, 0.5, 0.75]),
                    [np.nextafter(end, -np.inf)],
                ]
            )
            velocity = trajectory.velocity_m_s(inside)
            assert np.array_equal(velocity, np.broadcast_to(velocity[0], velocity.shape))
            if start > 0:
                before = trajectory.velocity_m_s(np.nextafter(start, -np.inf))
                changed += not np.array_equal(before, velocity[0])
        if len(breaks):
            assert changed > 0

    def test_stop_and_go_breaks_are_stable_under_extension(self):
        early = StopAndGoTrajectory((0.0, 0.0), 14.0, seed=3)
        late = StopAndGoTrajectory((0.0, 0.0), 14.0, seed=3)
        late.velocity_m_s(np.array([2000.0]))
        first = early.velocity_breaks_s(500.0)
        np.testing.assert_array_equal(first, late.velocity_breaks_s(500.0))
        np.testing.assert_array_equal(
            early.velocity_breaks_s(1500.0)[: len(first)], first
        )


class TestTimeInputs:
    """Invalid and empty times.

    Displacement and ``position_m`` give the verdicts they gave with the
    per-point build; ``velocity_m_s`` now gives the same as ``position_m``.
    """

    def motion(self):
        return RelativeMotion(
            StopAndGoTrajectory((0.0, 0.0), 15.0, seed=1), StaticTrajectory((300.0, 0.0))
        )

    @pytest.mark.parametrize("times", [-1.0, np.array([2.0, -0.5]), np.array([np.nan])])
    def test_displacement_rejects_negative_and_nan(self, times):
        with pytest.raises(ConfigurationError):
            self.motion().relative_displacement_m(times)

    def test_displacement_of_no_times_is_empty(self):
        motion = self.motion()
        assert motion.relative_displacement_m(np.array([])).shape == (0,)
        assert motion.relative_displacement_m(np.empty((0, 3))).shape == (0, 3)
        assert motion.relative_displacement_m(-0.0) == 0.0

    @pytest.mark.parametrize(
        "times", [-5.0, np.array([1.0, -1e-9]), np.nan, np.array([3.0, np.inf])]
    )
    def test_stop_and_go_rejects_negative_nan_and_infinite(self, times):
        node = StopAndGoTrajectory((0.0, 0.0), 15.0, seed=8)
        # velocity_m_s once returned the first segment's velocity for
        # negative times and the last segment's for NaN, and both
        # methods extended the segments forever for an infinite time.
        with pytest.raises(ConfigurationError):
            node.position_m(times)
        with pytest.raises(ConfigurationError):
            node.velocity_m_s(times)

    def test_empty_times_give_empty_positions(self):
        node = StopAndGoTrajectory((0.0, 0.0), 15.0, seed=8)
        for trajectory in (node, StaticTrajectory((1.0, 2.0))):
            assert trajectory.position_m(np.array([])).shape == (0, 2)
            assert trajectory.velocity_m_s(np.array([])).shape == (0, 2)

    def test_static_position_is_a_fresh_array(self):
        node = StaticTrajectory((1.0, 2.0))
        positions = node.position_m(np.array([-3.0, np.nan, 4.0]))
        np.testing.assert_array_equal(positions, [[1.0, 2.0]] * 3)
        positions[0, 0] = 99.0
        np.testing.assert_array_equal(node.position_m(0.0), [1.0, 2.0])
