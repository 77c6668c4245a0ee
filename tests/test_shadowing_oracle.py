"""The shadowing AR(1) recursion against the frozen per-node loop.

``GudmundsonShadowing._extend`` runs the recursion
``x[i] = rho * x[i-1] + draw[i]`` over a Python list of the draws;
``tests/oracles/shadowing.py`` keeps the loop over NumPy scalars it
replaced.  The tests require equality element for element -- of single
extensions, of the grids grown by upward and downward queries in any
chunking, and of ``value_at`` -- so no channel value, trace or key can
move, and any later rewrite of the recursion (a compiled filter, say)
is held to the same bits.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.channel.shadowing import GudmundsonShadowing
from tests.oracles.shadowing import reference_extend


class LoopShadowing(GudmundsonShadowing):
    """The live class with the frozen loop as its recursion."""

    def _extend(self, anchor, count, rng):
        return reference_extend(anchor, count, rng, self.sigma_db, self._rho)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(1, 6000),
    anchor=st.floats(-40.0, 40.0),
    sigma_db=st.sampled_from([0.0, 4.0, 7.0, 8.5]),
    rho=st.floats(0.0, 0.9999),
)
def test_extend_equals_the_loop(seed, count, anchor, sigma_db, rho):
    process = GudmundsonShadowing(max(sigma_db, 1.0), 25.0, seed=0)
    process.sigma_db, process._rho = sigma_db, rho
    live = process._extend(anchor, count, np.random.default_rng(seed))
    frozen = reference_extend(anchor, count, np.random.default_rng(seed), sigma_db, rho)
    assert live.dtype == frozen.dtype and live.shape == (count,)
    assert np.array_equal(live, frozen)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma_db=st.sampled_from([0.0, 4.0, 7.0]),
    decorrelation_m=st.sampled_from([10.0, 25.0, 100.0]),
    queries=st.lists(
        st.lists(st.floats(-3000.0, 3000.0), min_size=1, max_size=8),
        min_size=1,
        max_size=20,
    ),
)
def test_grids_and_values_equal_the_loop(seed, sigma_db, decorrelation_m, queries):
    live = GudmundsonShadowing(sigma_db, decorrelation_m, seed=seed)
    frozen = LoopShadowing(sigma_db, decorrelation_m, seed=seed)
    for displacements in queries:
        got = live.value_at(np.array(displacements))
        want = frozen.value_at(np.array(displacements))
        assert np.array_equal(got, want)
        assert live._offset == frozen._offset
        assert np.array_equal(live._grid, frozen._grid)
