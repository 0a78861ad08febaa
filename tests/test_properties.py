"""Hypothesis property tests of the classical flow's invariances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.chart import select_pivot, to_chart
from cpdyn.flow import integrate_classical
from cpdyn.quantum import TimeGrid

from conftest import random_hermitian, random_state

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dimensions = st.integers(min_value=2, max_value=6)


def _flow(H, psi0, grid):
    return integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)


@given(seed=seeds, n=dimensions, log_c=st.floats(min_value=-3.0, max_value=6.0))
@settings(max_examples=20)
def test_scaling_of_h_with_time(seed, n, log_c):
    # (cH, dt/c, t_end/c) gives the same step matrix B = -i dt H up to
    # rounding, hence the same samples and chart history
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    c = 10.0**log_c
    base = _flow(H, psi0, TimeGrid(t_end=5.0, dt=1e-2, output_stride=10))
    scaled = _flow(c * H, psi0, TimeGrid(t_end=5.0 / c, dt=1e-2 / c, output_stride=10))
    np.testing.assert_array_equal(scaled.pivots, base.pivots)
    np.testing.assert_allclose(scaled.coords, base.coords, rtol=0, atol=1e-10)


@given(seed=seeds, n=dimensions, phase=st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=20)
def test_global_phase_leaves_populations(seed, n, phase):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    grid = TimeGrid(t_end=5.0, dt=1e-2, output_stride=10)
    base = _flow(H, psi0, grid)
    rotated = _flow(H, np.exp(1j * phase) * psi0, grid)
    np.testing.assert_allclose(
        np.abs(rotated.states()) ** 2, np.abs(base.states()) ** 2, rtol=0, atol=1e-12
    )
