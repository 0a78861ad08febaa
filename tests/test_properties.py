"""Hypothesis property tests of the classical flow's invariances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.chart import PIVOT_FLOOR, select_pivot, to_chart
from cpdyn.flow import integrate_classical
from cpdyn.quantum import TimeGrid

from conftest import random_hermitian, random_state

seeds = st.integers(min_value=0, max_value=2**32 - 1)
dimensions = st.integers(min_value=2, max_value=6)

# t = 2 in 2000 RK4 steps; on random N = 2..8 systems of scale 2 the runs
# below agree to a few 1e-10, the size of the accumulated O(dt^4) error
REVERSIBLE_GRID = TimeGrid(t_end=2.0, dt=1e-3, output_stride=50)


def _flow(H, psi0, grid):
    return integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)


def _phase_aligned_distance(a, b) -> float:
    """Largest, over rows, of min over phi of |a - exp(i phi) b|."""
    overlap = np.sum(b.conj() * a, axis=-1, keepdims=True)
    return float(np.max(np.linalg.norm(a - overlap / np.abs(overlap) * b, axis=-1)))


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


@given(seed=seeds, n=st.integers(min_value=2, max_value=8))
@settings(max_examples=20)
def test_chart_covariance(seed, n):
    # the flow started in any admissible chart traces the same rays
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    runs = [
        integrate_classical(H, to_chart(psi0, pivot), REVERSIBLE_GRID).states()
        for pivot in range(n)
        if abs(psi0[pivot]) > PIVOT_FLOOR
    ]
    for states in runs[1:]:
        assert _phase_aligned_distance(states, runs[0]) < 1e-8


@given(seed=seeds, n=st.integers(min_value=2, max_value=8))
@settings(max_examples=20)
def test_time_reversal(seed, n):
    # evolving under -H for the same time returns to the initial ray
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    forward = _flow(H, psi0, REVERSIBLE_GRID)
    point = to_chart(forward.u[-1], int(forward.pivots[-1]))
    back = integrate_classical(-H, point, REVERSIBLE_GRID)
    assert _phase_aligned_distance(back.states()[-1], psi0) < 1e-8


# N above `flow._STACK_MAX_N`: the flow steps in eigen-coordinates
spectral_dimensions = st.sampled_from([32, 64])
SPECTRAL_GRID = TimeGrid(t_end=2.0, dt=1e-2, output_stride=10)


@given(seed=seeds, n=spectral_dimensions, phase=st.floats(min_value=-np.pi, max_value=np.pi))
@settings(max_examples=10)
def test_global_phase_leaves_chart_history_spectral(seed, n, phase):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    base = _flow(H, psi0, SPECTRAL_GRID)
    rotated = _flow(H, np.exp(1j * phase) * psi0, SPECTRAL_GRID)
    assert base.n_switches > 0
    np.testing.assert_array_equal(rotated.pivots, base.pivots)
    np.testing.assert_array_equal(rotated.switch_times, base.switch_times)


@given(seed=seeds, n=spectral_dimensions, c=st.sampled_from([1e-3, 1e6]))
@settings(max_examples=10)
def test_scaling_of_h_with_time_spectral(seed, n, c):
    # eigh of cH gives c lam and the same eigenvectors up to rounding (and
    # up to their phases, which cancel in u = V V^H u)
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    psi0 = random_state(rng, n)
    base = _flow(H, psi0, SPECTRAL_GRID)
    scaled = _flow(c * H, psi0, TimeGrid(t_end=2.0 / c, dt=1e-2 / c, output_stride=10))
    np.testing.assert_array_equal(scaled.pivots, base.pivots)
    np.testing.assert_allclose(scaled.states(), base.states(), rtol=0, atol=1e-12)
