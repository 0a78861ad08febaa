"""Hypothesis property tests of the classical flow's invariances on both
step paths of `integrate_classical`, one system per row of
`conftest.STEP_PATHS`."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdyn.chart import PIVOT_FLOOR, ChartPoint, select_pivot, to_chart
from cpdyn.flow import _STACK_MAX_N, FlowSettings, _growth_bound, integrate_classical
from cpdyn.quantum import TimeGrid

from conftest import STEP_PATH_IDS, STEP_PATHS, assert_same_trajectory
from conftest import random_coords, random_hermitian, random_state
from oracles import _stacked_powers_reference, _stacked_step_reference

seeds = st.integers(min_value=0, max_value=2**32 - 1)
log_cs = st.floats(min_value=-3.0, max_value=6.0)
phases = st.floats(min_value=-np.pi, max_value=np.pi)

# t = 2 in 2000 RK4 steps; on random N = 2..8 systems of scale 2 the runs
# below agree to a few 1e-10, the size of the accumulated O(dt^4) error.
# Above N = 8, H is scaled by sqrt(8/N), which keeps dt times the spread
# of the spectrum at the N <= 8 level: unscaled, the truncation error of
# the N = 64 runs alone is about 1e-8.
REVERSIBLE_GRID = TimeGrid(t_end=2.0, dt=1e-3, output_stride=50)


def _system(path, seed, data, reversible=False):
    """(H, psi0): a random system of a dimension drawn from the row `path`,
    from `seed`."""
    n = data.draw(st.sampled_from(path.property_dims), label=f"{path.name} n")
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    if reversible and n > 8:
        H *= np.sqrt(8 / n)
    return H, random_state(rng, n)


def _flow(H, psi0, grid):
    return integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)


def _phase_aligned_distance(a, b) -> float:
    """Largest, over rows, of min over phi of |a - exp(i phi) b|."""
    overlap = np.sum(b.conj() * a, axis=-1, keepdims=True)
    return float(np.max(np.linalg.norm(a - overlap / np.abs(overlap) * b, axis=-1)))


@pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
@given(seed=seeds, data=st.data(), log_c=log_cs)
@settings(max_examples=20)
def test_scaling_of_h_with_time(path, seed, data, log_c):
    # (cH, dt/c, t_end/c) gives the same step matrix B = -i dt H up to
    # rounding, hence the same samples and chart history; above the split,
    # eigh of cH gives c lam and the same eigenvectors up to rounding (and
    # up to their phases, which cancel in u = V V^H u)
    c = 10.0**log_c
    H, psi0 = _system(path, seed, data)
    grid = path.property_grid
    base = _flow(H, psi0, grid)
    scaled = _flow(c * H, psi0, TimeGrid(grid.t_end / c, grid.dt / c, grid.output_stride))
    np.testing.assert_array_equal(scaled.pivots, base.pivots)
    np.testing.assert_allclose(scaled.coords, base.coords, rtol=0, atol=1e-10)
    np.testing.assert_allclose(scaled.states(), base.states(), rtol=0, atol=1e-12)


@pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
@given(seed=seeds, data=st.data(), phase=phases)
@settings(max_examples=20)
def test_global_phase_leaves_populations_and_chart_history(path, seed, data, phase):
    H, psi0 = _system(path, seed, data)
    base = _flow(H, psi0, path.property_grid)
    rotated = _flow(H, np.exp(1j * phase) * psi0, path.property_grid)
    np.testing.assert_allclose(
        np.abs(rotated.states()) ** 2, np.abs(base.states()) ** 2, rtol=0, atol=1e-12
    )
    # the same chart history, which above the split always has a switch
    assert base.n_switches > 0 or path.name == "stacked"
    np.testing.assert_array_equal(rotated.pivots, base.pivots)
    np.testing.assert_array_equal(rotated.switch_times, base.switch_times)


@given(seed=seeds, data=st.data())
@settings(max_examples=20)
def test_chart_covariance(seed, data):
    # the flow started in any admissible chart traces the same rays; at
    # N >= 32 the charts of the largest, smallest and median amplitude
    for path in STEP_PATHS:
        H, psi0 = _system(path, seed, data, reversible=True)
        n = psi0.size
        order = np.argsort(np.abs(psi0))
        pivots = order[[-1, 0, n // 2]] if n >= 32 else range(n)
        runs = [
            integrate_classical(H, to_chart(psi0, int(pivot)), REVERSIBLE_GRID).states()
            for pivot in pivots
            if abs(psi0[pivot]) > PIVOT_FLOOR
        ]
        for states in runs[1:]:
            assert _phase_aligned_distance(states, runs[0]) < 1e-8


@given(seed=seeds, data=st.data())
@settings(max_examples=20)
def test_time_reversal(seed, data):
    # evolving under -H for the same time returns to the initial ray
    for path in STEP_PATHS:
        H, psi0 = _system(path, seed, data, reversible=True)
        forward = _flow(H, psi0, REVERSIBLE_GRID)
        point = to_chart(forward.u[-1], int(forward.pivots[-1]))
        back = integrate_classical(-H, point, REVERSIBLE_GRID)
        assert _phase_aligned_distance(back.states()[-1], psi0) < 1e-8


@given(
    seed=seeds,
    n=st.integers(min_value=21, max_value=48),
    threshold=st.floats(min_value=0.05, max_value=0.95),
    c=st.sampled_from([1e-3, 1.0, 1e6]),
    ratio=st.floats(min_value=0.8, max_value=1.0),
    tied=st.integers(min_value=1, max_value=16),
)
@settings(max_examples=25)
def test_skipped_probes_leave_trajectory_spectral(seed, n, threshold, c, ratio, tied):
    # the integrator skips the probes that its distance bound and watched
    # rows rule out; the oracle probes on every step past the switch level,
    # bit for bit alike.  The `tied` next largest amplitudes start at
    # `ratio` times the largest, each 1% below the one before, so that a
    # switch can come at any distance from the start.  With nine or more
    # the largest unwatched one is among them: `far` is then close to
    # `near`, and both it and the re-based `near` decide.  A spectrum of
    # width about 3 moves q by a few percent per step, so that probes are
    # skipped.
    rng = np.random.default_rng(seed)
    H = c * random_hermitian(rng, n, scale=2.0 / np.sqrt(n))
    psi0 = random_state(rng, n)
    first, *rest = np.argsort(np.abs(psi0))[::-1][: tied + 1]
    psi0[rest] *= ratio * abs(psi0[first]) * (1 - 0.01 * np.arange(tied)) / np.abs(psi0[rest])
    psi0 /= np.linalg.norm(psi0)
    assert_same_trajectory(
        H,
        to_chart(psi0, select_pivot(psi0)),
        TimeGrid(t_end=2.0 / c, dt=1e-2 / c, output_stride=10),
        FlowSettings(switch_threshold=threshold),
    )


@given(
    seed=seeds,
    n=st.integers(min_value=2, max_value=_STACK_MAX_N),
    threshold=st.floats(min_value=0.05, max_value=0.95),
    c=st.sampled_from([1e-3, 1.0, 1e6]),
    log_beta=st.floats(min_value=-4.0, max_value=-0.05),
    fill=st.floats(min_value=0.0, max_value=1.0),
)
@settings(max_examples=100)
def test_step_growth_bound(seed, n, threshold, c, log_beta, fill):
    # one stacked Krylov RK4 step from any u with u[pivot] = 1 and |u| up
    # to the switch radius grows |u| by at most the factor of
    # `flow._growth_bound`, which lets the stacked loop skip |u|^2.  The
    # step is the oracle's, with its own copy of the weights, so a change
    # of `rk4_weights` that breaks the sign argument of the bound fails
    # here.  beta = 10^log_beta bounds |B|_2 as the loop computes it: the
    # largest row sum of |dt H|
    rng = np.random.default_rng(seed)
    H = c * random_hermitian(rng, n)
    level = FlowSettings(threshold).switch_level
    # |u|^2 = 1 + fill (level - 1): from the pivot entry alone up to the level
    x = random_coords(rng, n - 1)
    x *= np.sqrt(fill * (level - 1.0)) / np.linalg.norm(x)
    point = ChartPoint(int(rng.integers(n)), x)
    u = point.homogeneous()
    rows = np.abs(H).sum(axis=1).max()
    dt = 10.0**log_beta / rows
    step = _stacked_step_reference(_stacked_powers_reference(H, dt), u, point.pivot)
    step[point.pivot] = 1.0
    rho = _growth_bound(float(dt * rows), math.sqrt(level))
    # the 1e-10 of `flow._STEP_ROUNDING`, which covers the stacked loop's
    # rounding, written as a number
    assert 1 + 1e-10 <= rho < math.inf
    assert np.linalg.norm(step) <= rho * np.linalg.norm(u)


@pytest.mark.parametrize("level", [1 + 1e-12, 4.0, 25.0, 1e4, 1e12])
@pytest.mark.parametrize("beta", [0.0, 1e-300, 1e-16, 1e-3, 0.99])
def test_step_growth_bound_keeps_its_rounding_allowance(beta, level):
    # rho exceeds 1 by the 1e-10 that covers rounding at every beta, down
    # to a zero H (beta 0), whose exact step leaves |u| where it is, and
    # at every switch level, down to one just above the pivot entry's 1
    rho = _growth_bound(beta, math.sqrt(level))
    assert 1 + 1e-10 <= rho < math.inf
