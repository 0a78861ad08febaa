"""The quantum/classical residual is pure RK4 truncation: halving dt cuts
it by 2^4 as long as it stays above rounding.  This is the standard
empirical-order check (Hairer, Norsett & Wanner, Solving ODEs I, 2nd ed.,
Springer 1993)."""

import math

import numpy as np
import pytest

from cpdyn.flow import FlowSettings
from cpdyn.pauli import build_two_qubit_hamiltonian
from cpdyn.quantum import TimeGrid
from cpdyn.scenario import load_scenario

from conftest import exact_and_classical, gap_and_residual, random_hermitian, random_state
from harness import SCENARIO_DIR

T_END = 2.0
EPS = np.finfo(float).eps


def _systems():
    for name in ("fig1_right", "fig4"):
        config = load_scenario(SCENARIO_DIR / f"{name}.json")
        yield name, config.hamiltonian, config.initial_state
    rng = np.random.default_rng(11)
    for n in (2, 5, 8):
        yield f"random-N{n}", random_hermitian(rng, n), random_state(rng, n)


SYSTEMS = list(_systems())


def start_dt(H) -> float:
    """The largest T_END / 2^m with dt * (lambda_max - lambda_min) <= 1/4.

    The spectral spread is the fastest frequency of the projective flow,
    so every system starts at the same step per radian; binary fractions
    of T_END keep each halved grid a whole number of steps."""
    evals = np.linalg.eigvalsh(H)
    return T_END / 2 ** math.ceil(math.log2(4 * T_END * (evals[-1] - evals[0])))


def residual(H, psi0, grid, settings=None) -> float:
    """The part of the classical state orthogonal to the exact quantum
    state, worst over the samples (`gap_and_residual`)."""
    quantum, classical = exact_and_classical(H, psi0, grid, settings)
    return gap_and_residual(quantum.states, classical.states())[1]


@pytest.mark.parametrize("name, H, psi0", SYSTEMS, ids=[s[0] for s in SYSTEMS])
def test_residual_converges_at_fourth_order(name, H, psi0):
    dt0 = start_dt(H)
    grids = [TimeGrid(T_END, dt0 / 2**j) for j in range(4)]
    r = np.array([residual(H, psi0, grid) for grid in grids])
    floor = np.array([100 * len(psi0) * EPS * grid.n_steps for grid in grids])
    assert np.all(r > floor), f"{name}: residuals {r} reach the rounding floor {floor}"
    orders = np.log2(r[:-1] / r[1:])
    assert np.all((orders >= 3.8) & (orders <= 4.2)), f"{name}: observed orders {orders}"


NEAR_POLE = pytest.mark.xfail(
    reason="ROADMAP item \"Keep the Riccati RK4 away from its poles\": at "
    "switch_threshold 1e-4 the Riccati RK4 steps next to its pole, and halving "
    "dt cuts the residual only 1.04x"
)


@pytest.mark.parametrize("threshold", [0.2, pytest.param(1e-4, marks=NEAR_POLE)])
def test_halving_dt_cuts_residual_across_the_pole(threshold):
    # criterion 7's system: X on the first qubit drives the amplitude of
    # |11>, the first pivot, through zero; both grids sample every 0.02
    H = build_two_qubit_hamiltonian(0.0, 1.0, 0.0, 0.0, 0.0)
    psi0 = np.array([0.0, 0.0, 0.0, 1.0])
    grids = [TimeGrid(10.0, 1e-3 / 2**j, 20 * 2**j) for j in (0, 1)]
    r = [residual(H, psi0, grid, FlowSettings(threshold)) for grid in grids]
    assert r[0] >= 8 * r[1], f"residuals {r}"
