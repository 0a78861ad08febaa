import numpy as np
import pytest

from cpdyn.chart import ChartPoint, from_chart, select_pivot, to_chart
from cpdyn.flow import integrate_classical
from cpdyn.observables import (
    concurrence_classical,
    concurrence_quantum,
    energy,
    is_separable,
    populations_classical,
    populations_quantum,
    quaternionic_z_classical,
    quaternionic_z_quantum,
)
from cpdyn.pauli import build_two_qubit_hamiltonian
from cpdyn.quantum import TimeGrid, evolve_exact_grid

from conftest import random_coords, random_hermitian, random_state


def random_point(rng, n=4):
    return ChartPoint(int(rng.integers(0, n)), random_coords(rng, n - 1))


class TestPopulations:
    def test_quantum_examples(self):
        np.testing.assert_allclose(
            populations_quantum(np.array([0.5, 0.5, 0.5, 0.5])), 0.25
        )
        np.testing.assert_allclose(
            populations_quantum(np.array([0, 0, 0, 1.0])), [0, 0, 0, 1]
        )
        psi = np.array([np.sqrt(0.4), np.sqrt(0.4), 0, np.sqrt(0.2)])
        np.testing.assert_allclose(
            populations_quantum(psi), [0.4, 0.4, 0, 0.2], atol=1e-15
        )

    def test_classical_examples(self):
        np.testing.assert_allclose(
            populations_classical(ChartPoint(3, np.ones(3))), 0.25
        )
        np.testing.assert_allclose(
            populations_classical(ChartPoint(3, np.zeros(3))), [0, 0, 0, 1]
        )
        np.testing.assert_allclose(
            populations_classical(ChartPoint(3, np.array([1.0, 0, 0]))),
            [0.5, 0, 0, 0.5],
        )

    def test_sum_to_one(self, rng):
        for _ in range(100):
            point = random_point(rng)
            assert populations_classical(point).sum() == pytest.approx(1.0, abs=1e-9)


class TestQuaternionicZ:
    def test_quantum_examples(self):
        assert quaternionic_z_quantum(np.array([0.5, 0.5, 0.5, 0.5])) == 0.0
        assert quaternionic_z_quantum(np.array([1.0, 0, 0, 0])) == 1.0
        assert quaternionic_z_quantum(np.array([0, 0, 0, 1.0])) == -1.0

    def test_classical_examples(self):
        assert quaternionic_z_classical(ChartPoint(3, np.ones(3))) == pytest.approx(0.0)
        assert quaternionic_z_classical(ChartPoint(3, np.zeros(3))) == pytest.approx(-1.0)

    def test_range_bounded(self, rng):
        for _ in range(200):
            assert abs(quaternionic_z_classical(random_point(rng))) <= 1 + 1e-9

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="N=4"):
            quaternionic_z_quantum(np.array([1.0, 0, 0]))
        with pytest.raises(ValueError, match="N=4"):
            quaternionic_z_classical(ChartPoint(0, np.zeros(4)))


class TestConcurrence:
    def test_bell_state_maximal(self):
        psi = np.array([1, 0, 0, 1.0]) / np.sqrt(2)
        assert concurrence_quantum(psi) == pytest.approx(1.0)
        assert concurrence_classical(ChartPoint(3, np.array([1.0, 0, 0]))) == pytest.approx(1.0)

    def test_product_state_zero(self):
        assert concurrence_quantum(np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0)
        assert concurrence_classical(ChartPoint(3, np.ones(3))) == pytest.approx(0.0)

    def test_figure_initial_state_value(self):
        psi = np.array([np.sqrt(0.4), np.sqrt(0.4), 0, np.sqrt(0.2)])
        assert concurrence_quantum(psi) == pytest.approx(2 * np.sqrt(0.08))

    def test_bounds(self, rng):
        for _ in range(200):
            c = concurrence_quantum(random_state(rng, 4))
            assert -1e-12 <= c <= 1 + 1e-9


class TestRepresentationAgreement:
    def test_all_observables_agree_through_from_chart(self, rng):
        H = random_hermitian(rng, 4)
        for _ in range(500):
            point = random_point(rng)
            psi = from_chart(point)
            np.testing.assert_allclose(
                populations_classical(point), populations_quantum(psi), atol=1e-12
            )
            assert quaternionic_z_classical(point) == pytest.approx(
                quaternionic_z_quantum(psi), abs=1e-12
            )
            assert concurrence_classical(point) == pytest.approx(
                concurrence_quantum(psi), abs=1e-12
            )
            assert energy(H, point) == pytest.approx(energy(H, psi), abs=1e-12)

    def test_energy_examples(self):
        assert energy(np.eye(4), np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(1.0)
        H = np.diag([1.0, 1.0, -1.0, -1.0])
        assert energy(H, np.array([0.5, 0.5, 0.5, 0.5])) == pytest.approx(0.0)
        assert energy(np.eye(4), ChartPoint(3, np.ones(3))) == pytest.approx(1.0)


class TestSeparability:
    def test_product_point_is_separable(self):
        assert is_separable(ChartPoint(3, np.ones(3)))

    def test_bell_point_is_not(self):
        assert not is_separable(ChartPoint(3, np.array([1.0, 0, 0])))

    def test_kronecker_products_are_separable(self, rng):
        for _ in range(100):
            q1 = random_state(rng, 2)
            q2 = random_state(rng, 2)
            psi = np.kron(q1, q2)
            assert concurrence_quantum(psi) < 1e-12
            point = to_chart(psi, select_pivot(psi))
            assert is_separable(point)


def test_representation_agreement_along_trajectory(rng):
    # the agreement holds at every sample of an actual switching trajectory
    H = build_two_qubit_hamiltonian(0.0, 1.0, 0.5, 0.3, 0.0)
    traj = integrate_classical(
        H, to_chart(np.array([0, 0, 0, 1.0]), 3), TimeGrid(10.0, 1e-3, 50)
    )
    assert traj.n_switches >= 1
    states = traj.states()
    assert states.shape == (len(traj.times), 4)
    for k in range(len(traj.times)):
        point = to_chart(traj.u[k], int(traj.pivots[k]))
        psi = from_chart(point)
        np.testing.assert_allclose(states[k], psi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            populations_classical(point), populations_quantum(psi), atol=1e-12
        )
        assert concurrence_classical(point) == pytest.approx(
            concurrence_quantum(psi), abs=1e-12
        )
        assert quaternionic_z_classical(point) == pytest.approx(
            quaternionic_z_quantum(psi), abs=1e-12
        )
    # the stacked (S, N) forms agree with the per-point chart forms
    points = [to_chart(u, int(pivot)) for u, pivot in zip(traj.u, traj.pivots)]
    stacked_vs_points = [
        (populations_quantum(states), populations_classical),
        (quaternionic_z_quantum(states), quaternionic_z_classical),
        (concurrence_quantum(states), concurrence_classical),
        (energy(H, states), lambda point: energy(H, point)),
    ]
    for stacked, per_point in stacked_vs_points:
        expected = np.array([per_point(point) for point in points])
        np.testing.assert_allclose(stacked, expected, rtol=0, atol=1e-12)


def test_concurrence_invariant_under_local_rotations(rng):
    # without the two-qubit couplings the concurrence stays at its initial value
    c1, c2, c3 = rng.uniform(-3, 3, 3)
    H = build_two_qubit_hamiltonian(c1, c2, c3, 0.0, 0.0)
    psi0 = random_state(rng, 4)
    grid = TimeGrid(10.0, 1e-3, 200)
    c0 = concurrence_quantum(psi0)

    quantum = evolve_exact_grid(H, psi0, grid)
    cq = np.array([concurrence_quantum(s) for s in quantum.states])
    assert np.max(np.abs(cq - c0)) < 1e-7

    traj = integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)
    cc = concurrence_quantum(traj.states())
    assert np.max(np.abs(cc - c0)) < 1e-7
