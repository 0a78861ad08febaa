import numpy as np
import pytest

from cpdyn.pauli import build_two_qubit_hamiltonian
from cpdyn.quantum import (
    NumericFailure,
    TimeGrid,
    evolve_exact,
    evolve_exact_grid,
    evolve_rk4,
    make_state,
    rk4_weights,
    schrodinger_rhs,
)

from conftest import random_hermitian, random_state
from oracles import rk4_step


class TestMakeState:
    def test_accepts_unit_vectors(self):
        psi = make_state([0.5, 0.5, 0.5, 0.5])
        assert psi.dtype == complex
        assert not psi.flags.writeable

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            make_state([1.0, 1.0, 0.0, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_state([np.nan, 0.0])


class TestTimeGrid:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TimeGrid(t_end=-1.0, dt=0.1)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, dt=0.0)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, dt=2.0)
        with pytest.raises(ValueError):
            TimeGrid(t_end=1.0, dt=0.1, output_stride=0)
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(t_end=1.0, dt=0.1, output_stride=2.5)
        with pytest.raises(ValueError, match="whole number"):
            TimeGrid(t_end=1.0, dt=0.3)

    def test_step_count_tolerates_float_noise(self):
        assert TimeGrid(t_end=10.0, dt=1e-3).n_steps == 10000

    def test_samples_include_endpoints(self):
        grid = TimeGrid(t_end=1.0, dt=0.1, output_stride=3)
        idx = grid.sample_indices()
        assert idx[0] == 0 and idx[-1] == grid.n_steps
        np.testing.assert_allclose(grid.sample_times(), idx * 0.1)


class TestSchrodingerRhs:
    def test_zero_hamiltonian(self):
        psi = make_state([1, 0])
        np.testing.assert_array_equal(schrodinger_rhs(np.zeros((2, 2)), psi), [0, 0])

    def test_identity_generates_global_phase(self):
        psi = make_state([0.6, 0.8j])
        np.testing.assert_allclose(schrodinger_rhs(np.eye(2), psi), -1j * psi)

    def test_two_qubit_component_zero(self, rng):
        c1, c2, c3, c4, c5 = rng.uniform(-5, 5, 5)
        H = build_two_qubit_hamiltonian(c1, c2, c3, c4, c5)
        psi = random_state(rng, 4)
        a, b, c, d = psi
        got = schrodinger_rhs(H, psi)[0]
        expected = -1j * (c1 * a + (c2 - 1j * c3) * c + (-c4 - 1j * c5) * d)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            schrodinger_rhs(np.eye(3), make_state([1, 0]))


class TestEvolveExact:
    def test_time_zero_is_identity(self, rng):
        psi0 = random_state(rng, 5)
        np.testing.assert_allclose(evolve_exact(random_hermitian(rng, 5), psi0, 0.0), psi0)

    def test_diagonal_global_phase(self):
        psi = evolve_exact(np.diag([1.0, -1.0]), make_state([1, 0]), np.pi)
        np.testing.assert_allclose(psi, [np.exp(-1j * np.pi), 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(psi) ** 2, [1, 0], atol=1e-12)

    def test_diagonal_hamiltonian_keeps_populations(self):
        H = build_two_qubit_hamiltonian(1.0, 0, 0, 0, 0)
        psi0 = make_state([0.5, 0.5, 0.5, 0.5])
        for t in (0.3, 1.7, 9.2):
            psi = evolve_exact(H, psi0, t)
            np.testing.assert_allclose(np.abs(psi) ** 2, 0.25, atol=1e-12)

    def test_norm_preserved_on_grid(self, rng):
        traj = evolve_exact_grid(
            random_hermitian(rng, 6), random_state(rng, 6), TimeGrid(10.0, 0.01, 10)
        )
        assert np.max(traj.norm_drift) < 1e-10

    def test_unitarity_preserves_inner_products(self, rng):
        H = random_hermitian(rng, 5)
        for _ in range(5):
            psi0, phi0 = random_state(rng, 5), random_state(rng, 5)
            before = np.vdot(phi0, psi0)
            t = rng.uniform(0, 10)
            after = np.vdot(evolve_exact(H, phi0, t), evolve_exact(H, psi0, t))
            assert abs(after - before) < 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_exact(np.array([[0, 1], [0, 0]]), make_state([1, 0]), 1.0)
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_rk4(np.array([[0, 1], [0, 0]]), make_state([1, 0]), TimeGrid(1.0, 0.1))


class TestRk4Weights:
    def test_linear_case_is_taylor_polynomial(self):
        assert rk4_weights(0, 0, 0, 0) == (0, 1, 1 / 2, 1 / 6, 1 / 24)


class TestEvolveRk4:
    def test_matches_stage_form(self, rng):
        # same states as the stage-by-stage RK4 step to rounding, and no more
        # norm drift over 10k steps than it has (stepping with I + D as one
        # matrix repeats that matrix's rounding every step and drifts ~100x
        # further)
        grid = TimeGrid(10.0, 1e-3, 1000)
        samples = set(grid.sample_indices().tolist())
        for n in range(2, 9):
            H = random_hermitian(rng, n)
            psi = random_state(rng, n)
            traj = evolve_rk4(H, psi, grid)
            stage = [psi]
            for step in range(1, grid.n_steps + 1):
                psi = rk4_step(lambda y: -1j * (H @ y), psi, grid.dt)
                if step in samples:
                    stage.append(psi)
            stage = np.array(stage)
            np.testing.assert_allclose(traj.states, stage, rtol=0, atol=1e-13)
            stage_drift = np.max(np.abs(np.linalg.norm(stage, axis=1) - 1.0))
            assert np.max(traj.norm_drift) <= 1.1 * stage_drift + 1e-15, n

    def test_zero_hamiltonian_constant(self):
        psi0 = make_state([0.6, 0.8])
        traj = evolve_rk4(np.zeros((2, 2)), psi0, TimeGrid(1.0, 0.01, 10))
        np.testing.assert_allclose(traj.states, np.tile(psi0, (len(traj.times), 1)))

    def test_matches_spectral_propagator(self, rng):
        H = random_hermitian(rng, 4)
        psi0 = random_state(rng, 4)
        grid = TimeGrid(10.0, 1e-3, 100)
        traj = evolve_rk4(H, psi0, grid)
        exact = evolve_exact_grid(H, psi0, grid)
        dev = np.max(np.abs(traj.states - exact.states))
        assert dev < 1e-7

    def test_fourth_order_convergence(self, rng):
        H = random_hermitian(rng, 4)
        psi0 = random_state(rng, 4)
        errors = []
        for dt in (4e-3, 2e-3, 1e-3):
            grid = TimeGrid(2.0, dt, max(1, int(round(0.5 / dt))))
            traj = evolve_rk4(H, psi0, grid)
            exact = evolve_exact_grid(H, psi0, grid)
            errors.append(np.max(np.abs(traj.states - exact.states)))
        orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
        assert np.all(orders > 3.6) and np.all(orders < 4.4), orders

    def test_norm_drift_small(self, rng):
        H = random_hermitian(rng, 4)
        traj = evolve_rk4(H, random_state(rng, 4), TimeGrid(20.0, 1e-3, 200))
        assert np.max(traj.norm_drift) < 1e-8

    def test_energy_conserved(self, rng):
        H = random_hermitian(rng, 4)
        psi0 = random_state(rng, 4)
        grid = TimeGrid(10.0, 1e-3, 100)
        for traj, tol in ((evolve_rk4(H, psi0, grid), 1e-8),
                          (evolve_exact_grid(H, psi0, grid), 1e-10)):
            energies = np.array([np.vdot(s, H @ s).real for s in traj.states])
            assert np.max(np.abs(energies - energies[0])) < tol

    def test_non_finite_aborts_with_step_index(self):
        H = np.diag([1e300, -1e300])
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericFailure) as err:
                evolve_rk4(H, make_state([1, 0]), TimeGrid(1.0, 0.1))
        assert err.value.step >= 1
