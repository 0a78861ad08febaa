import itertools
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpdyn.pauli import build_two_qubit_hamiltonian
from cpdyn.quantum import (
    NumericFailure,
    TimeGrid,
    evolve_exact_grid,
    evolve_rk4,
    make_state,
    rk4_weights,
)

from conftest import STEP_PATH_IDS, STEP_PATHS, random_hermitian, random_state
from oracles import evolve_rk4_reference, rk4_step, rk4_weights_reference, taylor_expm_reference

# pivot entries s_j = (B^j u)[pivot], bounded so that no product overflows
pivot_entries = st.complex_numbers(
    max_magnitude=1e3, allow_nan=False, allow_infinity=False
)


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
        # a bool is an integer to Python, not a number of steps or seconds
        with pytest.raises(ValueError, match="integer"):
            TimeGrid(t_end=1.0, dt=0.1, output_stride=True)
        for t_end, dt in ((True, 0.1), (1.0, True), ("1", 0.1), (1.0, "0.1")):
            with pytest.raises(ValueError, match="must be a real number"):
                TimeGrid(t_end=t_end, dt=dt)
        with pytest.raises(ValueError, match="whole number"):
            TimeGrid(t_end=1.0, dt=0.3)
        # t_end / dt is inf: no step count, rather than an OverflowError
        for t_end, dt in ((1.0, 5e-324), (1e308, 1e-10)):
            with pytest.raises(ValueError, match="step count"):
                TimeGrid(t_end=t_end, dt=dt)

    def test_step_count_tolerates_float_noise(self):
        assert TimeGrid(t_end=10.0, dt=1e-3).n_steps == 10000

    def test_samples_include_endpoints(self):
        grid = TimeGrid(t_end=1.0, dt=0.1, output_stride=3)
        idx = grid.sample_indices()
        assert idx[0] == 0 and idx[-1] == grid.n_steps
        np.testing.assert_allclose(grid.sample_times(), idx * 0.1)

    @pytest.mark.parametrize("n_steps", [1, 2, 9, 10, 11, 12])
    @pytest.mark.parametrize("stride", [1, 3, 5, 10, 13])
    def test_sample_count_matches_indices(self, n_steps, stride):
        grid = TimeGrid(t_end=n_steps * 0.5, dt=0.5, output_stride=stride)
        want = sorted({*range(0, n_steps + 1, stride), n_steps})
        assert grid.sample_indices().tolist() == want
        assert grid.n_samples == len(want)


class TestEvolveExact:
    def test_time_zero_is_identity(self, rng):
        psi0 = random_state(rng, 5)
        traj = evolve_exact_grid(random_hermitian(rng, 5), psi0, TimeGrid(1.0, 0.1))
        np.testing.assert_allclose(traj.states[0], psi0)

    def test_diagonal_global_phase(self):
        grid = TimeGrid(np.pi, np.pi)
        psi = evolve_exact_grid(np.diag([1.0, -1.0]), make_state([1, 0]), grid).states[-1]
        np.testing.assert_allclose(psi, [np.exp(-1j * np.pi), 0], atol=1e-12)
        np.testing.assert_allclose(np.abs(psi) ** 2, [1, 0], atol=1e-12)

    def test_diagonal_hamiltonian_keeps_populations(self):
        H = build_two_qubit_hamiltonian(1.0, 0, 0, 0, 0)
        psi0 = make_state([0.5, 0.5, 0.5, 0.5])
        # the samples include t = 0.3, 1.7 and 9.2
        traj = evolve_exact_grid(H, psi0, TimeGrid(9.2, 0.1))
        np.testing.assert_allclose(np.abs(traj.states) ** 2, 0.25, atol=1e-12)

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
            grid = TimeGrid(t, t)
            after = np.vdot(evolve_exact_grid(H, phi0, grid).states[-1],
                            evolve_exact_grid(H, psi0, grid).states[-1])
            assert abs(after - before) < 1e-10

    @pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
    def test_matches_taylor_reference(self, rng, path):
        # the eigh-free propagator at every dimension of the step-path rows:
        # an eigendecomposition error that both routes share shows up here
        grid = TimeGrid(2.0, 1e-2, 50)
        for n in path.dims:
            H, psi0 = random_hermitian(rng, n, scale=2.0 / np.sqrt(n)), random_state(rng, n)
            got = evolve_exact_grid(H, psi0, grid).states
            want = taylor_expm_reference(H, psi0, grid.sample_times())
            bound = 2 * n * np.finfo(float).eps * np.linalg.norm(H, 2) * grid.t_end
            np.testing.assert_allclose(got, want, rtol=0, atol=bound)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_exact_grid(
                np.array([[0, 1], [0, 0]]), make_state([1, 0]), TimeGrid(1.0, 0.1)
            )
        with pytest.raises(ValueError, match="not Hermitian"):
            evolve_rk4(np.array([[0, 1], [0, 0]]), make_state([1, 0]), TimeGrid(1.0, 0.1))


@pytest.mark.parametrize("evolve", [evolve_exact_grid, evolve_rk4])
@pytest.mark.parametrize("psi0, message", [
    ([np.nan, 1.0], "must be finite"),
    ([3.0, 4.0], "state norm is 5.0"),
    # finite entries whose norm overflows: no RK4 step is taken
    ([1e200, 1e200], "state norm is inf"),
    # a column is not flattened into a state
    ([[1.0], [0.0]], "1-D"),
], ids=["nan", "norm-5", "norm-overflow", "column"])
def test_initial_state_refused_at_entry(evolve, psi0, message):
    # both integrators take psi0 through `make_state`, the parser's rule
    H = np.array([[1.0, 0.5], [0.5, -1.0]])
    with pytest.raises(ValueError, match=re.escape(message)):
        evolve(H, psi0, TimeGrid(1.0, 0.1))


class TestRk4Weights:
    def test_linear_case_is_taylor_polynomial(self):
        assert rk4_weights(0, 0, 0, 0) == (1, 1, 1 / 2, 1 / 6, 1 / 24)

    @given(st.lists(pivot_entries, min_size=4, max_size=4))
    @example([0j, 0j, 0j, 0j])
    @example([0.0, 0.0, 0.0, 0.0])
    @example([-0.0, 0j, complex(-0.0, -0.0), 0.0])
    def test_bit_identical_to_full_recurrence(self, s):
        # the exact constants folded into the recurrence change no bit and
        # no type (a real weight stays a float)
        got, want = rk4_weights(*s), rk4_weights_reference(*s)
        assert [type(w) for w in got] == [type(w) for w in want]
        np.testing.assert_array_equal(
            np.array(got, dtype=complex).view(np.uint64),
            np.array(want, dtype=complex).view(np.uint64),
        )


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


def _dt_overflowing_at(H: np.ndarray, psi0: np.ndarray, step: int) -> float:
    """A dt past the RK4 stability bound at which |psi|^2 first overflows at
    `step`: in the eigenbasis of H each amplitude c_k grows by the RK4
    polynomial g(-i dt lambda_k) per step, so |psi_n|^2 is a sum of
    |c_k|^2 |g_k|^(2n), increasing in dt for dt * max|lambda| > 2 sqrt(2)."""
    evals, vecs = np.linalg.eigh(H)
    log_c = np.log(np.abs(vecs.conj().T @ psi0) ** 2)

    def log_norm_sq(dt):
        z = -1j * dt * evals
        g = 1 + z + z**2 / 2 + z**3 / 6 + z**4 / 24
        return np.logaddexp.reduce(log_c + 2 * step * np.log(np.abs(g)))

    log_max = np.log(np.finfo(float).max)
    lam = np.max(np.abs(evals))
    lo, hi = 2 * np.sqrt(2) / lam, 8 / lam
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if log_norm_sq(mid) < log_max else (lo, mid)
    return hi


def _unstable_dt(H: np.ndarray, psi0: np.ndarray, onset: str) -> float:
    """dt * ||H|| past the RK4 stability bound: the state grows until it
    overflows, near step 70 ("early") or at step 1992 ("late"), which lies
    in the final stretch of stride 64 on grids of 2000 and 2003 steps."""
    if onset == "early":
        return 8.0 / np.max(np.abs(np.linalg.eigvalsh(H)))
    return _dt_overflowing_at(H, psi0, 1992)


def _failing_step(evolve, H, psi0, grid) -> int:
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(NumericFailure) as err:
            evolve(H, psi0, grid)
    return err.value.step


class TestEvolveRk4BitIdentity:
    """The buffered loop against the plain loop with a fresh increment."""

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_random_systems(self, scale):
        for stride in (1, 7, 64):
            rng = np.random.default_rng(41)
            for n in range(2, 9):
                H = random_hermitian(rng, n) * scale
                psi0 = random_state(rng, n)
                grid = TimeGrid(t_end=2.0 / scale, dt=1e-3 / scale, output_stride=stride)
                got = evolve_rk4(H, psi0, grid).states
                want = evolve_rk4_reference(H, psi0, grid).states
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, stride)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_same_failing_step(self, scale):
        # a failure inside a stretch, in the short final stretch (stride 64,
        # late onset) and in a run that is one stretch (stride 2000)
        cases = itertools.product(("early", "late"), (1, 7, 64, 2000), (2000, 2003))
        for onset, stride, n_steps in cases:
            rng = np.random.default_rng(43)
            for n in range(2, 9):
                H = random_hermitian(rng, n) * scale
                psi0 = random_state(rng, n)
                dt = _unstable_dt(H, psi0, onset)
                grid = TimeGrid(t_end=n_steps * dt, dt=dt, output_stride=stride)
                steps = [_failing_step(evolve, H, psi0, grid)
                         for evolve in (evolve_rk4, evolve_rk4_reference)]
                floor = 1 if onset == "early" else 1984
                assert steps[0] == steps[1] > floor, (n, onset, stride, n_steps, steps)

    def test_nan_state_refused_at_entry(self):
        psi0 = np.array([np.nan, 1.0])
        grid = TimeGrid(1.0, 0.01, 10)
        for evolve in (evolve_rk4, evolve_rk4_reference):
            with pytest.raises(ValueError, match="must be finite"):
                evolve(np.eye(2), psi0, grid)

    def test_failing_run_warns_as_reference(self):
        # one stretch: the unchecked steps run about 1900 steps past the
        # failure and overflow in `dot`; none of that may reach the caller
        rng = np.random.default_rng(47)
        H, psi0 = random_hermitian(rng, 4), random_state(rng, 4)
        dt = _unstable_dt(H, psi0, "early")
        grid = TimeGrid(t_end=2000 * dt, dt=dt, output_stride=2000)
        caught = []
        for evolve in (evolve_rk4, evolve_rk4_reference):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                with pytest.raises(NumericFailure):
                    evolve(H, psi0, grid)
            caught.append([(w.category, str(w.message)) for w in record])
        assert caught[0] == caught[1]
