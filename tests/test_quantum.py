import itertools
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cpdyn.pauli import build_two_qubit_hamiltonian
from cpdyn.quantum import (
    NumericFailure,
    Spectrum,
    TimeGrid,
    evolve_exact_grid,
    evolve_rk4,
    make_state,
    rk4_weights,
    spectrum,
)

from conftest import STEP_PATH_IDS, STEP_PATHS, numpy_dot_calls
from conftest import random_hermitian, random_state
from harness import counting
from oracles import evolve_rk4_reference, rk4_step, rk4_weights_reference, taylor_expm_reference

# pivot entries s_j = (B^j u)[pivot]: complex as the classical loops pass
# them, any magnitude, with infinite and NaN parts, or real floats as
# `flow._growth_bound` and `evolve_rk4` pass them.  The floats are bounded
# so that no float-only operation of the recurrence overflows into a NaN:
# on CPython 3.11+ a float sum or product of two NaNs takes the sign of
# either one depending on whether the interpreter has specialised that
# instruction, so two functions doing the same float operations can
# disagree in a NaN's sign (at 0.33.0, [0.0, nan, 1j, -0.5]
# did after one extra call of `rk4_weights`).  Complex arithmetic runs in
# CPython's C code and keeps its NaN bits
pivot_entries = st.one_of(st.complex_numbers(), st.floats(-1e3, 1e3))


class TestMakeState:
    def test_accepts_unit_vectors(self):
        psi = make_state([0.5, 0.5, 0.5, 0.5])
        assert psi.dtype == complex
        assert not psi.flags.writeable

    def test_rejects_bad_norm(self):
        with pytest.raises(ValueError, match="norm"):
            make_state([1.0, 1.0, 0.0, 0.0])

    def test_norm_tolerance_is_1e_10(self):
        # `STATE_NORM_TOL`: a norm half of it from 1 passes, twice it fails
        make_state([1.0 + 5e-11, 0.0])
        with pytest.raises(ValueError, match="norm"):
            make_state([1.0 + 2e-10, 0.0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            make_state([np.nan, 0.0])
        # an integer beyond the float range (numpy raised OverflowError)
        with pytest.raises(ValueError, match="must be finite"):
            make_state([10**400, 0])


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
        # an integer beyond the float range (was an OverflowError)
        for t_end, dt in ((10**400, 1.0), (1.0, 10**400)):
            with pytest.raises(ValueError, match="integer beyond the float range"):
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
    @pytest.mark.parametrize(
        "stride", [1, 3, 5, 10, 13, 2**63, pytest.param(10**400, id="10^400")]
    )
    def test_sample_count_matches_indices(self, n_steps, stride):
        # int64 for every stride: 2^63 and up gave float64 indices, and
        # 10^400 an object array that `np.exp` refused
        grid = TimeGrid(t_end=n_steps * 0.5, dt=0.5, output_stride=stride)
        want = sorted({*range(0, n_steps + 1, stride), n_steps})
        idx = grid.sample_indices()
        assert idx.dtype == np.int64 and idx.tolist() == want
        assert grid.n_samples == len(want)


class TestSpectrum:
    def test_checked_when_made(self):
        # `Spectrum(H)` trusted H, so a route handed one returned states for
        # a matrix it refuses when handed the matrix itself
        H = np.array([[0, 1], [0, 0]])
        message = re.escape("operator is not Hermitian: max|H - H^dag| = 1.000e+00")
        with pytest.raises(ValueError, match=message):
            evolve_exact_grid(Spectrum(H), make_state([1, 0]), TimeGrid(1, 0.5))
        with pytest.raises(ValueError, match=message):
            evolve_exact_grid(H, make_state([1, 0]), TimeGrid(1, 0.5))

    @pytest.mark.parametrize("scale", [1e-320, 1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("n", [2, 64])
    def test_valid_decomposition_passes_its_check(self, rng, n, scale):
        # the check's bound scales with ||H||, and the smallest normal float
        # keeps a subnormal H from failing it by underflow
        H = random_hermitian(rng, n) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = spectrum(H, n).lam
        assert np.isfinite(lam).all()

    @pytest.mark.parametrize("shift, refused", [(16, False), (128, True)])
    def test_decomposition_residual_bound_is_64(self, rng, monkeypatch, shift, refused):
        # `_EIGH_RESIDUAL`: an eigh whose every eigenvalue is off by d
        # leaves the residual d x, up to the few units of a valid one, so
        # d = 16 N eps ||H|| passes and d = 128 N eps ||H|| fails
        n = 64
        H = random_hermitian(rng, n)
        d = shift * n * np.finfo(float).eps * np.linalg.norm(H, np.inf)
        eigh = np.linalg.eigh

        def shifted(H):
            lam, V = eigh(H)
            return lam + d, V

        monkeypatch.setattr(np.linalg, "eigh", shifted)
        if refused:
            with pytest.raises(NumericFailure, match="^eigh residual .* at step 1$"):
                spectrum(H, n).lam
        else:
            spectrum(H, n).lam

    @pytest.mark.parametrize("H", [1.0, np.float64(1.0), np.array(1.0)])
    def test_scalar_is_not_a_square_matrix(self, H):
        with pytest.raises(ValueError, match="^operator must be a square matrix"):
            spectrum(H, 2)


class TestEvolveExact:
    def test_infinite_eigenvalue_fails_at_step_1(self):
        # finite entries whose spectral radius overflows: eigh gives
        # lam[-1] = inf, and the exact route named step 0 (the t = 0
        # sample's 0 x inf) where the RK4 routes name step 1
        H = np.full((3, 3), 1e308)
        assert np.isinf(spectrum(H, 3).lam).any()
        psi0 = make_state([1.0, 0.0, 0.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for evolve in (evolve_exact_grid, evolve_rk4):
                with pytest.raises(NumericFailure) as err:
                    evolve(H, psi0, TimeGrid(1.0, 1.0))
                assert err.value.step == 1, evolve

    @pytest.mark.parametrize("stride", [1, 7, 20])
    def test_first_failing_step_whatever_the_stride(self, stride):
        # (k dt) max|lambda| = k 1e307 leaves the float range at step 18;
        # strides 7 and 20 sample steps 21 and 20 next, which the route
        # named before it bisected over the steps
        H = np.diag([1e307, -1e307])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericFailure) as err:
                evolve_exact_grid(H, make_state([1.0, 0.0]), TimeGrid(40.0, 1.0, stride))
        assert err.value.step == 18

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
    ([1.0], "state must have >= 2 amplitudes, got shape (1,)"),
], ids=["nan", "norm-5", "norm-overflow", "column", "one-amplitude"])
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
    # an infinite s3 pins the order of the product by b0 + c0, and NaN
    # parts of opposite sign those by a0, b1, b1 + c1 and c2 + 1/2: either
    # swapped changes a weight's NaN bits (see `rk4_weights`)
    @example([0j, 0j, complex(math.inf, 0.0), 0j])
    @example([complex(-math.inf, 1.0), 0.5, 0j, 1j])
    @example([complex(math.nan, -math.nan), 0j, 0j, 0j])
    # the negated bounds that `flow._growth_bound` passes, beta 0.3, nu 5
    @example([-1.5, -0.45, -0.135, -0.0405])
    @example([0.5, 1j, -0.25, complex(0.1, -0.2)])
    # s1 = 2: the stage-2 point's y0 = 1 - s1 / 2 cancels to exactly 0
    @example([2 + 0j, -1j, 0j, complex(-0.0, 0.0)])
    def test_bit_identical_to_full_recurrence(self, s):
        # the exact constants folded into the recurrence, and the order of
        # its float constants, change no bit, NaN signs and payloads
        # included, and no type (a real weight stays a float)
        got, want = rk4_weights(*s), rk4_weights_reference(*s)
        assert [type(w) for w in got] == [type(w) for w in want]
        np.testing.assert_array_equal(
            np.array(got, dtype=complex).view(np.uint64),
            np.array(want, dtype=complex).view(np.uint64),
        )


class TestEvolveRk4:
    def test_stable_run_checks_no_step(self, rng):
        # below the stability bound no step can grow the state, so the run
        # forms no |psi|^2; above it (row sum 3.0) every step is checked,
        # here on a system that stays stable (dt max|lambda| = 2.12)
        H, psi0 = random_hermitian(rng, 4), random_state(rng, 4)
        with counting((np, "vdot")) as stable:
            evolve_rk4(H, psi0, TimeGrid(10.0, 1e-3, 20))
        with counting((np, "vdot")) as checked:
            evolve_rk4(np.array([[1.0, 1.0], [1.0, -1.0]]), [1, 0], TimeGrid(450.0, 1.5, 20))
        assert stable == [0] and checked == [300]

    def test_stability_bound_checks_past_2_8(self):
        # `_RK4_STABLE` = 2.8 lies below RK4's 2 sqrt 2 = 2.83.  At a row sum
        # of |dt H| of 2.9 the component at dt lambda = 2.9 grows |psi|^2 by
        # |R(2.9i)|^2 = 1.4234 per step, so |psi|^2 leaves the float range
        # at step 2,011 (log(1.8e308) / log(1.4234) = 2,010.4), where the
        # run must stop; just below 2.8 no component grows and no step is
        # checked
        grid = TimeGrid(3000.0, 1.0, 100)
        with pytest.raises(NumericFailure) as failure:
            evolve_rk4(np.diag([2.9, 0.0]), [1, 0], grid)
        assert failure.value.step == 2011
        with counting((np, "vdot")) as calls:
            evolve_rk4(np.diag([2.7999, 0.0]), [1, 0], grid)
        assert calls == [0]

    def test_steps_skip_numpy_dispatch(self, rng):
        # the step calls D . psi as a bound `ndarray.dot` method, so the
        # `numpy.dot` calls of a run do not grow with its step count
        H, psi0 = random_hermitian(rng, 8, scale=0.5), random_state(rng, 8)
        counts = numpy_dot_calls(lambda grid: evolve_rk4(H, psi0, grid))
        assert counts[0] == counts[1], counts

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
    between the last two samples of stride 64 on grids of 2000 and 2003
    steps."""
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
        # the random systems run unchecked; [[1, 1], [1, -1]] at dt 1.5 is
        # checked on every step (row sum of |B| 3.0) but stable
        # (dt max|lambda| = 2.12 < 2 sqrt(2)), and decays
        for stride in (1, 7, 64):
            rng = np.random.default_rng(41)
            runs = [(n, random_hermitian(rng, n), random_state(rng, n), 2.0, 1e-3)
                    for n in range(2, 9)]
            runs.append((2, np.array([[1.0, 1.0], [1.0, -1.0]]), [1.0, 0.0], 450.0, 1.5))
            for n, H, psi0, t_end, dt in runs:
                H = H * scale
                grid = TimeGrid(t_end=t_end / scale, dt=dt / scale, output_stride=stride)
                got = evolve_rk4(H, psi0, grid).states
                want = evolve_rk4_reference(H, psi0, grid).states
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (n, stride)

    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_same_failing_step(self, scale):
        # a failure between two samples, between the last two (stride 64,
        # late onset) and in a run sampled only at its ends (stride 2000);
        # past the stability bound every step is checked
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
        # sampled only at its ends: the run stops at the failing step, as
        # the reference does, so no step past it overflows in `dot` and
        # warns
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
