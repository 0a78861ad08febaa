from pathlib import Path

import numpy as np
import pytest

import cpdyn.flow
from cpdyn.chart import ChartPoint, from_chart, select_pivot, to_chart
from cpdyn.flow import _hop, _probe_slack, FlowSettings, classical_hamiltonian, grad_conj
from cpdyn.flow import hamilton_rhs, integrate_classical
from cpdyn.observables import energy
from cpdyn.pauli import PauliTerm, build_hamiltonian, build_two_qubit_hamiltonian
from cpdyn.quantum import NumericFailure, TimeGrid, evolve_exact_grid
from cpdyn.scenario import load_scenario

import oracles
from conftest import STEP_PATH_IDS, STEP_PATHS, assert_same_trajectory, random_coords
from conftest import numpy_calls, numpy_dot_calls, random_hermitian, random_state
from oracles import _rhs, fd_grad_conj, quotient_rule_velocity, rk4_step, taylor_expm_reference

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


class TestClassicalHamiltonian:
    def test_identity_operator(self, rng):
        for _ in range(10):
            point = ChartPoint(0, random_coords(rng, 3))
            assert classical_hamiltonian(np.eye(4), point) == pytest.approx(1.0)

    def test_diagonal_coupling_balances_out(self):
        H = build_two_qubit_hamiltonian(2.5, 0, 0, 0, 0)
        point = ChartPoint(3, np.ones(3))
        assert classical_hamiltonian(H, point) == pytest.approx(0.0)

    def test_entangling_term_values(self):
        H = build_two_qubit_hamiltonian(0, 0, 0, 4.0, 0)
        assert classical_hamiltonian(H, ChartPoint(3, np.zeros(3))) == pytest.approx(0.0)
        point = ChartPoint(3, np.array([1.0, 0, 0]))
        assert classical_hamiltonian(H, point) == pytest.approx(-4.0)

    def test_imaginary_leakage_raises(self):
        not_hermitian = np.array([[0, 1j], [1j, 0], ], dtype=complex)
        not_hermitian = np.block(
            [[not_hermitian, np.zeros((2, 2))], [np.zeros((2, 2)), np.zeros((2, 2))]]
        )
        with pytest.raises(ValueError, match="not Hermitian"):
            classical_hamiltonian(not_hermitian, ChartPoint(3, np.ones(3)))

    def test_large_exactly_hermitian_accepted(self):
        # u^dag H u of an exactly Hermitian H picks up rounding in its
        # imaginary part that grows with |H|; that is not a Hermiticity error
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 8) * 1e6
        for _ in range(200):
            psi = random_state(rng, 8)
            point = to_chart(psi, select_pivot(psi))
            assert classical_hamiltonian(H, point) == pytest.approx(
                energy(H, psi), abs=1e-12 * np.max(np.abs(H))
            )


class TestGradConj:
    def test_identity_has_flat_landscape(self, rng):
        for _ in range(10):
            point = ChartPoint(2, random_coords(rng, 4))
            np.testing.assert_allclose(grad_conj(np.eye(5), point), 0, atol=1e-14)

    def test_two_qubit_origin_value(self, rng):
        c1, c2, c3, c4, c5 = rng.uniform(-5, 5, 5)
        H = build_two_qubit_hamiltonian(c1, c2, c3, c4, c5)
        grad = grad_conj(H, ChartPoint(3, np.zeros(3)))
        np.testing.assert_allclose(
            grad, [-c4 - 1j * c5, c2 - 1j * c3, 0.0], atol=1e-12
        )

    def test_matches_finite_differences(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 6))
            H = random_hermitian(rng, n)
            point = ChartPoint(int(rng.integers(0, n)), random_coords(rng, n - 1))
            analytic = grad_conj(H, point)
            np.testing.assert_allclose(analytic, fd_grad_conj(H, point), atol=1e-6)


class TestHamiltonRhs:
    def test_identity_is_fixed_point(self, rng):
        point = ChartPoint(1, random_coords(rng, 3))
        np.testing.assert_allclose(hamilton_rhs(np.eye(4), point), 0, atol=1e-13)

    def test_zero_hamiltonian(self, rng):
        point = ChartPoint(1, random_coords(rng, 3))
        np.testing.assert_allclose(hamilton_rhs(np.zeros((4, 4)), point), 0, atol=0)

    def test_equals_chart_velocity_of_schrodinger_flow(self, rng):
        # oracle: quotient rule applied to d(psi)/dt = -iH psi
        for _ in range(200):
            n = int(rng.integers(2, 6))
            H = random_hermitian(rng, n)
            psi = random_state(rng, n)
            pivot = select_pivot(psi)
            point = to_chart(psi, pivot)
            expected = quotient_rule_velocity(H, psi, pivot)
            np.testing.assert_allclose(hamilton_rhs(H, point), expected, atol=1e-8)

    def test_integrator_kernel_matches_public_op(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 9))
            H = random_hermitian(rng, n)
            point = ChartPoint(int(rng.integers(0, n)), random_coords(rng, n - 1))
            du = _rhs(H, point.homogeneous(), point.pivot)
            assert du[point.pivot] == 0
            np.testing.assert_allclose(
                np.delete(du, point.pivot),
                hamilton_rhs(H, point),
                rtol=1e-12,
                atol=1e-12,
            )


class TestFlowSettings:
    def test_validation(self):
        with pytest.raises(ValueError):
            FlowSettings(switch_threshold=0.0)
        with pytest.raises(ValueError):
            FlowSettings(switch_threshold=1.0)

    @pytest.mark.parametrize("threshold", ["0.2", True])
    def test_refused_at_entry(self, threshold):
        with pytest.raises(ValueError, match="switch_threshold must be a real number"):
            FlowSettings(threshold)
        assert FlowSettings(np.float32(0.5)).switch_threshold == 0.5

    @pytest.mark.parametrize("threshold", [1e-200, 1e-162, 1e-155, 1e-152])
    def test_refuses_threshold_past_the_divergence_guard(self, threshold):
        # threshold^2 underflows to 0 (a ZeroDivisionError in the run) or
        # 1/threshold^2 reaches the |u|^2 level that reports divergence, so
        # the chart rule could never fire
        with pytest.raises(ValueError, match="switch_threshold"):
            FlowSettings(threshold)

    @pytest.mark.parametrize("threshold", [1e-150, 1e-149])
    def test_accepts_smallest_usable_threshold(self, threshold):
        settings = FlowSettings(threshold)
        assert 1.0 / settings.switch_threshold**2 < cpdyn.flow._NSQ_GUARD
        H = build_two_qubit_hamiltonian(0.0, 1.0, 0.5, 0.3, 0.0)
        point0 = to_chart(np.array([0.5, 0.5, 0.5, 0.5]), 3)
        traj = integrate_classical(H, point0, TimeGrid(1.0, 0.01), settings)
        assert traj.n_switches == 0


class TestIntegrateClassical:
    @pytest.mark.parametrize("scale, dt", [(1.0, 1e-3), (1e6, 1e-9)])
    def test_step_matches_stage_form(self, rng, scale, dt):
        # the Krylov-form step is the RK4 step of the projective equation,
        # in every chart and at any scale of H (B = -i dt H is what counts),
        # on both step paths.  The stage form works in the computational
        # basis, so an eigendecomposition error that the quantum route
        # shares cannot hide here.
        eps = np.finfo(float).eps
        for n in (n for path in STEP_PATHS for n in path.dims):
            H = random_hermitian(rng, n) * scale
            pivots = range(n) if n <= 8 else rng.choice(n, 4, replace=False)
            # |x| small enough that the pivot entry stays the largest
            radius = min(0.5, 2 / np.sqrt(n))
            for pivot in map(int, pivots):
                point = ChartPoint(pivot, random_coords(rng, n - 1, radius=radius))
                traj = integrate_classical(H, point, TimeGrid(dt, dt))
                assert traj.n_switches == 0
                want = rk4_step(lambda v: _rhs(H, v, pivot), point.homogeneous(), dt)
                # eigh, V^H u and V q each round at about N eps |u|
                np.testing.assert_allclose(
                    traj.coords[-1],
                    np.delete(want, pivot),
                    rtol=0,
                    atol=4 * n * eps * np.linalg.norm(want),
                )

    @pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
    def test_steps_skip_numpy_dispatch(self, rng, monkeypatch, path):
        # a step calls its products as bound `ndarray.dot` methods, which
        # reach the same C routine as `numpy.dot` without its per-call
        # dispatcher, so the `numpy.dot` calls of a run do not grow with
        # its step count
        n = max(path.dims)
        H, psi = random_hermitian(rng, n, scale=2 / np.sqrt(n)), random_state(rng, n)
        point0 = to_chart(psi, select_pivot(psi))
        counts = numpy_dot_calls(
            monkeypatch, lambda grid: integrate_classical(H, point0, grid)
        )
        assert counts[0] == counts[1], counts

    def test_forms_usq_only_where_the_level_is_in_reach(self, monkeypatch):
        # between two steps that form |u|^2, the growth bound of
        # `flow._growth_bound` keeps |u| below the switch radius, so fig1_left
        # forms |u|^2 on few of its steps; where that bound is no finite
        # bound (a huge switch radius, a step past the RK4 stability bound)
        # it is formed once at t = 0, once per step and once per switch
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        H, psi0, grid = config.hamiltonian, config.initial_state, config.grid
        point0 = to_chart(psi0, select_pivot(psi0))
        runs = []

        def usq_calls(grid, settings):
            return numpy_calls(
                monkeypatch,
                "vdot",
                lambda: runs.append(integrate_classical(H, point0, grid, settings)),
            )

        assert grid.n_steps == 10_000
        assert usq_calls(grid, config.flow) <= 0.05 * grid.n_steps
        assert_same_trajectory(H, point0, grid, config.flow)
        dt = 3.0 / np.linalg.norm(H, 2)  # past 2 sqrt(2), the RK4 bound
        for grid, settings in (
            (grid, FlowSettings(1e-150)),
            (TimeGrid(100 * dt, dt, 10), config.flow),
        ):
            calls = usq_calls(grid, settings)
            assert calls == 1 + grid.n_steps + runs[-1].n_switches
            assert_same_trajectory(H, point0, grid, settings)

    def test_spectral_forms_usq_only_where_the_level_is_in_reach(self, monkeypatch):
        # the eigen-coordinate loop skips by the probe distance alone: one
        # amplitude near 0.95 under a weak H keeps |u|^2 below 2, far below
        # the level 25, and q stays within the slack of each sample, so no
        # step forms |u|^2 (one `np.vdot` at t = 0 and one distance per
        # step) and none probes.  With one sample at t = 20, q moves past
        # the slack and |u|^2 past 2: those steps form |u|^2 and, still
        # below the level, make no probe either
        n = 32
        rng = np.random.default_rng(3)
        psi0 = 0.3 * random_state(rng, n)
        psi0[5] = 0.95
        psi0 /= np.linalg.norm(psi0)
        H = random_hermitian(rng, n, scale=0.1 / np.sqrt(n))
        point0 = to_chart(psi0, select_pivot(psi0))
        formed = []
        for grid in (
            TimeGrid(t_end=10.0, dt=1e-3, output_stride=100),
            TimeGrid(t_end=20.0, dt=1e-3, output_stride=20_000),
        ):
            runs = []
            probes = TestProbeSkip.count_probes(monkeypatch, cpdyn.flow)
            calls = numpy_calls(
                monkeypatch,
                "vdot",
                lambda: runs.append(integrate_classical(H, point0, grid)),
            )
            assert probes == [] and runs[0].n_switches == 0
            assert runs[0].nfac.max() < FlowSettings().switch_level
            formed.append(calls - (1 + grid.n_steps))
            assert_same_trajectory(H, point0, grid)
        assert runs[0].nfac[-1] > 2.0
        assert formed[0] == 0 and formed[1] > 1_000

    def test_zero_hamiltonian_is_constant(self):
        point0 = ChartPoint(3, np.array([1.0, 0.5j, -0.25]))
        traj = integrate_classical(np.zeros((4, 4)), point0, TimeGrid(1.0, 0.01, 10))
        assert traj.n_switches == 0
        np.testing.assert_allclose(traj.coords, np.tile(point0.coords, (11, 1)))
        np.testing.assert_array_equal(traj.pivots, 3)

    def test_samples_are_homogeneous(self):
        # the trajectory keeps the integrator's homogeneous vectors: 1 at
        # the pivot, the chart coordinates in the other slots
        H = build_two_qubit_hamiltonian(0.0, 1.0, 0.5, 0.3, 0.0)
        traj = integrate_classical(
            H, to_chart(np.array([0, 0, 0, 1.0]), 3), TimeGrid(10.0, 1e-3, 50)
        )
        assert traj.n_switches >= 1
        assert not traj.u.flags.writeable
        rows = np.arange(len(traj.times))
        np.testing.assert_array_equal(traj.u[rows, traj.pivots], 1.0)
        states = traj.states()
        for k in rows:
            np.testing.assert_array_equal(
                traj.coords[k], np.delete(traj.u[k], traj.pivots[k])
            )
            np.testing.assert_allclose(
                states[k],
                from_chart(to_chart(traj.u[k], int(traj.pivots[k]))),
                rtol=0,
                atol=1e-15,
            )

    def test_carries_reduced_coordinate_count(self, rng):
        for n in (2, 3, 5):
            H = random_hermitian(rng, n)
            psi = random_state(rng, n)
            traj = integrate_classical(
                H, to_chart(psi, select_pivot(psi)), TimeGrid(0.5, 0.01, 10)
            )
            assert traj.coords.shape[1] == n - 1
            assert traj.dimension == n

    def test_diagonal_two_qubit_matches_quantum_chart(self):
        H = build_two_qubit_hamiltonian(1.0, 0, 0, 0, 0)
        psi0 = np.array([0.5, 0.5, 0.5, 0.5])
        grid = TimeGrid(10.0, 1e-3, 100)
        traj = integrate_classical(H, to_chart(psi0, 3), grid)
        quantum = evolve_exact_grid(H, psi0, grid)
        assert traj.n_switches == 0
        for k in range(len(traj.times)):
            expected = to_chart(quantum.states[k], 3)
            np.testing.assert_allclose(
                traj.coords[k], expected.coords, atol=1e-6
            )

    def test_energy_conserved_along_flow(self, rng):
        H = random_hermitian(rng, 4)
        psi = random_state(rng, 4)
        traj = integrate_classical(
            H, to_chart(psi, select_pivot(psi)), TimeGrid(20.0, 1e-3, 500)
        )
        h0 = energy(H, traj.u) / traj.nfac
        assert np.max(np.abs(h0 - h0[0])) < 1e-8

    @pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
    def test_switches_through_chart_singularity(self, path):
        # X on the first qubit drives the amplitude of |1...1>, the initial
        # pivot, through zero
        n = 2**path.qubits
        H = build_hamiltonian([PauliTerm(1.0, ("X",) + ("I",) * (path.qubits - 1))])
        psi0 = np.zeros(n)
        psi0[-1] = 1.0
        grid = TimeGrid(10.0, 1e-3, 100)
        traj = integrate_classical(H, to_chart(psi0, n - 1), grid)
        assert traj.n_switches >= 1
        rows = np.arange(len(traj.times))
        np.testing.assert_array_equal(traj.u[rows, traj.pivots], 1.0)
        # against the spectral route and the eigh-free Taylor oracle
        for quantum in (evolve_exact_grid(H, psi0, grid).states,
                        taylor_expm_reference(H, psi0, grid.sample_times())):
            gaps = 1 - np.abs(np.sum(quantum.conj() * traj.states(), axis=1))
            assert np.max(gaps) < 1e-6
        # the trajectory never lingers in a badly anchored chart
        nfacs = 1 + np.sum(np.abs(traj.coords) ** 2, axis=1)
        assert np.all(1 / np.sqrt(nfacs) > 0.2 * 0.9)
        # with every step sampled, each switch is a pivot change between
        # consecutive samples, which counts n_switches_cum independently
        fine = integrate_classical(H, to_chart(psi0, n - 1), TimeGrid(10.0, 1e-3, 1))
        changes = np.cumsum(np.concatenate([[0], fine.pivots[1:] != fine.pivots[:-1]]))
        np.testing.assert_array_equal(fine.n_switches_cum, changes)
        assert fine.n_switches_cum[-1] == fine.n_switches >= 1

    def test_chart_covariance_of_observables(self, rng):
        # same ray, different admissible starting charts -> same populations
        H = random_hermitian(rng, 4)
        v = np.array([0.9, 1.1, -1.0, 0.95]) + 0.1j * np.arange(4)
        psi = v / np.linalg.norm(v)
        grid = TimeGrid(5.0, 1e-3, 100)
        runs = []
        for pivot in range(4):
            traj = integrate_classical(H, to_chart(psi, pivot), grid)
            runs.append(np.abs(traj.states()) ** 2)
        for other in runs[1:]:
            np.testing.assert_allclose(other, runs[0], atol=1e-8)

    @pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
    def test_non_finite_aborts(self, path):
        # B^2 and z^2 = (-i dt lam)^2 overflow, so the first step is not finite
        n = path.overflow_n
        H = np.diag([1e200, -1e200] + [0.0] * (n - 2))
        point0 = ChartPoint(n - 1, np.ones(n - 1))
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericFailure) as failure:
                integrate_classical(H, point0, TimeGrid(1.0, 0.1))
            with pytest.raises(NumericFailure) as oracle_failure:
                oracles.integrate_classical_reference(H, point0, TimeGrid(1.0, 0.1))
        assert failure.value.step == oracle_failure.value.step == 1

    def test_large_scale_hamiltonian(self):
        # an exactly Hermitian H with entries of order 1e6, time scaled to match
        rng = np.random.default_rng(7)
        H = random_hermitian(rng, 8) * 1e6
        assert np.array_equal(H, H.conj().T)
        psi0 = random_state(rng, 8)
        grid = TimeGrid(t_end=1e-5, dt=1e-9, output_stride=20)
        traj = integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)
        quantum = evolve_exact_grid(H, psi0, grid)
        overlaps = np.sum(quantum.states.conj() * traj.states(), axis=1)
        assert np.max(1.0 - np.abs(overlaps)) < 1e-6

    def test_rejects_non_hermitian(self):
        # every function of this module that takes H applies the same rule
        H = np.zeros((4, 4))
        H[0, 1] = 1.0
        point = ChartPoint(3, np.ones(3))
        for call in (
            lambda: integrate_classical(H, point, TimeGrid(1.0, 0.1)),
            lambda: classical_hamiltonian(H, point),
            lambda: grad_conj(H, point),
            lambda: hamilton_rhs(H, point),
        ):
            with pytest.raises(ValueError, match="not Hermitian"):
                call()


class TestBitIdentity:
    @pytest.mark.parametrize(
        "path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem
    )
    def test_bundled_scenarios(self, path):
        config = load_scenario(path)
        psi0 = config.initial_state
        traj = assert_same_trajectory(
            config.hamiltonian, to_chart(psi0, select_pivot(psi0)), config.grid,
            config.flow,
        )
        if path.stem == "fig2_right":
            assert traj.n_switches == 10

    @pytest.mark.parametrize(
        "seed, dims, scale, grid", [run for path in STEP_PATHS for run in path.bit_runs]
    )
    def test_random_systems(self, seed, dims, scale, grid):
        rng = np.random.default_rng(seed)
        switches = 0
        for n in dims:
            H = random_hermitian(rng, n) * scale
            psi0 = random_state(rng, n)
            traj = assert_same_trajectory(H, to_chart(psi0, select_pivot(psi0)), grid)
            switches += traj.n_switches
        # the chart-switch branch and its refreshed pivot view are exercised
        assert switches > 0

    def test_starts_past_switch_level(self):
        # a chart anchored at the smallest amplitude is past the switch
        # level at t = 0, so both loops hop to the largest one first
        for path in STEP_PATHS:
            n = max(path.property_dims)
            rng = np.random.default_rng(2)
            H, psi0 = random_hermitian(rng, n), random_state(rng, n)
            assert np.min(np.abs(psi0)) < 0.2  # 1/|u| at the default threshold
            point0 = to_chart(psi0, int(np.argmin(np.abs(psi0))))
            grid = TimeGrid(1.0, 1e-2, 10)
            traj = assert_same_trajectory(H, point0, grid)
            assert traj.switch_times[0] == 0.0 and traj.n_switches_cum[0] == 1
            assert traj.pivots[0] == select_pivot(psi0)
            # the same chart with the level a few eps above its |u|^2: no hop
            # at t = 0, and |u|^2 is formed and the chart changed after the
            # first step, before any countdown
            usq0 = np.vdot(point0.homogeneous(), point0.homogeneous()).real
            settings = FlowSettings((1 - 4 * np.finfo(float).eps) / np.sqrt(usq0))
            assert usq0 < settings.switch_level < usq0 * (1 + 1e-14)
            traj = assert_same_trajectory(H, point0, grid, settings)
            assert traj.n_switches_cum[0] == 0 and traj.switch_times[0] == grid.dt


class TestProbeSkip:
    """Above `_STACK_MAX_N` a step past the switch level forms u = V q and
    probes only when the norm bound of `flow._probe_slack` cannot rule a
    switch out; the oracle probes on every such step."""

    @staticmethod
    def count_probes(monkeypatch, module):
        calls = []

        def counted(u):
            calls.append(None)
            return select_pivot(u)

        monkeypatch.setattr(module, "select_pivot", counted)
        return calls

    @staticmethod
    def tied_state(rng, n, gap):
        # two amplitudes of modulus 0.6 and 0.6 (1 + gap), with other phases,
        # over a random rest of norm 0.3
        psi = 0.3 * random_state(rng, n)
        psi[3], psi[n - 2] = 0.6 * np.exp(0.7j), 0.6 * (1 + gap) * np.exp(-1.9j)
        return psi / np.linalg.norm(psi)

    @pytest.mark.parametrize("n", [32, 64, 256])
    @pytest.mark.parametrize("gap", [0.0, 1e-12, -1e-12])
    def test_near_tie_probes_at_once(self, monkeypatch, n, gap):
        # with the two largest amplitudes equal to within 1e-12 the slack
        # is below any distance a step moves q (and below 0 for an exact
        # tie), so the loop probes on the first step, after the probe of
        # the switch rule at t = 0
        rng = np.random.default_rng(n)
        H = random_hermitian(rng, n, scale=2.0 / np.sqrt(n))
        psi0 = self.tied_state(rng, n, gap)
        point0 = to_chart(psi0, select_pivot(psi0))
        slack = _probe_slack(point0.homogeneous(), point0.pivot, np.empty(n))
        assert slack <= 0 if gap == 0 else slack < 1e-12
        settings = FlowSettings(switch_threshold=0.9)  # |u|^2 >= 2 passes it
        calls = self.count_probes(monkeypatch, cpdyn.flow)
        integrate_classical(H, point0, TimeGrid(1e-2, 1e-2), settings)
        assert len(calls) == 2  # at t = 0 and after the step
        assert_same_trajectory(H, point0, TimeGrid(0.5, 1e-2, 5), settings)

    @pytest.mark.parametrize("n", [32, 64, 256])
    def test_top_two_amplitudes_cross(self, monkeypatch, n):
        # a strong coupling of the two largest amplitudes moves the weight
        # of entry 3 to entry 7 over t = 2
        rng = np.random.default_rng(5)
        psi0 = 0.3 * random_state(rng, n)
        psi0[3], psi0[7] = 0.6, 0.5j
        psi0 /= np.linalg.norm(psi0)
        H = random_hermitian(rng, n, scale=0.1 / np.sqrt(n))
        H[3, 7] += 1.0
        H[7, 3] += 1.0
        grid = TimeGrid(t_end=2.0, dt=1e-2, output_stride=10)
        settings = FlowSettings(switch_threshold=0.9)
        calls = self.count_probes(monkeypatch, cpdyn.flow)
        traj = assert_same_trajectory(H, to_chart(psi0, 3), grid, settings)
        assert traj.pivots[0] == 3 and traj.pivots[-1] == 7
        assert traj.n_switches >= 1
        assert len(calls) < grid.n_steps

    def test_probes_at_most_a_quarter_of_the_steps(self, monkeypatch):
        # N = 256 with every amplitude below the default threshold 0.2: the
        # oracle probes at t = 0 and after each of the 2,000 steps, the
        # integrator only where the bound allows a switch
        n = 256
        rng = np.random.default_rng(37)
        H = random_hermitian(rng, n, scale=2.0 / np.sqrt(n))
        psi0 = random_state(rng, n)
        point0 = to_chart(psi0, select_pivot(psi0))
        grid = TimeGrid(t_end=2.0, dt=1e-3, output_stride=20)
        probes = self.count_probes(monkeypatch, cpdyn.flow)
        oracle_probes = self.count_probes(monkeypatch, oracles)
        traj = assert_same_trajectory(H, point0, grid)
        assert len(oracle_probes) == grid.n_steps + 1 == 2001
        assert traj.n_switches > 0
        assert len(probes) <= grid.n_steps // 4


class TestHop:
    """`flow._hop`, the one chart hop of the integrator, applies
    `chart.select_pivot` and rescales u in place, bit for bit as u divided
    by its entry at the new pivot, with that entry exactly 1."""

    @staticmethod
    def check(u, pivot):
        u0 = u.copy()
        hop = _hop(u, pivot)
        new_pivot = select_pivot(u0)
        if new_pivot == pivot:
            assert hop is None
            want = u0
        else:
            assert hop[0] == new_pivot
            assert hop[1] == u0[new_pivot]
            want = u0 / u0[new_pivot]
            want[new_pivot] = 1.0
        assert np.array_equal(u.view(np.uint64), want.view(np.uint64))
        return hop

    def test_random_vectors(self, rng):
        outcomes = set()
        for n in (2, 3, 8, 21, 256):
            for _ in range(20):
                u = random_coords(rng, n, radius=0.3)
                pivot = int(rng.integers(n))
                u[pivot] = 1.0
                outcomes.add(self.check(u, pivot) is None)
        assert outcomes == {True, False}

    @pytest.mark.parametrize(
        "u, pivot, new_pivot",
        [
            # exact ties with the pivot at higher indices: the pivot stays
            ([0.5, 1.0, 0.25j, -1.0, 1j], 1, None),
            # an exact tie with the pivot at a lower index wins
            ([0.5, -1.0, 0.25j, 1.0, 1j], 3, 1),
            # a tie of larger entries goes to the lowest of them, above
            # the pivot and below it (|3 + 4i| is exactly 5)
            ([0.2, 1.0, 3 + 4j, 5j, -5.0], 1, 2),
            ([5j, -5.0, 1.0, 3 + 4j], 2, 0),
        ],
    )
    def test_ties_go_to_the_lowest_index(self, u, pivot, new_pivot):
        hop = self.check(np.array(u, dtype=complex), pivot)
        assert (None if hop is None else hop[0]) == new_pivot
