"""Acceptance suite: one test per release criterion, each printing a
PASS line with the measured worst-case numbers (run with -s to see them
on passing runs)."""

import numpy as np
import pytest

from cpdyn.chart import (
    ChartPoint,
    from_chart,
    fubini_study_metric,
    symplectic_form,
    symplectic_inverse,
)
from cpdyn.flow import grad_conj, hamilton_rhs
from cpdyn.observables import (
    concurrence_classical,
    concurrence_quantum,
    energy,
    populations_classical,
    populations_quantum,
    quaternionic_z_classical,
    quaternionic_z_quantum,
)
from cpdyn.quantum import TimeGrid, evolve_rk4, make_state
from cpdyn.scenario import (
    ScenarioConfig,
    compare,
    load_scenario,
    run,
    scenario_from_dict,
)

from conftest import (
    exact_and_classical,
    gap_and_residual,
    random_coords,
    random_hermitian,
    random_state,
)
from harness import SCENARIO_DIR
from oracles import count_zero_crossings, fd_grad_conj, fd_kahler_hessian


def test_criterion_1_exact_equivalence_random_systems():
    # 50 random Hermitian systems per dimension, dt = 1e-3, t_end = 10:
    # classical flow reproduces the quantum trajectory to < 1e-6 fidelity gap
    rng = np.random.default_rng(101)
    grid = TimeGrid(t_end=10.0, dt=1e-3, output_stride=20)
    worst = 0.0
    for n in (2, 3, 4, 5, 8):
        for _ in range(50):
            H = random_hermitian(rng, n, scale=2.0)
            psi0 = random_state(rng, n)
            quantum, classical = exact_and_classical(H, psi0, grid)
            gap, _ = gap_and_residual(quantum.states, classical.states())
            worst = max(worst, gap)
            assert gap < 1e-6, f"fidelity gap {gap:.3e} for N={n}"
    print(f"\nCRITERION 1: PASS: worst fidelity gap {worst:.3e} (< 1e-6)")


def test_criterion_2_figure_style_two_qubit_scenarios():
    # (a) couplings off: concurrence frozen at its initial value
    config_a = load_scenario(SCENARIO_DIR / "fig1_left.json")
    result = run(config_a, method="both")
    c_expected = 2.0 * np.sqrt(0.08)
    cq = np.array([concurrence_quantum(s) for s in result.quantum_trajectory.states])
    cc = concurrence_quantum(result.classical_trajectory.states())
    dev_a = max(np.max(np.abs(cq - c_expected)), np.max(np.abs(cc - c_expected)))
    assert dev_a < 1e-6, f"concurrence not constant: dev {dev_a:.3e}"

    # (b) couplings on: concurrence moves, but both routes stay glued
    config_b = load_scenario(SCENARIO_DIR / "fig1_right.json")
    result_b = run(config_b, method="both")
    cq_b = np.array(
        [concurrence_quantum(s) for s in result_b.quantum_trajectory.states]
    )
    assert cq_b.max() - cq_b.min() > 0.05, "concurrence unexpectedly flat"
    report_b = compare(config_b, tolerance=1e-6)
    assert report_b.observable_deviation["concurrence"] < 1e-6

    # uniform initial state: z starts at zero and the two routes agree
    dev_z = 0.0
    for fname in ("fig2_left.json", "fig2_right.json"):
        config_c = load_scenario(SCENARIO_DIR / fname)
        result_c = run(config_c, method="both")
        z0 = quaternionic_z_quantum(result_c.quantum_trajectory.states[0])
        assert abs(z0) < 1e-12, f"z(0) = {z0:.3e}"
        report_c = compare(config_c, tolerance=1e-6)
        dev_z = max(dev_z, report_c.observable_deviation["z"])
        assert report_c.observable_deviation["z"] < 1e-6
    print(
        f"\nCRITERION 2: PASS: flat-concurrence dev {dev_a:.3e}, "
        f"coupled-concurrence dev {report_b.observable_deviation['concurrence']:.3e}, "
        f"z dev {dev_z:.3e}"
    )


def test_criterion_3_high_coupling_regime():
    # strong couplings at dt = 2e-4: equivalence holds and the population
    # difference oscillates strictly faster than at unit couplings
    config = load_scenario(SCENARIO_DIR / "fig4.json")
    assert config.grid.dt == pytest.approx(2e-4)
    report = compare(config, tolerance=1e-6)
    assert report.passed, f"max deviation {report.max_deviation:.3e}"

    def z_crossings(pauli: str) -> int:
        doc = {
            "name": "crossing-count",
            "hamiltonian": {"pauli": pauli},
            "initial_state": {
                "real": list(config.initial_state.real),
                "imag": list(config.initial_state.imag),
            },
            "grid": {"t_end": 10.0, "dt": 2e-4, "output_stride": 50},
            "observables": ["z"],
        }
        cfg = scenario_from_dict(doc)
        traj = run(cfg, method="quantum").quantum_trajectory
        z = np.array([quaternionic_z_quantum(s) for s in traj.states])
        return count_zero_crossings(z)

    fast = z_crossings("10*YY + 10*XY")
    slow = z_crossings("1*YY + 1*XY")
    assert fast > slow, f"crossings {fast} vs {slow}"
    print(
        f"\nCRITERION 3: PASS: max deviation {report.max_deviation:.3e}, "
        f"z crossings {fast} (strong) > {slow} (unit)"
    )


def test_criterion_4_geometry_suite():
    rng = np.random.default_rng(104)
    worst_inv, worst_metric, worst_grad, min_eig = 0.0, 0.0, 0.0, np.inf
    for n in (2, 3, 4, 6):
        m = n - 1
        for _ in range(1000):
            radius = float(rng.uniform(0.05, 2.0))
            point = ChartPoint(int(rng.integers(0, n)), random_coords(rng, m, radius))

            prod = symplectic_inverse(point) @ symplectic_form(point)
            worst_inv = max(worst_inv, float(np.max(np.abs(prod - np.eye(m)))))

            g = fubini_study_metric(point)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(g).min()))

            fd = 2.0 * fd_kahler_hessian(point)
            worst_metric = max(worst_metric, float(np.max(np.abs(g - fd))))

            H = random_hermitian(rng, n)
            dev = np.max(np.abs(grad_conj(H, point) - fd_grad_conj(H, point)))
            worst_grad = max(worst_grad, float(dev))

    assert worst_inv < 1e-10, f"inverse identity off by {worst_inv:.3e}"
    assert min_eig > 1e-12, f"metric lost positivity: {min_eig:.3e}"
    assert worst_metric < 1e-6, f"metric vs FD Hessian off by {worst_metric:.3e}"
    assert worst_grad < 1e-6, f"gradient vs FD off by {worst_grad:.3e}"
    print(
        f"\nCRITERION 4: PASS: inverse {worst_inv:.3e}, min eig {min_eig:.3e}, "
        f"metric FD {worst_metric:.3e}, grad FD {worst_grad:.3e}"
    )


def test_criterion_5_conservation():
    rng = np.random.default_rng(105)
    grid = TimeGrid(t_end=20.0, dt=1e-3, output_stride=100)
    worst_energy, worst_norm, worst_exact = 0.0, 0.0, 0.0
    for _ in range(5):
        H = random_hermitian(rng, 4, scale=2.0)
        psi0 = random_state(rng, 4)

        exact, classical = exact_and_classical(H, psi0, grid)
        h0 = energy(H, classical.u) / classical.nfac
        drift = float(np.max(np.abs(h0 - h0[0])))
        worst_energy = max(worst_energy, drift)
        assert drift < 1e-8, f"classical energy drift {drift:.3e}"

        rk4 = evolve_rk4(H, psi0, grid)
        worst_norm = max(worst_norm, float(np.max(rk4.norm_drift)))
        assert worst_norm < 1e-8, f"RK4 norm drift {worst_norm:.3e}"

        worst_exact = max(worst_exact, float(np.max(exact.norm_drift)))
        assert worst_exact < 1e-10, f"spectral norm error {worst_exact:.3e}"
    print(
        f"\nCRITERION 5: PASS: energy drift {worst_energy:.3e}, "
        f"RK4 norm drift {worst_norm:.3e}, spectral norm error {worst_exact:.3e}"
    )


def _expanded_gradient(c, x, nfac, d):
    c1, c2, c3, c4, c5 = c
    x0, x1, x2 = x
    g0 = ((c1 * x0 + c2 * x2 - 1j * c3 * x2 - c4 - 1j * c5) * nfac - d * x0) / nfac**2
    g1 = ((c1 * x1 + c2 - 1j * c3 + c4 * x2 + 1j * c5 * x2) * nfac - d * x1) / nfac**2
    g2 = (
        (-c1 * x2 + c2 * x0 + 1j * c3 * x0 + c4 * x1 - 1j * c5 * x1) * nfac - d * x2
    ) / nfac**2
    return np.array([g0, g1, g2])


def _expanded_scaled_expectation(c, x):
    # nfac * h0 as the sum of the five expectation-value brackets
    c1, c2, c3, c4, c5 = c
    x0, x1, x2 = x
    x0b, x1b, x2b = np.conj(x)
    return (
        c1 * (abs(x0) ** 2 + abs(x1) ** 2 - abs(x2) ** 2 - 1)
        + c2 * (x2 * x0b + x1b + x2b * x0 + x1)
        + 1j * c3 * (-x2 * x0b - x1b + x2b * x0 + x1)
        + c4 * (-x0b + x2 * x1b + x1 * x2b - x0)
        + 1j * c5 * (-x0b + x2 * x1b - x1 * x2b + x0)
    )


def _expanded_hamilton(x, nfac, g):
    x0, x1, x2 = x
    x0b, x1b, x2b = np.conj(x)
    g0, g1, g2 = g
    dx0 = -1j * nfac * ((1 + x0 * x0b) * g0 + x0 * x1b * g1 + x0 * x2b * g2)
    dx1 = -1j * nfac * (x1 * x0b * g0 + (1 + x1 * x1b) * g1 + x1 * x2b * g2)
    dx2 = -1j * nfac * (x2 * x0b * g0 + x2 * x1b * g1 + (1 + x2 * x2b) * g2)
    return np.array([dx0, dx1, dx2])


def test_criterion_6_two_qubit_closed_form_specialization():
    # general-dimension gradient and Hamilton equations, specialized to the
    # two-qubit chart anchored at the last amplitude, against independently
    # hand-expanded closed forms of the three derivatives and three equations
    from cpdyn.pauli import build_two_qubit_hamiltonian

    rng = np.random.default_rng(106)
    worst_grad, worst_rhs = 0.0, 0.0
    for _ in range(1000):
        c = rng.uniform(-10, 10, 5)
        x = random_coords(rng, 3)
        point = ChartPoint(3, x)
        H = build_two_qubit_hamiltonian(*c)

        nfac = 1.0 + float(np.sum(np.abs(x) ** 2))
        d = _expanded_scaled_expectation(c, x)
        g_ref = _expanded_gradient(c, x, nfac, d)
        worst_grad = max(worst_grad, float(np.max(np.abs(grad_conj(H, point) - g_ref))))

        rhs_ref = _expanded_hamilton(x, nfac, g_ref)
        worst_rhs = max(worst_rhs, float(np.max(np.abs(hamilton_rhs(H, point) - rhs_ref))))

    assert worst_grad < 1e-12, f"gradient closed form off by {worst_grad:.3e}"
    assert worst_rhs < 1e-12, f"Hamilton closed form off by {worst_rhs:.3e}"
    print(
        f"\nCRITERION 6: PASS: gradient dev {worst_grad:.3e}, "
        f"Hamilton dev {worst_rhs:.3e}"
    )


def test_criterion_7_chart_switch_robustness():
    # a single X rotation drives the initial pivot amplitude through zero
    from cpdyn.pauli import build_two_qubit_hamiltonian

    H = build_two_qubit_hamiltonian(0.0, 1.0, 0.0, 0.0, 0.0)
    psi0 = np.array([0.0, 0.0, 0.0, 1.0])
    grid = TimeGrid(t_end=10.0, dt=1e-3, output_stride=20)
    quantum, classical = exact_and_classical(H, psi0, grid)
    gap, _ = gap_and_residual(quantum.states, classical.states())
    assert classical.n_switches >= 1, "expected at least one chart switch"
    assert gap < 1e-6, f"fidelity gap {gap:.3e} across switches"
    print(
        f"\nCRITERION 7: PASS: {classical.n_switches} chart switches, "
        f"fidelity gap {gap:.3e}"
    )


def test_criterion_8_representation_agreement():
    rng = np.random.default_rng(108)
    hams = [random_hermitian(rng, 4) for _ in range(10)]
    worst = 0.0
    for i in range(10_000):
        radius = float(rng.uniform(0.05, 3.0))
        point = ChartPoint(int(rng.integers(0, 4)), random_coords(rng, 3, radius))
        psi = from_chart(point)
        H = hams[i % len(hams)]
        devs = (
            float(np.max(np.abs(populations_classical(point) - populations_quantum(psi)))),
            abs(quaternionic_z_classical(point) - quaternionic_z_quantum(psi)),
            abs(concurrence_classical(point) - concurrence_quantum(psi)),
            abs(energy(H, point) - energy(H, psi)),
        )
        worst = max(worst, *devs)
        assert worst < 1e-12, f"representation disagreement {worst:.3e}"
    print(f"\nCRITERION 8: PASS: worst observable disagreement {worst:.3e}")


def test_criterion_9_exact_equivalence_on_both_step_paths():
    # criterion 1's grid and bound from N = 16 (stacked step) to N = 256
    # (eigen-coordinate step): 2 systems per N with entries scaled by
    # 2/sqrt(N), so that dt * spread stays near criterion 1's, and one
    # unscaled system at N = 64 and at N = 256, where it reaches about 0.035
    # and 0.072.  `run` on a hand-built config hands both routes one shared
    # `Spectrum`.  The residual |c - <q, c> q| is reported, not gated: the
    # gap is about half its square.
    rng = np.random.default_rng(303)
    grid = TimeGrid(t_end=10.0, dt=1e-3, output_stride=20)
    dims = (16, 21, 32, 64, 128, 256)
    systems = [(n, 2.0 / np.sqrt(n)) for n in dims for _ in range(2)]
    systems += [(64, 2.0), (256, 2.0)]
    worst_gap, worst_residual = 0.0, 0.0
    for n, scale in systems:
        H = random_hermitian(rng, n, scale=scale)
        psi0 = make_state(random_state(rng, n))
        result = run(ScenarioConfig("random", H, psi0, grid))
        gap, residual = gap_and_residual(
            result.quantum_trajectory.states, result.classical_trajectory.states()
        )
        worst_gap = max(worst_gap, gap)
        worst_residual = max(worst_residual, residual)
        assert gap < 1e-6, f"fidelity gap {gap:.3e} for N={n}, scale {scale:.3g}"
    print(
        f"\nCRITERION 9: PASS: {len(systems)} systems, worst fidelity gap "
        f"{worst_gap:.3e} (< 1e-6), worst residual {worst_residual:.3e}"
    )
