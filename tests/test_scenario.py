import json
import re
from pathlib import Path

import numpy as np
import pytest

import cpdyn.flow
import cpdyn.quantum
import cpdyn.scenario
from cpdyn.chart import select_pivot, to_chart
from cpdyn.flow import _STACK_MAX_N, integrate_classical
from cpdyn.quantum import TimeGrid, evolve_exact_grid, make_state
from cpdyn.scenario import (
    KNOWN_OBSERVABLES,
    ConfigError,
    ScenarioConfig,
    compare,
    emit_csv,
    load_scenario,
    run,
    scenario_from_dict,
)

from conftest import (
    STEP_PATH_IDS,
    STEP_PATHS,
    minimal_doc,
    perfbench_module,
    random_hermitian,
    random_state,
)
from oracles import taylor_expm_reference

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def write_scenario(tmp_path, doc, name="scn.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


class TestLoadScenario:
    def test_bundled_files_are_valid(self):
        for path in sorted(SCENARIO_DIR.glob("*.json")):
            config = load_scenario(path)
            assert config.dimension == 4

    def test_documented_examples_are_valid(self):
        readme = (SCENARIO_DIR.parent / "README.md").read_text()
        example = readme.split("## Scenario files", 1)[1].split("```json", 1)[1]
        config = scenario_from_dict(json.loads(example.split("```", 1)[0]))
        assert config.dimension == 4 and config.grid.output_stride == 10
        text = cpdyn.scenario.__doc__
        data, _ = json.JSONDecoder().raw_decode(text[text.index("{"):])
        assert scenario_from_dict(data).observables == tuple(KNOWN_OBSERVABLES)

    def test_fig1_initial_state(self):
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        np.testing.assert_allclose(
            np.abs(config.initial_state) ** 2, [0.4, 0.4, 0.0, 0.2], atol=1e-15
        )

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_parse_error_reports_location(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"name": "x",\n  "hamiltonian": }')
        with pytest.raises(ConfigError, match="line 2"):
            load_scenario(path)

    def test_non_normalized_state_rejected(self, tmp_path):
        doc = minimal_doc(initial_state={"real": [1.0, 1.0, 0.0, 0.0]})
        with pytest.raises(ConfigError, match="norm"):
            load_scenario(write_scenario(tmp_path, doc))
        # the parser applies the library's own norm rule, `make_state`'s 1e-10
        doc = minimal_doc(initial_state={"real": [1.0 + 5e-10, 0.0, 0.0, 0.0]})
        with pytest.raises(ConfigError, match="initial_state: .*norm"):
            scenario_from_dict(doc)

    def test_non_hermitian_dense_rejected(self):
        dense = {"real": np.zeros((2, 2)).tolist(), "imag": [[0.0, 1.0], [1.0, 0.0]]}
        doc = minimal_doc(
            hamiltonian={"dense": dense},
            initial_state={"real": [1.0, 0.0]},
            observables=["populations"],
        )
        with pytest.raises(ConfigError, match="not Hermitian"):
            scenario_from_dict(doc)
        doc["hamiltonian"] = {"dense": {"real": [[1.0, 0.0, 0.0], [0.0, -1.0, 0.0]]}}
        with pytest.raises(ConfigError, match="hamiltonian.dense: .*square"):
            scenario_from_dict(doc)
        # a 5e-10 residue at unit scale is far above 16 eps N max|H|
        residue = {"real": [[1.0, 0.0], [0.0, -1.0]], "imag": [[0.0, 5e-10], [0.0, 0.0]]}
        doc["hamiltonian"] = {"dense": residue}
        with pytest.raises(ConfigError, match="hamiltonian.dense: .*not Hermitian"):
            scenario_from_dict(doc)
        doc["hamiltonian"] = {"dense": {"real": [[np.nan, 0.0], [0.0, -1.0]]}}
        with pytest.raises(ConfigError, match="hamiltonian.dense: .*finite"):
            scenario_from_dict(doc)

    def test_state_read_before_hamiltonian(self):
        # H must act on the state: a mismatch is the Hamiltonian's error
        doc = minimal_doc(initial_state={"real": [1.0, 0.0]})
        message = "hamiltonian.pauli: dimension mismatch: H is (4, 4), state has 2"
        with pytest.raises(ConfigError, match=re.escape(message)):
            scenario_from_dict(doc)
        # with both bad, the state is reported
        doc = minimal_doc(initial_state={"real": [1.0, 1.0]}, hamiltonian={"pauli": "1*Q"})
        with pytest.raises(ConfigError, match="^initial_state: .*norm"):
            scenario_from_dict(doc)

    def test_dense_hamiltonian_accepted(self):
        dense = {"real": [[1.0, 0.0], [0.0, -1.0]]}
        doc = minimal_doc(
            hamiltonian={"dense": dense},
            initial_state={"real": [1.0, 0.0]},
            observables=["populations", "energy"],
        )
        config = scenario_from_dict(doc)
        np.testing.assert_array_equal(config.hamiltonian, np.diag([1.0, -1.0]))

    def test_two_qubit_observables_need_n4(self):
        doc = minimal_doc(
            hamiltonian={"dense": {"real": [[1.0, 0.0], [0.0, -1.0]]}},
            initial_state={"real": [1.0, 0.0]},
        )
        with pytest.raises(ConfigError, match="requires a two-qubit"):
            scenario_from_dict(doc)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError, match="unknown fields"):
            scenario_from_dict(minimal_doc(extra=1))
        with pytest.raises(ConfigError, match="unknown fields"):
            scenario_from_dict(minimal_doc(flow={"dt": 1e-3}))
        with pytest.raises(ConfigError, match="unknown fields"):
            scenario_from_dict(minimal_doc(renormalize_before_observables=True))
        # the reference integrator is always the spectral propagator
        with pytest.raises(ConfigError, match="scenario: unknown fields"):
            scenario_from_dict(minimal_doc(quantum_method="exact"))

    @pytest.mark.parametrize("name", [None, [1, 2], 5, True, {"a": 1}])
    def test_non_string_name_rejected(self, name):
        with pytest.raises(ConfigError, match=r"^name: expected a string"):
            scenario_from_dict(minimal_doc(name=name))

    def test_name_defaults_to_file_stem(self, tmp_path):
        doc = minimal_doc()
        del doc["name"]
        assert load_scenario(write_scenario(tmp_path, doc, "demo.json")).name == "demo"

    def test_omitted_fields_take_the_dataclass_defaults(self):
        doc = minimal_doc(grid={"t_end": 1.0, "dt": 0.01})
        del doc["observables"]
        config = scenario_from_dict(doc)
        assert config.flow == cpdyn.flow.FlowSettings()
        assert config.observables == ScenarioConfig.observables
        assert config.grid == TimeGrid(1.0, 0.01)

    def test_sample_entries_capped(self):
        # N = 4, so the 2^24-entry cap allows 2^22 samples; the check is
        # arithmetic, no sample index is built
        ok = minimal_doc(grid={"t_end": 2.0**22 - 1, "dt": 1.0})
        assert scenario_from_dict(ok).grid.n_samples == 2**22
        for grid in (
            {"t_end": 2.0**22, "dt": 1.0},
            {"t_end": 1e12, "dt": 1e-3, "output_stride": 10**6},
        ):
            with pytest.raises(ConfigError, match=r"^grid: .* exceed the cap"):
                scenario_from_dict(minimal_doc(grid=grid))

    def test_step_count_capped(self):
        # arithmetic on the grid only; no such document is run
        cap = cpdyn.scenario._MAX_STEPS
        ok = minimal_doc(grid={"t_end": float(cap), "dt": 1.0, "output_stride": cap})
        assert scenario_from_dict(ok).grid.n_steps == cap
        over = minimal_doc(grid={"t_end": cap + 1.0, "dt": 1.0, "output_stride": cap})
        with pytest.raises(ConfigError, match=r"^grid: t_end / dt = .* steps exceed"):
            scenario_from_dict(over)

    def test_step_cap_far_above_bundled_and_benchmark_grids(self):
        workloads = perfbench_module("workloads")
        grids = [load_scenario(p).grid for p in sorted(SCENARIO_DIR.glob("*.json"))]
        grids += [TimeGrid(**workloads.SWEEP_GRID), TimeGrid(**workloads.HIGH_DIM_GRID)]
        assert max(g.n_steps for g in grids) == 50_000
        assert all(1000 * g.n_steps <= cpdyn.scenario._MAX_STEPS for g in grids)

    def test_unknown_observable_rejected(self):
        with pytest.raises(ConfigError, match="unknown names"):
            scenario_from_dict(minimal_doc(observables=["popluations"]))

    def test_bad_pauli_string_message(self):
        with pytest.raises(ConfigError, match="hamiltonian.pauli"):
            scenario_from_dict(minimal_doc(hamiltonian={"pauli": "1*ZI + *X"}))
        # finite coefficients whose sum overflows
        with np.errstate(over="ignore"), pytest.raises(
            ConfigError, match="hamiltonian.pauli: .*finite"
        ):
            scenario_from_dict(minimal_doc(hamiltonian={"pauli": "1e308*ZI + 1e308*IZ"}))

    def test_mixed_term_length_rejected(self):
        with pytest.raises(ConfigError, match="qubit counts"):
            scenario_from_dict(minimal_doc(hamiltonian={"pauli": "1*ZI + 1*XYZ"}))


class TestRun:
    def test_zero_hamiltonian_all_constant(self):
        config = scenario_from_dict(minimal_doc(hamiltonian={"pauli": "0*II"}))
        result = run(config, method="both")
        q, c = result.quantum_trajectory, result.classical_trajectory
        assert np.max(np.abs(q.states - q.states[0])) < 1e-15
        assert np.max(np.abs(c.coords - c.coords[0])) < 1e-15

    def test_uniform_start_has_zero_z(self):
        config = load_scenario(SCENARIO_DIR / "fig2_left.json")
        result = run(config, method="both")
        from cpdyn.observables import quaternionic_z_classical, quaternionic_z_quantum

        zq0 = quaternionic_z_quantum(result.quantum_trajectory.states[0])
        assert zq0 == pytest.approx(0.0, abs=1e-12)
        traj = result.classical_trajectory
        z0 = quaternionic_z_classical(to_chart(traj.u[0], int(traj.pivots[0])))
        assert z0 == pytest.approx(0.0, abs=1e-12)

    def test_bad_method_rejected(self):
        config = scenario_from_dict(minimal_doc())
        with pytest.raises(ValueError, match="method"):
            run(config, method="quantumm")


def random_config(rng, n: int, grid: TimeGrid) -> ScenarioConfig:
    """A hand-built config of one random dense system, ||H||_2 of order 2."""
    H = random_hermitian(rng, n, scale=2.0 / np.sqrt(n))
    return ScenarioConfig("random", H, make_state(random_state(rng, n)), grid)


def count_calls(monkeypatch, module, name: str) -> list:
    """Count the calls of `module.name` from now on; returns the counter."""
    calls, real = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestSharedSpectrum:
    """`run` decomposes H once and both routes use that one spectrum."""

    @pytest.mark.parametrize("path", STEP_PATHS, ids=STEP_PATH_IDS)
    def test_same_bits_as_the_routes_on_their_own(self, rng, path):
        grid = TimeGrid(0.5, 1e-2, 5)
        for n in path.dims:
            config = random_config(rng, n, grid)
            H, psi0 = config.hamiltonian, config.initial_state
            result = run(config)
            alone_q = evolve_exact_grid(H, psi0, grid)
            alone_c = integrate_classical(H, to_chart(psi0, select_pivot(psi0)), grid)
            q, c = result.quantum_trajectory, result.classical_trajectory
            assert np.array_equal(q.states, alone_q.states)
            assert np.array_equal(c.u, alone_c.u)
            assert np.array_equal(c.pivots, alone_c.pivots)
            assert np.array_equal(c.switch_times, alone_c.switch_times)

    @pytest.mark.parametrize("n", [4, 64])
    def test_one_eigh_and_one_hermiticity_check_per_compare(self, rng, monkeypatch, n):
        # a hand-built config skips the parser, whose check is the other one
        config = random_config(rng, n, TimeGrid(0.5, 1e-2, 5))
        eighs = count_calls(monkeypatch, np.linalg, "eigh")
        checks = [
            count_calls(monkeypatch, module, "require_hermitian")
            for module in (cpdyn.quantum, cpdyn.flow)
        ]
        assert compare(config).passed
        assert len(eighs) == 1
        assert sum(map(len, checks)) == 1

    @pytest.mark.parametrize("n, eighs", [(4, 0), (64, 1)])
    def test_classical_run_makes_eigh_only_above_the_stack(
        self, rng, monkeypatch, n, eighs
    ):
        # a classical-only run leaves the decomposition to the flow, which
        # makes one only on the eigen-coordinate path
        config = random_config(rng, n, TimeGrid(0.5, 1e-2, 5))
        calls = count_calls(monkeypatch, np.linalg, "eigh")
        run(config, method="classical")
        assert len(calls) == eighs

    def test_spectrum_of_another_array_refused(self, rng):
        config = random_config(rng, 4, TimeGrid(0.5, 1e-2, 5))
        H, psi0 = config.hamiltonian, config.initial_state
        spectrum = cpdyn.quantum.spectrum(H, 4)
        point0 = to_chart(psi0, select_pivot(psi0))
        # an equal copy was never validated
        with pytest.raises(ValueError, match="another array than H"):
            evolve_exact_grid(H.copy(), psi0, config.grid, spectrum=spectrum)
        with pytest.raises(ValueError, match="another array than H"):
            integrate_classical(H.copy(), point0, config.grid, spectrum=spectrum)
        with pytest.raises(ValueError, match=re.escape("H is (4, 4), state has 2")):
            evolve_exact_grid(H, make_state([1.0, 0.0]), config.grid, spectrum=spectrum)

    def test_shared_spectrum_matches_eigh_free_reference(self, rng):
        # sharing makes a wrong decomposition wrong in both routes alike, so
        # `compare` alone would miss it; the Taylor oracle has no eigh
        n, grid = 64, TimeGrid(2.0, 1e-2, 50)
        assert n > _STACK_MAX_N and n in STEP_PATHS[-1].dims
        config = random_config(rng, n, grid)
        H = config.hamiltonian
        result = run(config)
        want = taylor_expm_reference(H, config.initial_state, grid.sample_times())
        bound = 2 * n * np.finfo(float).eps * np.linalg.norm(H, 2) * grid.t_end
        np.testing.assert_allclose(
            result.quantum_trajectory.states, want, rtol=0, atol=bound
        )
        states = result.classical_trajectory.states()
        gaps = 1 - np.abs(np.sum(want.conj() * states, axis=1))
        assert np.max(gaps) < 1e-6

    @pytest.mark.parametrize("method", ["both", "quantum", "classical"])
    @pytest.mark.parametrize("n", [4, 64])
    @pytest.mark.parametrize("entry, message", [
        (1.0, "operator is not Hermitian: max|H - H^dag| = 1.000e+00"),
        (np.nan, "operator entries must be finite"),
    ], ids=["non-hermitian", "non-finite"])
    def test_bad_hamiltonian_refused_before_eigh(self, method, n, entry, message):
        # a config built by hand skips the parser: `run` still refuses H by
        # its rule, and no LinAlgError from eigh gets through
        H = np.zeros((n, n))
        H[0, 1] = entry
        config = ScenarioConfig("bad", H, make_state(np.eye(n)[0]), TimeGrid(0.1, 1e-2))
        with pytest.raises(ValueError, match=re.escape(message)) as excinfo:
            run(config, method=method)
        assert excinfo.type is ValueError


class TestEmitCsv:
    def test_schema_and_column_order(self, tmp_path):
        config = scenario_from_dict(minimal_doc())
        out = tmp_path / "out.csv"
        emit_csv(run(config, method="both"), out)
        lines = out.read_text().splitlines()
        assert lines[0] == "# schema=1"
        assert lines[1] == (
            "t,p0_q,p1_q,p2_q,p3_q,p0_c,p1_c,p2_c,p3_c,"
            "z_q,z_c,C_q,C_c,E_q,E_c,norm_drift_q,pivot,n_switches_cum"
        )
        assert len(lines) == 2 + 11  # header lines + samples

    def test_quantum_only_drops_classical_columns(self, tmp_path):
        config = scenario_from_dict(minimal_doc())
        out = tmp_path / "out.csv"
        emit_csv(run(config, method="quantum"), out)
        header = out.read_text().splitlines()[1]
        assert "_c" not in header and "pivot" not in header
        assert header.startswith("t,p0_q")

    def test_determinism_byte_identical(self, tmp_path):
        config = load_scenario(SCENARIO_DIR / "fig2_right.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run(config, method="both"), a)
        emit_csv(run(config, method="both"), b)
        assert a.read_bytes() == b.read_bytes()

    def test_floats_round_trip_exactly(self, tmp_path):
        config = scenario_from_dict(minimal_doc())
        result = run(config, method="quantum")
        out = tmp_path / "out.csv"
        emit_csv(result, out)
        lines = out.read_text().splitlines()
        header = lines[1].split(",")
        pops = np.abs(result.quantum_trajectory.states) ** 2
        for row_idx, line in enumerate(lines[2:]):
            row = dict(zip(header, line.split(",")))
            assert float(row["t"]) == result.times[row_idx]
            assert float(row["p0_q"]) == pops[row_idx, 0]
            assert float(row["p3_q"]) == pops[row_idx, 3]


class TestCompare:
    def test_figure_style_scenario_passes(self):
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        report = compare(config, tolerance=1e-6)
        assert report.passed
        assert report.observable_deviation["populations"] < 1e-6
        assert report.fidelity_gap_max < 1e-6

    @pytest.mark.parametrize("tolerance", [np.inf, np.nan, -1.0, 0.0])
    def test_tolerance_that_cannot_gate_rejected(self, tolerance):
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        with pytest.raises(ValueError, match="tolerance: must be finite and > 0"):
            compare(config, tolerance=tolerance)

    def test_entangling_scenario_concurrence_agrees(self):
        config = load_scenario(SCENARIO_DIR / "fig3_right.json")
        report = compare(config, tolerance=1e-6)
        assert report.passed
        assert report.observable_deviation["concurrence"] < 1e-6

    def test_report_dict_round_trips_through_json(self):
        config = load_scenario(SCENARIO_DIR / "fig2_left.json")
        report = compare(config)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["passed"] is True
        assert set(doc["observable_deviation"]) == {
            "populations",
            "z",
            "concurrence",
            "energy",
        }

    def test_corrupted_dynamics_fails_loudly(self, monkeypatch):
        # harness self-test: negate the weights of the integrator's step, so
        # it steps by minus its increment, and the comparison must blow
        # through any sane tolerance
        real_weights = cpdyn.flow.rk4_weights

        def sabotaged(*s):
            return tuple(-d for d in real_weights(*s))

        monkeypatch.setattr(cpdyn.flow, "rk4_weights", sabotaged)
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        report = compare(config, tolerance=1e-6)
        assert report.passed is False
        assert report.max_deviation > 1e-2

    def test_corrupted_classicalization_fails_loudly(self, monkeypatch):
        # harness self-test: every classical column divides by the sampled
        # nfac; corrupt it and the comparison must fail
        real_nfac = cpdyn.flow.ClassicalTrajectory.nfac
        monkeypatch.setattr(
            cpdyn.flow.ClassicalTrajectory,
            "nfac",
            property(lambda traj: real_nfac.fget(traj) + 1),
        )
        config = load_scenario(SCENARIO_DIR / "fig1_right.json")
        report = compare(config, tolerance=1e-6)
        assert report.passed is False
        assert report.observable_deviation["populations"] > 1e-2
