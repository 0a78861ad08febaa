import json
from pathlib import Path

import numpy as np
import pytest

import cpdyn.flow
from cpdyn.scenario import (
    ConfigError,
    compare,
    emit_csv,
    load_scenario,
    run,
    scenario_from_dict,
)

from conftest import minimal_doc

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
        z0 = quaternionic_z_classical(result.classical_trajectory.point(0))
        assert z0 == pytest.approx(0.0, abs=1e-12)

    def test_rk4_quantum_method(self):
        config = scenario_from_dict(minimal_doc(quantum_method="rk4"))
        result = run(config, method="quantum")
        assert np.max(result.quantum_trajectory.norm_drift) < 1e-8

    def test_bad_method_rejected(self):
        config = scenario_from_dict(minimal_doc())
        with pytest.raises(ValueError, match="method"):
            run(config, method="quantumm")


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
        # harness self-test: flip the sign of the integrator's step increment
        # and the comparison must blow through any sane tolerance
        real_increment = cpdyn.flow._rk4_increment

        def sabotaged(M, K, pivot):
            return -real_increment(M, K, pivot)

        monkeypatch.setattr(cpdyn.flow, "_rk4_increment", sabotaged)
        config = load_scenario(SCENARIO_DIR / "fig1_left.json")
        report = compare(config, tolerance=1e-6)
        assert not report.passed
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
