import json
import warnings
from pathlib import Path

import pytest

import cpdyn.cli
import cpdyn.scenario
from cpdyn import __version__
from cpdyn.cli import main

from conftest import minimal_doc

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FIG1_LEFT = str(SCENARIO_DIR / "fig1_left.json")

# (section, malformed value, key the error names[, test id]): each escaped
# the parser as a bare TypeError/ValueError/OverflowError, or was converted
# or ignored and accepted (the stride truncated, strings and booleans read
# as numbers, a misspelt or second field dropped)
MALFORMED = [
    ("grid", {"t_end": None, "dt": 0.01}, "grid.t_end"),
    ("grid", {"t_end": [1], "dt": 0.01}, "grid.t_end"),
    ("flow", {"switch_threshold": None}, "flow.switch_threshold"),
    ("initial_state", {"real": [[1, 0], [1]]}, "initial_state"),
    ("initial_state", {"real": "ab"}, "initial_state"),
    ("hamiltonian", {"pauli": 5}, "hamiltonian.pauli"),
    ("grid", {"t_end": 1.0, "dt": 0.01, "output_stride": 2.5}, "grid"),
    ("grid", {"t_end": "1", "dt": 0.01}, "grid.t_end", "grid.t_end-string"),
    ("grid", {"t_end": True, "dt": 0.01}, "grid.t_end", "grid.t_end-bool"),
    ("grid", {"t_end": 1.0, "dt": "0.01"}, "grid.dt", "grid.dt-string"),
    ("grid", {"t_end": 10**400, "dt": 0.01}, "grid.t_end", "grid.t_end-overflow"),
    (
        "flow",
        {"switch_threshold": "0.3"},
        "flow.switch_threshold",
        "flow.switch_threshold-string",
    ),
    (
        "grid",
        {"t_end": 1.0, "dt": 0.01, "output_stride": True},
        "grid",
        "grid.output_stride-bool",
    ),
    (
        "initial_state",
        {"real": ["1", "0", "0", "0"]},
        "initial_state",
        "initial_state.real-string",
    ),
    (
        "initial_state",
        {"real": [True, False, False, False]},
        "initial_state",
        "initial_state.real-bool",
    ),
    (
        "hamiltonian",
        {"dense": {"real": [[str(int(i == j)) for j in range(4)] for i in range(4)]}},
        "hamiltonian.dense",
        "hamiltonian.dense.real-string",
    ),
    (
        "initial_state",
        {"real": [1.0, 0.0, 0.0, 0.0], "imag": [10**400, 0, 0, 0]},
        "initial_state",
        "initial_state.imag-overflow",
    ),
    (
        "grid",
        {"t_end": 1.0, "dt": 0.01, "outputstride": 10},
        "grid",
        "grid.outputstride-unknown",
    ),
    (
        "initial_state",
        {"real": [1.0, 0.0, 0.0, 0.0], "imaginary": [0.0, 0.0, 0.0, 0.0]},
        "initial_state",
        "initial_state.imaginary-unknown",
    ),
    (
        "hamiltonian",
        {
            "dense": {
                "real": [[0] * 4] * 4,
                "img": [[0, -1, 0, 0], [1, 0, 0, 0], [0] * 4, [0] * 4],
            }
        },
        "hamiltonian.dense",
        "hamiltonian.dense.img-unknown",
    ),
    (
        "hamiltonian",
        {"pauli": "1*ZI", "dense": {"real": [[1.0, 0.0], [0.0, -1.0]]}},
        "hamiltonian",
        "hamiltonian-pauli-and-dense",
    ),
    ("quantum_method", "exact", "scenario", "quantum_method-unknown"),
    # t_end / dt overflows to inf, which `round` cannot make a step count
    ("grid", {"t_end": 1.0, "dt": 5e-324}, "grid", "grid.dt-subnormal"),
    ("grid", {"t_end": 1e308, "dt": 1e-10}, "grid", "grid.t_end-huge"),
    # 1e15 + 1 samples: refused before any sample index is built
    ("grid", {"t_end": 1e12, "dt": 1e-3}, "grid", "grid.samples-over-cap"),
    # 1,001 samples, but 1e15 steps
    (
        "grid",
        {"t_end": 1e12, "dt": 1e-3, "output_stride": 10**12},
        "grid",
        "grid.steps-over-cap",
    ),
    ("name", None, "name", "name-null"),
]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert __version__ in capsys.readouterr().out


def test_validate_ok(capsys):
    assert main(["validate", "--config", FIG1_LEFT]) == 0
    assert "ok:" in capsys.readouterr().out


def test_validate_missing_file_exits_2(tmp_path, capsys):
    code = main(["validate", "--config", str(tmp_path / "missing.json")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_validate_invalid_config_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"hamiltonian": {"pauli": "1*ZI"}}))
    assert main(["validate", "--config", str(path)]) == 2
    assert "missing required field" in capsys.readouterr().err
    # a file that validates also runs: a dense H off by a 5e-10 residue or
    # holding a NaN is refused by validate and by compare alike
    for dense in (
        {"real": [[1.0, 0.0], [0.0, -1.0]], "imag": [[0.0, 5e-10], [0.0, 0.0]]},
        {"real": [[float("nan"), 0.0], [0.0, -1.0]]},
    ):
        doc = {
            "hamiltonian": {"dense": dense},
            "initial_state": {"real": [1.0, 0.0]},
            "grid": {"t_end": 1.0, "dt": 0.1},
            "observables": ["populations"],
        }
        path.write_text(json.dumps(doc))
        for command in ("validate", "compare"):
            assert main([command, "--config", str(path)]) == 2
            assert "error: hamiltonian.dense:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "section, node, key", [m[:3] for m in MALFORMED], ids=[m[-1] for m in MALFORMED]
)
def test_validate_malformed_field_exits_2(tmp_path, capsys, section, node, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_doc(**{section: node})))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err


def test_validate_state_norm_overflow_prints_one_line(tmp_path, capsys):
    # finite amplitudes whose norm overflows: the one error line, without
    # numpy's overflow warning above it
    path = tmp_path / "huge.json"
    doc = minimal_doc(
        hamiltonian={"pauli": "1*Z"}, initial_state={"real": [1e200, 1e200]}
    )
    path.write_text(json.dumps(doc))
    with warnings.catch_warnings(record=True) as caught:
        # outside a test run numpy's warnings go to stderr
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(
        "error: initial_state: state norm is inf, "
    ), err


def test_validate_quotes_step_count_over_cap(tmp_path, capsys):
    # validated only: a run of this document would take 1e15 steps
    path = tmp_path / "long.json"
    grid = {"t_end": 1e12, "dt": 1e-3, "output_stride": 10**12}
    path.write_text(json.dumps(minimal_doc(grid=grid)))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert "t_end / dt = 1000000000000.0 / 0.001 = 1000000000000000 steps" in err


@pytest.mark.parametrize("n_qubits", [13, 20, 40])
def test_validate_over_qubit_cap_exits_2(tmp_path, capsys, n_qubits):
    # refused by the cap's ValueError before H is allocated, not by numpy
    # failing to allocate it
    path = tmp_path / "big.json"
    doc = minimal_doc(
        hamiltonian={"pauli": "1*" + "Z" * n_qubits},
        initial_state={"real": [1.0, 0.0]},
    )
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: hamiltonian.pauli: "), err
    assert "dense-matrix cap" in err[0]


def test_simulate_writes_csv(tmp_path, capsys):
    out = tmp_path / "run.csv"
    code = main(
        ["simulate", "--config", FIG1_LEFT, "--method", "quantum", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema=1"
    assert "_c" not in lines[1]
    assert "wrote" in capsys.readouterr().out


def test_compare_passes_on_bundled_scenario(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(
        ["compare", "--config", FIG1_LEFT, "--report", str(report_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    report = json.loads(report_path.read_text())
    assert report["passed"] is True
    assert report["fidelity_gap_max"] < 1e-6


def test_compare_unreachable_tolerance_exits_1(capsys):
    code = main(["compare", "--config", FIG1_LEFT, "--tolerance", "1e-18"])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["inf", "nan", "-1", "0"])
def test_compare_tolerance_that_cannot_gate_exits_2(capsys, monkeypatch, tolerance):
    # inf passes every comparison; nan, -1 and 0 fail every one, which
    # exit 1 would report as a tolerance breach
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before checking the tolerance")

    monkeypatch.setattr(cpdyn.scenario, "run", integrate)
    assert main(["compare", "--config", FIG1_LEFT, "--tolerance", tolerance]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: tolerance: "), err


def test_numeric_failure_exits_3(tmp_path, capsys):
    import numpy as np

    doc = {
        "name": "blowup",
        "hamiltonian": {"dense": {"real": [[1e200, 0.0], [0.0, -1e200]]}},
        "initial_state": {"real": [1.0, 0.0]},
        "grid": {"t_end": 1.0, "dt": 0.1},
        "observables": ["populations"],
    }
    path = tmp_path / "blowup.json"
    path.write_text(json.dumps(doc))
    with np.errstate(invalid="ignore", over="ignore"):
        code = main(
            [
                "simulate",
                "--config",
                str(path),
                "--method",
                "classical",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
    assert code == 3
    assert "numeric failure" in capsys.readouterr().err


def test_missing_output_directory_exits_2_before_integrating(
    tmp_path, capsys, monkeypatch
):
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before checking the output path")

    monkeypatch.setattr(cpdyn.cli, "run", integrate)
    monkeypatch.setattr(cpdyn.cli, "compare", integrate)
    missing = tmp_path / "missing"
    for argv in (
        ["simulate", "--config", FIG1_LEFT, "--out", str(missing / "x.csv")],
        ["compare", "--config", FIG1_LEFT, "--report", str(missing / "r.json")],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert str(missing) in err


def test_unwritable_output_exits_2(tmp_path, capsys):
    # the path names a directory, so the write itself fails
    for argv in (
        ["simulate", "--config", FIG1_LEFT, "--method", "quantum", "--out", str(tmp_path)],
        ["compare", "--config", FIG1_LEFT, "--report", str(tmp_path)],
    ):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
