import json
from pathlib import Path

import pytest

import cpdyn.cli
from cpdyn import __version__
from cpdyn.cli import main

from conftest import minimal_doc

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
FIG1_LEFT = str(SCENARIO_DIR / "fig1_left.json")

# (section, malformed value, key the error names): each escaped the parser
# as a bare TypeError/ValueError, or (the stride) was truncated and accepted
MALFORMED = [
    ("grid", {"t_end": None, "dt": 0.01}, "grid.t_end"),
    ("grid", {"t_end": [1], "dt": 0.01}, "grid.t_end"),
    ("flow", {"switch_threshold": None}, "flow.switch_threshold"),
    ("initial_state", {"real": [[1, 0], [1]]}, "initial_state"),
    ("initial_state", {"real": "ab"}, "initial_state"),
    ("hamiltonian", {"pauli": 5}, "hamiltonian.pauli"),
    ("grid", {"t_end": 1.0, "dt": 0.01, "output_stride": 2.5}, "grid"),
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


@pytest.mark.parametrize("section, node, key", MALFORMED, ids=[m[2] for m in MALFORMED])
def test_validate_malformed_field_exits_2(tmp_path, capsys, section, node, key):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(minimal_doc(**{section: node})))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {key}: "), err


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


def test_numeric_failure_exits_3(tmp_path, capsys):
    import numpy as np

    doc = {
        "name": "blowup",
        "hamiltonian": {"dense": {"real": [[1e200, 0.0], [0.0, -1e200]]}},
        "initial_state": {"real": [1.0, 0.0]},
        "grid": {"t_end": 1.0, "dt": 0.1},
        "observables": ["populations"],
        "quantum_method": "rk4",
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
                "quantum",
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
