import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import cpdyn.cli
import cpdyn.pauli
import cpdyn.quantum
import cpdyn.scenario
from cpdyn import __version__
from cpdyn.cli import main

from conftest import minimal_doc, random_hermitian, random_state

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
    ("grid", {"t_end": 1.0, "dt": 10**400}, "grid.dt", "grid.dt-overflow"),
    (
        "flow",
        {"switch_threshold": 10**400},
        "flow.switch_threshold",
        "flow.switch_threshold-overflow",
    ),
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
        "initial_state",
        {"real": [1, 10**400, 0, 0]},
        "initial_state",
        "initial_state.real-later-overflow",
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


def test_defaults_come_from_the_library(capsys):
    # methods and tolerance are defined once, in `scenario`; the help text
    # quotes the tolerance as it always has
    parser = cpdyn.cli.build_parser()
    assert parser.parse_args(["compare", "--config", "x"]).tolerance == (
        cpdyn.scenario.DEFAULT_TOLERANCE
    )
    with pytest.raises(SystemExit):
        main(["compare", "--help"])
    assert "(default: 1e-6)" in " ".join(capsys.readouterr().out.split())
    with pytest.raises(SystemExit):
        main(["simulate", "--help"])
    assert "{quantum,classical,both}" in capsys.readouterr().out


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


@pytest.mark.parametrize(
    "module, name",
    [("pauli", "build_hamiltonian"), ("quantum", "make_state"), ("pauli", "require_real")],
)
def test_library_type_error_is_not_a_bad_document(monkeypatch, module, name):
    # a TypeError inside a parse is a defect of the library, which no
    # document can cause: it leaves `main` as itself, not as a ConfigError
    # that exits 2 and blames the key being read (a `require_hermitian` of
    # the wrong arity once read "hamiltonian.pauli: require_hermitian()
    # takes 1 positional argument")
    def broken(*args, **kwargs):
        raise TypeError(f"{name}() is broken")

    monkeypatch.setattr(getattr(cpdyn, module), name, broken)
    with pytest.raises(TypeError, match=f"{name}\\(\\) is broken"):
        main(["validate", "--config", FIG1_LEFT])


@pytest.mark.parametrize("threshold", [1e-200, 1e-155])
def test_threshold_past_the_divergence_guard_exits_2(tmp_path, capsys, threshold):
    # compare crashed with a ZeroDivisionError (exit 1, the tolerance-breach
    # code) or never switched charts, while validate said ok
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(minimal_doc(flow={"switch_threshold": threshold})))
    for command in ("validate", "compare"):
        assert main([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1, err
        assert err[0].startswith("error: flow.switch_threshold: "), err


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


def test_validate_pauli_sum_overflow_prints_one_line(tmp_path, capsys):
    # finite coefficients whose sum overflows: the one error line, without
    # numpy's overflow warning above it (a traceback and exit 1 when the
    # warning is an error, as in a test run)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(minimal_doc(hamiltonian={"pauli": "1e308*ZI + 1e308*ZI"})))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["validate", "--config", str(path)]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: hamiltonian.pauli: operator entries must be finite"], err


def test_validate_integer_past_the_digit_limit_exits_2(tmp_path, capsys):
    # json.loads refuses an integer literal of more than 4,300 digits with a
    # ValueError that is not a JSONDecodeError (a traceback and exit 1)
    path = tmp_path / "digits.json"
    text = json.dumps(minimal_doc(grid={"t_end": 1.0, "dt": 12345}))
    path.write_text(text.replace("12345", "1" + "0" * 5000))
    assert main(["validate", "--config", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: "), err


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


def test_validate_ten_qubit_pauli_document(tmp_path, rng, capsys):
    # the parse path at N = 1024: build H and check it, nothing more; a run
    # at this size would make an eigh and N x N eigenvectors
    labels = rng.integers(0, 4, (64, 10))
    coeffs = rng.uniform(-1.0, 1.0, 64) / 8.0
    pauli = " ".join(
        f"{'-' if c < 0 else '+'} {abs(float(c))!r}*{''.join('IXYZ'[k] for k in row)}"
        for c, row in zip(coeffs, labels)
    )
    psi0 = random_state(rng, 1024)
    path = tmp_path / "ten_qubits.json"
    path.write_text(json.dumps(minimal_doc(
        hamiltonian={"pauli": pauli},
        initial_state={"real": psi0.real.tolist(), "imag": psi0.imag.tolist()},
        observables=["populations", "energy", "norm"],
    )))
    assert main(["validate", "--config", str(path)]) == 0
    assert "N=1024)" in capsys.readouterr().out


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


def test_simulate_stride_past_the_end_writes_both_ends(tmp_path, capsys):
    # passed validate, then simulate exited 1 with a TypeError traceback
    # from np.exp
    path, out = tmp_path / "stride.json", tmp_path / "run.csv"
    grid = {"t_end": 1.0, "dt": 0.01, "output_stride": 10**400}
    path.write_text(json.dumps(minimal_doc(grid=grid)))
    assert main(["validate", "--config", str(path)]) == 0
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    rows = out.read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == ["0", "1"], rows
    assert "(2 samples)" in capsys.readouterr().out


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


def test_compare_passes_on_dense_32_level_document(tmp_path, rng, capsys):
    # above `flow._STACK_MAX_N`: both routes step with the one shared eigh
    n = 32
    H, psi0 = random_hermitian(rng, n, scale=2.0 / np.sqrt(n)), random_state(rng, n)
    doc = {
        "hamiltonian": {"dense": {"real": H.real.tolist(), "imag": H.imag.tolist()}},
        "initial_state": {"real": psi0.real.tolist(), "imag": psi0.imag.tolist()},
        "grid": {"t_end": 1.0, "dt": 0.01, "output_stride": 10},
    }
    config, report_path = tmp_path / "dense32.json", tmp_path / "report.json"
    config.write_text(json.dumps(doc))
    code = main(["compare", "--config", str(config), "--report", str(report_path)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    assert json.loads(report_path.read_text())["passed"] is True


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


@pytest.mark.parametrize(
    "command",
    [["simulate", "--method", "quantum"], ["simulate", "--method", "classical"], ["compare"]],
    ids=["simulate-quantum", "simulate-classical", "compare"],
)
def test_overflowing_dt_h_exits_3_with_one_line(tmp_path, capsys, command):
    # finite entries that validate, but dt H past the float range: the
    # quantum route wrote NaN rows and exited 0, and the classical route
    # printed numpy's overflow warnings above the error line
    path = tmp_path / "huge.json"
    doc = minimal_doc(
        hamiltonian={"pauli": "1e308*ZI + 1e308*XX"},
        initial_state={"real": [0.6, 0.8, 0.0, 0.0]},
        grid={"t_end": 4.0, "dt": 2.0},
    )
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    if command[0] == "simulate":
        command = [*command, "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([*command, "--config", str(path)]) == 3
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("numeric failure: "), err
    assert err[0].endswith(" at step 1"), err


def test_infinite_eigenvalue_exits_3_at_step_1(tmp_path, capsys):
    # a dense H of finite entries whose largest eigenvalue overflows: the
    # exact route named step 0, before any step
    path = tmp_path / "huge.json"
    doc = minimal_doc(
        hamiltonian={"dense": {"real": [[1e308] * 3] * 3}},
        initial_state={"real": [1.0, 0.0, 0.0]},
        grid={"t_end": 1.0, "dt": 1.0},
        observables=["populations"],
    )
    path.write_text(json.dumps(doc))
    assert main(["validate", "--config", str(path)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--method", "quantum", "--config", str(path),
            "--out", str(tmp_path / "out.csv")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err.splitlines() == [
        "numeric failure: non-finite t max|lambda| at step 1"
    ]


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


@pytest.mark.parametrize("command, flag", [("simulate", "--out"), ("compare", "--report")])
def test_output_path_that_is_a_directory_exits_2_before_integrating(
    tmp_path, capsys, monkeypatch, command, flag
):
    # the write failed only after the whole run, and `compare` had printed
    # its PASS summary by then
    def integrate(*args, **kwargs):
        raise AssertionError("integrated before checking the output path")

    monkeypatch.setattr(cpdyn.cli, "run", integrate)
    monkeypatch.setattr(cpdyn.cli, "compare", integrate)
    assert main([command, "--config", FIG1_LEFT, flag, str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: output path {tmp_path} is a directory"]
