"""The benchmark's workloads: seeded inputs, timed operations and the
correctness gate of each operation.

Each workload turns `--seed` into one pass of operations; every pass of a
run repeats the same inputs, so per-pass counts repeat exactly. An
operation's `run` returns the time of its two phases, `compare` and
`simulate` (see README.md for what each phase is per workload), and an
output that `check` verifies after the timer has stopped. `check` raises
GateError on a wrong result and returns the worst fidelity gap it saw, or
None when the operation yields none.

The input generators reimplement the distributions of the test suite's
`random_hermitian(scale=2)` and `random_state` rather than importing tests.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

from cpdyn import chart, cli, flow, quantum, scenario

GAP_BOUND = 1e-6
DEFAULT_OBSERVABLES = ["populations", "energy", "norm"]


class GateError(Exception):
    """An operation's output failed its correctness gate."""


@dataclass
class Op:
    label: str
    steps: int  # classical plus quantum RK4 steps, counted from the inputs
    run: Callable[[], tuple[dict[str, float], object]]
    check: Callable[[object], float | None]


def random_hermitian(rng, n: int, scale: float = 2.0) -> np.ndarray:
    """Dense Hermitian matrix with real/imag entries uniform in [-scale, scale]."""
    a = rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    return (a + a.conj().T) / 2.0


def random_state(rng, n: int) -> np.ndarray:
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def doc_grid(doc: dict) -> quantum.TimeGrid:
    """The time grid of a scenario document, read as `scenario` reads it."""
    g = doc["grid"]
    return quantum.TimeGrid(t_end=float(g["t_end"]), dt=float(g["dt"]),
                            output_stride=int(g.get("output_stride", 1)))


def doc_steps(doc: dict) -> int:
    """Integration steps of one `run(method="both")` of a scenario document;
    a flow `dt` splits each grid step into substeps as `flow` does."""
    grid = doc_grid(doc)
    sub_dt = (doc.get("flow") or {}).get("dt")
    classical = grid.n_steps * (max(1, round(grid.dt / float(sub_dt))) if sub_dt else 1)
    return classical + (grid.n_steps if doc.get("quantum_method") == "rk4" else 0)


def csv_header(doc: dict, n: int) -> str:
    """Column header of `simulate --method both` for a scenario document."""
    obs = doc.get("observables", DEFAULT_OBSERVABLES)
    cols = ["t"]
    if "populations" in obs:
        cols += [f"p{i}_q" for i in range(n)] + [f"p{i}_c" for i in range(n)]
    for name, col in (("z", "z"), ("concurrence", "C"), ("energy", "E")):
        if name in obs:
            cols += [f"{col}_q", f"{col}_c"]
    if "norm" in obs:
        cols.append("norm_drift_q")
    return ",".join(cols + ["pivot", "n_switches_cum"])


def max_fidelity_gap(states, coords, pivots) -> float:
    """max_k 1 - |<psi_k, from_chart(point_k)>|, rebuilding the unit state
    of each chart point here rather than through the program."""
    coords = np.asarray(coords)
    pivots = np.asarray(pivots)
    rows, m = coords.shape
    u = np.ones((rows, m + 1), dtype=complex)
    u[np.arange(m + 1)[None, :] != pivots[:, None]] = coords.ravel()
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    gaps = 1.0 - np.abs(np.sum(np.conj(states) * u, axis=1))
    return float(np.max(gaps))


def _check_gap(gap: float) -> float:
    if not gap < GAP_BOUND:
        raise GateError(f"fidelity gap {gap:.3e} is not below {GAP_BOUND}")
    return gap


def _cli(argv) -> tuple[float, int]:
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        t0 = perf_counter()
        code = cli.main(argv)
        return perf_counter() - t0, code


def figures(root: Path, seed: int, tmp: Path) -> list[Op]:
    """`cpdyn compare --report` and `cpdyn simulate --method both --out` on
    each bundled scenario, in-process through `cli.main`; the seed only
    orders the scenarios."""
    paths = sorted((root / "scenarios").glob("*.json"))
    if not paths:
        raise FileNotFoundError(f"no scenarios under {root / 'scenarios'}")
    order = np.random.default_rng(seed).permutation(len(paths))
    ops = []
    for path in (paths[i] for i in order):
        doc = json.loads(path.read_text())
        n = len(doc["initial_state"]["real"])
        report = tmp / f"{path.stem}.report.json"
        out = tmp / f"{path.stem}.csv"

        def run_compare(path=path, report=report):
            report.unlink(missing_ok=True)
            t, code = _cli(["compare", "--config", str(path), "--report", str(report)])
            return {"compare": t}, code

        def check_compare(code, report=report):
            if code != 0:
                raise GateError(f"compare exited {code}")
            data = json.loads(report.read_text())
            if data.get("passed") is not True:
                raise GateError(f"report says passed={data.get('passed')!r}")
            return _check_gap(float(data["fidelity_gap_max"]))

        def run_simulate(path=path, out=out):
            out.unlink(missing_ok=True)
            t, code = _cli(["simulate", "--config", str(path), "--method", "both",
                            "--out", str(out)])
            return {"simulate": t}, code

        def check_simulate(code, out=out, doc=doc, n=n):
            if code != 0:
                raise GateError(f"simulate exited {code}")
            lines = out.read_text().splitlines()
            header = csv_header(doc, n)
            if lines[:2] != ["# schema=1", header]:
                raise GateError(f"CSV starts {lines[:2]!r}")
            rows, want = len(lines) - 2, len(doc_grid(doc).sample_indices())
            if rows != want:
                raise GateError(f"CSV has {rows} rows, expected {want}")
            width = header.count(",")
            if any(line.count(",") != width for line in lines[2:]):
                raise GateError("CSV row width differs from its header")
            return None

        steps = doc_steps(doc)
        ops.append(Op(f"compare {path.stem}", steps, run_compare, check_compare))
        ops.append(Op(f"simulate {path.stem}", steps, run_simulate, check_simulate))
    return ops


SWEEP_DIMS = (2, 3, 4, 5, 8)
SWEEP_GRID = {"t_end": 10.0, "dt": 1e-3, "output_stride": 20}


def sweep(root: Path, seed: int, tmp: Path) -> list[Op]:
    """The acceptance-criterion-1 differential test on random dense
    Hermitian systems, one per dimension: spectral and RK4 quantum runs
    against the classical flow."""
    rng = np.random.default_rng(seed)
    grid = quantum.TimeGrid(**SWEEP_GRID)
    samples = len(grid.sample_indices())
    ops = []
    for n in SWEEP_DIMS:
        H, psi0 = random_hermitian(rng, n), random_state(rng, n)

        def run(H=H, psi0=psi0):
            t0 = perf_counter()
            exact = quantum.evolve_exact_grid(H, psi0, grid)
            point0 = chart.to_chart(psi0, chart.select_pivot(psi0))
            classical = flow.integrate_classical(H, point0, grid)
            t1 = perf_counter()
            rk4 = quantum.evolve_rk4(H, psi0, grid)
            t2 = perf_counter()
            return {"compare": t1 - t0, "simulate": t2 - t1}, (exact, classical, rk4)

        def check(out):
            exact, classical, rk4 = out
            if not len(exact.states) == len(classical.coords) == len(rk4.states) == samples:
                raise GateError("trajectories are not sampled on the common grid")
            if not np.all(np.isfinite(rk4.norm_drift)):
                raise GateError("RK4 norm drift is not finite")
            return _check_gap(max_fidelity_gap(exact.states, classical.coords,
                                               classical.pivots))

        ops.append(Op(f"sweep N={n}", 2 * grid.n_steps, run, check))
    return ops


HIGH_DIM_QUBITS = 8
HIGH_DIM_TERMS = 64
HIGH_DIM_DOCS = 4
HIGH_DIM_GRID = {"t_end": 2.0, "dt": 1e-3, "output_stride": 20}


def high_dim_doc(rng, name: str) -> dict:
    """An 8-qubit scenario document: 64 random Pauli strings with
    coefficients uniform in [-1, 1]/8 and a random initial state."""
    labels = rng.integers(0, 4, (HIGH_DIM_TERMS, HIGH_DIM_QUBITS))
    coeffs = rng.uniform(-1.0, 1.0, HIGH_DIM_TERMS) / 8.0
    text = " ".join(
        f"{'-' if c < 0 else '+'} {abs(float(c))!r}*{''.join('IXYZ'[k] for k in row)}"
        for c, row in zip(coeffs, labels)
    )
    psi0 = random_state(rng, 2**HIGH_DIM_QUBITS)
    return {
        "name": name,
        "hamiltonian": {"pauli": text},
        "initial_state": {"real": psi0.real.tolist(), "imag": psi0.imag.tolist()},
        "grid": dict(HIGH_DIM_GRID),
        "flow": {"switch_threshold": 0.2},
    }


def high_dim(root: Path, seed: int, tmp: Path) -> list[Op]:
    """`scenario_from_dict` then `compare` on 8-qubit (N=256) Pauli-string
    documents; the simulate phase is the document load and Pauli build."""
    rng = np.random.default_rng(seed)
    ops = []
    for k in range(HIGH_DIM_DOCS):
        doc = high_dim_doc(rng, f"high-dim-{seed}-{k}")

        def run(doc=doc):
            t0 = perf_counter()
            config = scenario.scenario_from_dict(doc)
            t1 = perf_counter()
            report = scenario.compare(config, tolerance=GAP_BOUND)
            t2 = perf_counter()
            return {"compare": t2 - t1, "simulate": t1 - t0}, report

        def check(report):
            if not report.passed:
                raise GateError(f"comparison failed, max deviation {report.max_deviation:.3e}")
            return _check_gap(report.fidelity_gap_max)

        ops.append(Op(doc["name"], doc_steps(doc), run, check))
    return ops


WORKLOADS = {"figures": figures, "sweep": sweep, "high-dim": high_dim}

# The `hostspeed` kernel whose slowing followed each workload's best: figures
# and sweep spend their time in interpreted N=4 RK4 steps; high-dim's
# 256-state products slow less than small numpy products do.
HOST_KERNEL = {"figures": "interpreted", "sweep": "interpreted", "high-dim": "plain"}

# Passes whose operations give op_p50_s and op_tail_s. Fixed per workload, so
# the sample count, the operation mix and the tail's rank are the same on
# every commit and host: figures 3 x 14 operations (tail p76.2), sweep 7 x 5
# (p71.4), high-dim 12 x 4 (p79.2). Each fills about 25 s of a 30 s run at
# the seed commit on a 2-CPU host in its fast state, up to 35 s in its slow
# state.
PASSES = {"figures": 3, "sweep": 7, "high-dim": 12}
