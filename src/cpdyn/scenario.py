"""Declarative scenario files, run orchestration, CSV output and
quantum-vs-classical comparison reports.

A scenario is a JSON file::

    {
      "name": "two-qubit demo",
      "hamiltonian": {"pauli": "1*ZI + 1*XI + 1*YI"},
      "initial_state": {"real": [0.5, 0.5, 0.5, 0.5], "imag": [0, 0, 0, 0]},
      "grid": {"t_end": 10.0, "dt": 0.001, "output_stride": 10},
      "flow": {"switch_threshold": 0.2},
      "observables": ["populations", "z", "concurrence", "energy", "norm"]
    }

The Hamiltonian is either a Pauli-string (``{"pauli": "..."}``) or a dense
Hermitian matrix (``{"dense": {"real": [[..]], "imag": [[..]]}}``).
Amplitudes and matrices carry real and imaginary parts as separate arrays so
the file format needs no complex literals.  Every object refuses a field it
does not know.
"""

from __future__ import annotations

import json
import math
import numbers
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import chart, flow, observables, pauli, quantum

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "RunResult",
    "ComparisonReport",
    "load_scenario",
    "run",
    "emit_csv",
    "compare",
]

CSV_SCHEMA_VERSION = 1

KNOWN_OBSERVABLES = ("populations", "z", "concurrence", "energy", "norm")
METHODS = ("quantum", "classical", "both")
# the largest deviation `compare` passes unless told otherwise
DEFAULT_TOLERANCE = 1e-6

# Sampled amplitudes a run may store per trajectory: 2^24, as many entries as
# the largest H that `pauli.MAX_QUBITS` lets the parser build (256 MiB).
_MAX_SAMPLE_ENTRIES = 4**pauli.MAX_QUBITS

# Steps a run may take: 10^8, 2,000 times the longest bundled scenario (fig4,
# 50,000 steps) and about 7 minutes of N = 4 classical steps at 4 us each
# (fig4 in process, best of 7 runs, 2-CPU x86-64 host).
_MAX_STEPS = 10**8


class ConfigError(ValueError):
    """Scenario file or comparison setting rejected; the message names the
    violated rule."""


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    hamiltonian: np.ndarray
    initial_state: np.ndarray
    grid: quantum.TimeGrid
    flow: flow.FlowSettings = field(default_factory=flow.FlowSettings)
    observables: tuple[str, ...] = ("populations", "energy", "norm")

    @property
    def dimension(self) -> int:
        return self.initial_state.shape[0]


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


@contextmanager
def _as_config_error(key: str):
    """Re-raise a ValueError/TypeError from parsing or from a library
    validator as a ConfigError naming `key`; a ConfigError passes as is."""
    try:
        yield
    except ConfigError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


def _fields(node, key: str, required=(), optional=()) -> None:
    """Refuse a `node` that is not an object, lacks a `required` field or
    holds a field outside `required` and `optional`, naming `key`."""
    _require(isinstance(node, dict), f"{key}: expected an object")
    unknown = set(node).difference(required, optional)
    _require(not unknown, f"{key}: unknown fields {sorted(unknown)}")
    for name in required:
        _require(name in node, f"{key}: missing required field '{name}'")


def _number(value, key: str) -> float:
    """A JSON number as a float; a string or a boolean is refused."""
    _require(
        isinstance(value, numbers.Real) and not isinstance(value, bool),
        f"{key}: expected a number, got {value!r}",
    )
    try:
        return float(value)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigError(f"{key}: {exc}") from exc


def _real_array(value, key: str) -> np.ndarray:
    """Nested JSON arrays of numbers as a float array; each entry is
    refused as `_number` refuses a scalar (a ragged row is an entry)."""
    entries = np.asarray(value, dtype=object)
    first_of_type = {}
    for v in entries.flat:
        first_of_type.setdefault(type(v), v)
    for example in first_of_type.values():
        _number(example, key)
    try:
        return entries.astype(float)
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ConfigError(f"{key}: {exc}") from exc


def _complex_array(node, key: str, ndim: int) -> np.ndarray:
    _fields(node, key, required=("real",), optional=("imag",))
    real = _real_array(node["real"], key)
    imag = _real_array(node["imag"], key) if "imag" in node else np.zeros_like(real)
    _require(
        real.ndim == ndim and imag.shape == real.shape,
        f"{key}: 'real' and 'imag' must both be {ndim}-dimensional and equal shape",
    )
    return real + 1j * imag


def _parse_hamiltonian(node, n: int) -> np.ndarray:
    _fields(node, "hamiltonian", optional=("pauli", "dense"))
    _require(
        len(node) == 1,
        "hamiltonian: needs exactly one of a 'pauli' string or a 'dense' matrix",
    )
    if "pauli" in node:
        with _as_config_error("hamiltonian.pauli"):
            terms = pauli.parse_hamiltonian(node["pauli"])
            return pauli.require_hermitian(pauli.build_hamiltonian(terms), n)
    with _as_config_error("hamiltonian.dense"):
        H = _complex_array(node["dense"], "hamiltonian.dense", ndim=2)
        return pauli.require_hermitian(H, n)


def _parse_grid(node) -> quantum.TimeGrid:
    _fields(node, "grid", required=("t_end", "dt"), optional=("output_stride",))
    values = {key: _number(node[key], f"grid.{key}") for key in ("t_end", "dt")}
    with _as_config_error("grid"):
        stride = node.get("output_stride", quantum.TimeGrid.output_stride)
        return quantum.TimeGrid(**values, output_stride=stride)


def _parse_flow(node) -> flow.FlowSettings:
    _fields(node, "flow", optional=("switch_threshold",))
    if "switch_threshold" not in node:
        return flow.FlowSettings()
    key = "flow.switch_threshold"
    threshold = _number(node["switch_threshold"], key)
    with _as_config_error(key):
        return flow.FlowSettings(threshold)


def scenario_from_dict(data, source: str = "<dict>") -> ScenarioConfig:
    """Validate a deserialized scenario document into a ScenarioConfig."""
    _fields(
        data,
        "scenario",
        required=("hamiltonian", "initial_state", "grid"),
        optional=("name", "flow", "observables"),
    )
    scenario_name = data.get("name", Path(source).stem)
    _require(
        isinstance(scenario_name, str),
        f"name: expected a string, got {scenario_name!r}",
    )

    with _as_config_error("initial_state"):
        psi0 = quantum.make_state(
            _complex_array(data["initial_state"], "initial_state", ndim=1)
        )
    n = psi0.size
    H = _parse_hamiltonian(data["hamiltonian"], n)

    grid = _parse_grid(data["grid"])
    _require(
        grid.n_samples * n <= _MAX_SAMPLE_ENTRIES,
        f"grid: {grid.n_samples} samples of {n} amplitudes exceed the cap of "
        f"{_MAX_SAMPLE_ENTRIES} sampled entries per trajectory",
    )
    _require(
        grid.n_steps <= _MAX_STEPS,
        f"grid: t_end / dt = {grid.t_end!r} / {grid.dt!r} = {grid.n_steps} steps "
        f"exceed the cap of {_MAX_STEPS} steps per run",
    )
    flow_settings = _parse_flow(data.get("flow", {}))

    obs = data.get("observables", ScenarioConfig.observables)
    _require(
        isinstance(obs, (list, tuple)) and len(obs) > 0,
        "observables: expected a non-empty list",
    )
    bad = [o for o in obs if o not in KNOWN_OBSERVABLES]
    _require(not bad, f"observables: unknown names {bad}; known: {list(KNOWN_OBSERVABLES)}")
    for name in ("z", "concurrence"):
        _require(
            name not in obs or n == 4,
            f"observables: '{name}' requires a two-qubit system (N=4), got N={n}",
        )

    return ScenarioConfig(
        name=scenario_name,
        hamiltonian=H,
        initial_state=psi0,
        grid=grid,
        flow=flow_settings,
        observables=tuple(obs),
    )


def load_scenario(path) -> ScenarioConfig:
    """Read and validate a scenario JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: JSON parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    return scenario_from_dict(data, source=str(path))


@dataclass
class RunResult:
    """Trajectories produced by `run`; either side may be None depending on
    the requested method."""

    config: ScenarioConfig
    quantum_trajectory: quantum.QuantumTrajectory | None = None
    classical_trajectory: flow.ClassicalTrajectory | None = None

    @property
    def times(self) -> np.ndarray:
        traj = self.quantum_trajectory or self.classical_trajectory
        return traj.times


def run(config: ScenarioConfig, method: str = "both") -> RunResult:
    """Execute a scenario; deterministic for a fixed config.

    The classical side starts from the chart anchored at the maximum-modulus
    initial amplitude.  H is decomposed at most once: a run with the
    quantum route makes one validated `quantum.Spectrum` and both routes
    share it; a classical-only run leaves it to `flow.integrate_classical`,
    which decomposes H only on the step path that needs it.
    """
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}, got {method!r}")
    result = RunResult(config=config)
    H, spectrum = config.hamiltonian, None
    if method != "classical":
        spectrum = quantum.spectrum(H, config.dimension)
        H = spectrum.H
    if method in ("quantum", "both"):
        result.quantum_trajectory = quantum.evolve_exact_grid(
            H, config.initial_state, config.grid, spectrum=spectrum
        )
    if method in ("classical", "both"):
        point0 = chart.to_chart(
            config.initial_state, chart.select_pivot(config.initial_state)
        )
        result.classical_trajectory = flow.integrate_classical(
            H, point0, config.grid, config.flow, spectrum=spectrum
        )
    return result


# observable -> (prefix of its `_q`/`_c` column pair, function of H and a
# state stack); populations are handled apart, with one column per level
_PAIRED = {
    "z": ("z", lambda H, states: observables.quaternionic_z_quantum(states)),
    "concurrence": ("C", lambda H, states: observables.concurrence_quantum(states)),
    "energy": ("E", observables.energy),
}


def _columns(result: RunResult, names) -> dict[str, np.ndarray]:
    """The columns of the observables in `names`, in CSV order, for the
    sides that were run.  Each observable column is f(v)/|v|^2 for one
    quantum form f (the rule of `observables`): v is u with |u|^2 = nfac
    on the classical side, the unit states on the quantum side."""
    H = result.config.hamiltonian
    q, c = result.quantum_trajectory, result.classical_trajectory
    sides = []
    if q is not None:
        sides.append(("q", q.states, 1.0))
    if c is not None:
        sides.append(("c", c.u, c.nfac))
    cols: dict[str, np.ndarray] = {"t": result.times}
    if "populations" in names:
        for side, v, vsq in sides:
            pops = observables.populations_quantum(v)
            cols.update((f"p{i}_{side}", p / vsq) for i, p in enumerate(pops.T))
    for name, (prefix, func) in _PAIRED.items():
        if name in names:
            for side, v, vsq in sides:
                cols[f"{prefix}_{side}"] = func(H, v) / vsq
    if "norm" in names and q is not None:
        cols["norm_drift_q"] = q.norm_drift
    if c is not None:
        cols["pivot"] = c.pivots
        cols["n_switches_cum"] = c.n_switches_cum
    return cols


def emit_csv(result: RunResult, path) -> None:
    """Write sampled observables as CSV.

    First line is the schema comment ``# schema=1``; floats carry 17
    significant digits so values round-trip exactly.
    """
    cols = _columns(result, result.config.observables)
    # one template per row; "%.17g" % v is the same 'g' conversion as
    # f"{v:.17g}", and "%d" % v is str(v) for an int
    row = ",".join("%d" if c.dtype.kind == "i" else "%.17g" for c in cols.values())
    lines = [f"# schema={CSV_SCHEMA_VERSION}", ",".join(cols)]
    lines += [row % values for values in zip(*(c.tolist() for c in cols.values()))]
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class ComparisonReport:
    """Max deviations between the quantum run and the classical run of one
    scenario, plus conservation diagnostics."""

    scenario: str
    tolerance: float
    observable_deviation: dict[str, float]
    fidelity_gap_max: float
    energy_drift_quantum: float
    energy_drift_classical: float
    norm_drift_quantum: float
    n_switches: int
    switch_times: np.ndarray = field(repr=False)

    @property
    def max_deviation(self) -> float:
        devs = [self.fidelity_gap_max, *self.observable_deviation.values()]
        return max(devs)

    @property
    def passed(self) -> bool:
        return self.max_deviation <= self.tolerance

    def to_dict(self) -> dict:
        """The fields in declaration order, then `max_deviation` and `passed`."""
        out = asdict(self)
        out["switch_times"] = [float(t) for t in self.switch_times]
        out["max_deviation"] = self.max_deviation
        out["passed"] = self.passed
        return out

    def summary_lines(self) -> list[str]:
        lines = [f"scenario: {self.scenario}"]
        for name in sorted(self.observable_deviation):
            lines.append(
                f"  max |quantum - classical| {name}: "
                f"{self.observable_deviation[name]:.3e}"
            )
        lines += [
            f"  max fidelity gap: {self.fidelity_gap_max:.3e}",
            f"  energy drift (quantum, classical): "
            f"{self.energy_drift_quantum:.3e}, {self.energy_drift_classical:.3e}",
            f"  quantum norm drift: {self.norm_drift_quantum:.3e}",
            f"  chart switches: {self.n_switches}",
            f"  tolerance: {self.tolerance:.3e} -> "
            f"{'PASS' if self.passed else 'FAIL'}",
        ]
        return lines


def compare(
    config: ScenarioConfig, tolerance: float = DEFAULT_TOLERANCE
) -> ComparisonReport:
    """Run quantum and classical on the same grid and report deviations.

    The report fails (passed=False) when any observable deviation or the
    trajectory fidelity gap exceeds `tolerance`; nothing is clamped.  A
    tolerance that is not finite and > 0 cannot gate and raises a
    ConfigError before anything is integrated.
    """
    _require(
        math.isfinite(tolerance) and tolerance > 0,
        f"tolerance: must be finite and > 0, got {tolerance}",
    )
    result = run(config, method="both")
    qtraj = result.quantum_trajectory
    ctraj = result.classical_trajectory

    cols = _columns(result, {*config.observables, "energy", "norm"})
    # one column pair per level for populations, one for each other observable
    levels = [f"p{i}" for i in range(config.dimension)]
    deviation = {
        name: float(np.max([
            np.abs(cols[f"{p}_q"] - cols[f"{p}_c"])
            for p in (levels if name == "populations" else [_PAIRED[name][0]])
        ]))
        for name in config.observables
        if name != "norm"
    }

    gaps = 1.0 - np.abs(np.sum(qtraj.states.conj() * ctraj.states(), axis=1))
    e_q, e_c = cols["E_q"], cols["E_c"]
    return ComparisonReport(
        scenario=config.name,
        tolerance=tolerance,
        observable_deviation=deviation,
        fidelity_gap_max=float(np.max(gaps)),
        energy_drift_quantum=float(np.max(np.abs(e_q - e_q[0]))),
        energy_drift_classical=float(np.max(np.abs(e_c - e_c[0]))),
        norm_drift_quantum=float(np.max(cols["norm_drift_q"])),
        n_switches=ctraj.n_switches,
        switch_times=ctraj.switch_times,
    )
