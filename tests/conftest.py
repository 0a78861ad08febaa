import importlib.util
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cpdyn.flow import _STACK_MAX_N, integrate_classical
from cpdyn.quantum import TimeGrid
from oracles import integrate_classical_reference

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Property tests integrate trajectories: no per-example deadline (their run
# time follows the host's load), and a fixed example sequence so that a
# failure always reproduces.
settings.register_profile("cpdyn", deadline=None, derandomize=True)
settings.load_profile("cpdyn")


def perfbench_module(name: str):
    """`perfbench/<name>.py`, imported by path (perfbench is no package)."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # its dataclasses look the module up
        spec.loader.exec_module(module)
    return sys.modules[key]


def random_hermitian(rng: np.random.Generator, n: int, scale: float = 2.0) -> np.ndarray:
    """Dense Hermitian matrix with real/imag entries uniform in [-scale, scale]."""
    a = rng.uniform(-scale, scale, (n, n)) + 1j * rng.uniform(-scale, scale, (n, n))
    return (a + a.conj().T) / 2.0


def random_state(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish random unit vector."""
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return v / np.linalg.norm(v)


def random_coords(rng: np.random.Generator, m: int, radius: float = 1.0) -> np.ndarray:
    """Complex chart coordinates with entries of typical size `radius`."""
    return radius * (rng.standard_normal(m) + 1j * rng.standard_normal(m))


def minimal_doc(**overrides):
    """A valid two-qubit scenario document; keywords replace its fields."""
    doc = {
        "name": "test",
        "hamiltonian": {"pauli": "1*ZI + 1*XI"},
        "initial_state": {"real": [0.5, 0.5, 0.5, 0.5]},
        "grid": {"t_end": 1.0, "dt": 0.01, "output_stride": 10},
        "observables": ["populations", "z", "concurrence", "energy", "norm"],
    }
    doc.update(overrides)
    return doc


def numpy_calls(monkeypatch, name: str, run) -> int:
    """How many times `run()` calls the function `numpy.<name>`."""
    calls = 0
    function = getattr(np, name)

    def counted(*args, **kwargs):
        nonlocal calls
        calls += 1
        return function(*args, **kwargs)

    monkeypatch.setattr(np, name, counted)
    run()
    monkeypatch.setattr(np, name, function)
    return calls


def numpy_dot_calls(monkeypatch, run) -> list:
    """How many times `run(grid)` calls the function `numpy.dot`, which goes
    through numpy's `__array_function__` dispatcher, on a grid of 100 steps
    and on one of 1,000, both with 11 samples."""
    grids = (TimeGrid(1.0, 0.01, 10), TimeGrid(10.0, 0.01, 100))
    return [numpy_calls(monkeypatch, "dot", lambda: run(grid)) for grid in grids]


def assert_same_trajectory(H, point0, grid, settings=None):
    """The integrator against its plain-loop oracle, bit for bit (a -0.0
    for a 0.0 would change a CSV field)."""
    got = integrate_classical(H, point0, grid, settings)
    want = integrate_classical_reference(H, point0, grid, settings)
    assert np.array_equal(got.u.view(np.uint64), want.u.view(np.uint64))
    assert np.array_equal(got.pivots, want.pivots)
    assert np.array_equal(
        got.switch_times.view(np.uint64), want.switch_times.view(np.uint64)
    )
    return got


@dataclass(frozen=True)
class StepPath:
    """One side of `flow._STACK_MAX_N`: up to it a classical step is one
    product with the stacked powers of B, above it an O(N) step in
    eigen-coordinates.  A row holds the systems the classical-flow tests
    run on its path."""

    name: str
    dims: tuple  # random dense systems, one step from every chart
    property_dims: tuple  # the dimensions hypothesis draws
    property_grid: TimeGrid  # global phase and H -> cH
    bit_runs: tuple  # pytest.param(seed, dims, H scale, grid): the oracle
    qubits: int  # X on the first qubit drives the last amplitude through 0
    overflow_n: int  # diag(1e200, -1e200, 0, ...) overflows in step 1

    def __post_init__(self):
        dims = {*self.dims, *self.property_dims, 2**self.qubits, self.overflow_n}
        dims.update(*(run.values[1] for run in self.bit_runs))
        assert {n > _STACK_MAX_N for n in dims} == {self.name == "spectral"}


STEP_PATHS = (
    StepPath(
        "stacked",
        dims=tuple(range(2, 9)),
        property_dims=tuple(range(2, 9)),
        property_grid=TimeGrid(t_end=5.0, dt=1e-2, output_stride=10),
        # at dt = 1e-3 the B^3 u and B^4 u terms are too small for their
        # rounding to reach u; the coarse step makes every row of K count
        bit_runs=(
            pytest.param(31, range(2, 9), 1.0, TimeGrid(2.0, 1e-3, 7), id="1.0"),
            pytest.param(31, range(2, 9), 1e6, TimeGrid(2.0 / 1e6, 1e-3 / 1e6, 7), id="1000000.0"),
            pytest.param(31, range(2, 9), 1.0, TimeGrid(20.0, 0.05, 7), id="1.0-coarse"),
        ),
        qubits=2,
        overflow_n=4,
    ),
    StepPath(
        "spectral",
        dims=(21, 64, 256),
        property_dims=(32, 64),
        property_grid=TimeGrid(t_end=2.0, dt=1e-2, output_stride=10),
        # N = 256 passes the switch level on every step; at N = 21-32 |u|^2
        # often stays below it, so samples are also formed without a probe
        bit_runs=(
            pytest.param(37, [256], 1.0, TimeGrid(0.2, 1e-3, 20), id="256"),
            pytest.param(41, [21, 24, 32], 1.0, TimeGrid(4.0, 1e-2, 7), id="21-24-32"),
            pytest.param(41, [21, 24, 32], 1e6, TimeGrid(4e-6, 1e-8, 7), id="21-24-32-1000000.0"),
        ),
        qubits=5,
        overflow_n=21,
    ),
)
STEP_PATH_IDS = [path.name for path in STEP_PATHS]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
