import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from cpdyn.flow import integrate_classical
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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
