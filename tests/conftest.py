import numpy as np
import pytest
from hypothesis import settings

# Property tests integrate trajectories: no per-example deadline (their run
# time follows the host's load), and a fixed example sequence so that a
# failure always reproduces.
settings.register_profile("cpdyn", deadline=None, derandomize=True)
settings.load_profile("cpdyn")


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


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260808)
