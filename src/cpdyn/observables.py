"""Physical observables in both representations.

Every quantity has a quantum form (function of the state vector) and a
classical form (function of the chart point); the two agree exactly through
`from_chart` because all of them are phase-invariant.  The quantum forms
also take a stack of states (S, N) and then return one value per row, which
is how trajectories on either side are evaluated.
"""

from __future__ import annotations

import numpy as np

from .chart import ChartPoint, normalization

__all__ = [
    "populations_quantum",
    "populations_classical",
    "quaternionic_z_quantum",
    "quaternionic_z_classical",
    "concurrence_quantum",
    "concurrence_classical",
    "is_separable",
    "energy",
]

SEPARABILITY_EPS = 1e-8


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for a single state, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def populations_quantum(psi: np.ndarray) -> np.ndarray:
    """Squared moduli of the amplitudes."""
    return np.abs(np.asarray(psi, dtype=complex)) ** 2


def populations_classical(point: ChartPoint) -> np.ndarray:
    """Populations from chart coordinates: |x^i|^2/nfac off-pivot, 1/nfac
    at the pivot slot."""
    nfac = normalization(point)
    x = point.coords
    out = np.insert((x.real**2 + x.imag**2), point.pivot, 1.0)
    return out / nfac


def _require_two_qubits(n: int, what: str):
    if n != 4:
        raise ValueError(f"{what} is defined for two qubits (N=4), got N={n}")


def quaternionic_z_quantum(psi: np.ndarray) -> float | np.ndarray:
    """Population difference between the first and second amplitude pair,
    z = |a|^2 + |b|^2 - |c|^2 - |d|^2 (two qubits only)."""
    p = populations_quantum(psi)
    _require_two_qubits(p.shape[-1], "quaternionic population difference")
    return _per_state(p[..., 0] + p[..., 1] - p[..., 2] - p[..., 3])


def quaternionic_z_classical(point: ChartPoint) -> float:
    """Classical z from chart populations; slot membership {0,1} vs {2,3}
    fixes the signs in any chart."""
    _require_two_qubits(point.dimension, "quaternionic population difference")
    p = populations_classical(point)
    return float(p[0] + p[1] - p[2] - p[3])


def concurrence_quantum(psi: np.ndarray) -> float | np.ndarray:
    """Two-qubit pure-state concurrence 2|ad - bc|."""
    psi = np.asarray(psi)
    _require_two_qubits(psi.shape[-1], "concurrence")
    return _per_state(
        2.0 * np.abs(psi[..., 0] * psi[..., 3] - psi[..., 1] * psi[..., 2])
    )


def concurrence_classical(point: ChartPoint) -> float:
    """Concurrence from chart coordinates.

    2 |det M| / nfac, where M is the homogeneous representative reshaped to
    the 2x2 amplitude matrix.  In the chart anchored at the last amplitude
    this reduces to 2|x^0 - x^1 x^2|/nfac.
    """
    _require_two_qubits(point.dimension, "concurrence")
    u = point.homogeneous()
    det = u[0] * u[3] - u[1] * u[2]
    return float(2.0 * abs(det) / normalization(point))


def is_separable(point: ChartPoint) -> bool:
    """Numerical witness that the ray lies on the product-state submanifold:
    classical concurrence below SEPARABILITY_EPS.

    Zero concurrence picks out the Segre variety CP^1 x CP^1 inside CP^3,
    the image of pairs of independent single-qubit rays.
    """
    return concurrence_classical(point) < SEPARABILITY_EPS


def energy(H: np.ndarray, state) -> float | np.ndarray:
    """Expectation value of H for a state vector, a stack of them or a
    chart point.

    Chart points are evaluated directly in homogeneous coordinates as
    (u^dag H u)/nfac, without reconstructing the state vector.
    """
    H = np.asarray(H)
    if isinstance(state, ChartPoint):
        if H.shape[0] != state.dimension:
            raise ValueError(
                f"dimension mismatch: H is {H.shape}, point has "
                f"dimension {state.dimension}"
            )
        u = state.homogeneous()
        return float(np.vdot(u, H @ u).real / normalization(state))
    psi = np.asarray(state, dtype=complex)
    if H.shape[0] != psi.shape[-1]:
        raise ValueError(f"dimension mismatch: H is {H.shape}, state has {psi.shape[-1]}")
    return _per_state(np.sum(psi.conj() * (psi @ H.T), axis=-1).real)
