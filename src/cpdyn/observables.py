"""Physical observables in both representations.

Every quantity has a quantum form, a function of the state vector that also
takes a stack of states (S, N) and then returns one value per row.  Its
classical form on CP^{N-1} follows from one rule (the Kibble /
Ashtekar-Schilling classicalization): evaluate the quantum form at the
homogeneous vector u of the chart point and divide by nfac = |u|^2.  The
rule is exact because every observable here is phase-invariant and scales
as |c|^2 under psi -> c psi, the concurrence 2|ad - bc| included.
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

# Concurrence below which `is_separable` calls a ray a product state.  It
# needs no scaling with N or ||H||: concurrence is defined here for two
# qubits only (N = 4) and is a number in [0, 1] read from the state alone.
SEPARABILITY_EPS = 1e-8


def _per_state(values: np.ndarray) -> float | np.ndarray:
    """A float for a single state, the array for a stack."""
    return float(values) if values.ndim == 0 else values


def populations_quantum(psi: np.ndarray) -> np.ndarray:
    """Squared moduli of the amplitudes."""
    return np.abs(np.asarray(psi, dtype=complex)) ** 2


def _classical(quantum_form, point: ChartPoint):
    """The classical form of `quantum_form` at `point`: f(u)/nfac."""
    return quantum_form(point.homogeneous()) / normalization(point)


def populations_classical(point: ChartPoint) -> np.ndarray:
    """Populations from chart coordinates: |x^i|^2/nfac off-pivot, 1/nfac
    at the pivot slot."""
    return _classical(populations_quantum, point)


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
    return _classical(quaternionic_z_quantum, point)


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
    return _classical(concurrence_quantum, point)


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
    (u^dag H u)/nfac, without reconstructing the state vector.  By design H
    is not checked for Hermiticity (the real part is returned);
    `flow.classical_hamiltonian` is the checked h0.
    """
    H = np.asarray(H)
    if isinstance(state, ChartPoint):
        return _classical(lambda u: energy(H, u), state)
    psi = np.asarray(state, dtype=complex)
    if H.shape[0] != psi.shape[-1]:
        raise ValueError(f"dimension mismatch: H is {H.shape}, state has {psi.shape[-1]}")
    return _per_state(np.sum(psi.conj() * (psi @ H.T), axis=-1).real)
