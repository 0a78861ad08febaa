"""Reference quantum evolution for an N-level system (hbar = 1).

Two integration routes are provided on purpose:

* `evolve_exact`: spectral propagator exp(-iHt) via eigendecomposition,
  exact up to floating point.  This is the trusted oracle.
* `evolve_rk4`: classical fixed-step 4th-order Runge-Kutta on the
  Schrodinger right-hand side.  Norm drift is recorded, not corrected:
  it is a quality signal for the step size.

Hamiltonians are time-independent dense Hermitian matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .pauli import require_hermitian

__all__ = [
    "NumericFailure",
    "TimeGrid",
    "QuantumTrajectory",
    "make_state",
    "schrodinger_rhs",
    "evolve_exact",
    "evolve_exact_grid",
    "evolve_rk4",
    "rk4_step",
]

STATE_NORM_TOL = 1e-10


class NumericFailure(RuntimeError):
    """NaN/Inf encountered during integration; `step` is the failing index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: step `dt` up to `t_end`, sampling every
    `output_stride` steps (the final step is always sampled)."""

    t_end: float
    dt: float
    output_stride: int = 1

    def __post_init__(self):
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        # tolerate t_end = k*dt held with float error, nothing more
        if abs(self.t_end / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ValueError(
                f"t_end={self.t_end} is not a whole number of dt={self.dt} steps"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def sample_indices(self) -> np.ndarray:
        idx = list(range(0, self.n_steps + 1, self.output_stride))
        if idx[-1] != self.n_steps:
            idx.append(self.n_steps)
        return np.asarray(idx, dtype=int)

    def sample_times(self) -> np.ndarray:
        return self.sample_indices() * self.dt


@dataclass
class QuantumTrajectory:
    """Sampled Schrodinger evolution: `states[k]` at `times[k]`;
    `norm_drift[k]` = | ||psi|| - 1 | at that sample."""

    times: np.ndarray
    states: np.ndarray
    norm_drift: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.states.shape[1]


def make_state(amplitudes, norm_tol: float = STATE_NORM_TOL) -> np.ndarray:
    """Validate and return a unit-norm complex state vector (read-only)."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size < 2:
        raise ValueError("state needs at least two amplitudes")
    if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
        raise ValueError("state amplitudes must be finite")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > norm_tol:
        raise ValueError(f"state norm is {nrm!r}, not 1 within {norm_tol}")
    psi = psi.copy()
    psi.setflags(write=False)
    return psi


def schrodinger_rhs(H: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """d(psi)/dt = -i H psi."""
    H = np.asarray(H)
    psi = np.asarray(psi)
    if H.shape[1] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: H is {H.shape}, psi has {psi.shape[0]}")
    return -1j * (H @ psi)


def evolve_exact(H: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Propagate psi0 by exp(-iHt) through the eigendecomposition of H."""
    H = require_hermitian(H, tol=1e-10)
    evals, vecs = np.linalg.eigh(H)
    coeffs = vecs.conj().T @ np.asarray(psi0, dtype=complex)
    return vecs @ (np.exp(-1j * evals * t) * coeffs)


def evolve_exact_grid(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Spectral propagation sampled on a TimeGrid (one eigh, all times)."""
    H = require_hermitian(H, tol=1e-10)
    evals, vecs = np.linalg.eigh(H)
    coeffs = vecs.conj().T @ np.asarray(psi0, dtype=complex)
    times = grid.sample_times()
    phases = np.exp(-1j * np.outer(times, evals))  # (S, N)
    states = (vecs @ (phases * coeffs).T).T
    drift = np.abs(np.linalg.norm(states, axis=1) - 1.0)
    return QuantumTrajectory(times=times, states=states, norm_drift=drift)


def rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of dy/dt = f(y)."""
    half = dt / 2.0
    k1 = f(y)
    k2 = f(y + half * k1)
    k3 = f(y + half * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def evolve_rk4(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Fixed-step RK4 on the Schrodinger equation.

    The state is never renormalized; norm drift per sample is recorded so
    callers can judge integration quality.  Raises NumericFailure on the
    first non-finite step.
    """
    H = require_hermitian(H, tol=1e-10)
    psi = np.asarray(psi0, dtype=complex)
    if H.shape[1] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: H is {H.shape}, psi has {psi.shape[0]}")

    def rhs(y):
        return -1j * (H @ y)

    dt = grid.dt
    sample_at = set(grid.sample_indices().tolist())
    times, states, drifts = [], [], []

    def record(step: int):
        times.append(step * dt)
        states.append(psi)
        drifts.append(abs(np.linalg.norm(psi) - 1.0))

    if 0 in sample_at:
        record(0)
    for step in range(1, grid.n_steps + 1):
        psi = rk4_step(rhs, psi, dt)
        nsq = np.vdot(psi, psi).real
        if not nsq < np.inf:  # catches NaN (comparison false) and Inf
            raise NumericFailure("non-finite state in RK4", step)
        if step in sample_at:
            record(step)

    return QuantumTrajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        norm_drift=np.asarray(drifts),
    )
