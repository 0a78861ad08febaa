"""Reference quantum evolution for an N-level system (hbar = 1).

Two integration routes are provided on purpose:

* `evolve_exact`: spectral propagator exp(-iHt) via eigendecomposition,
  exact up to floating point.  This is the trusted oracle.
* `evolve_rk4`: classical fixed-step 4th-order Runge-Kutta on the
  Schrodinger right-hand side.  Norm drift is left in, not corrected:
  `QuantumTrajectory.norm_drift` reports it as a quality signal for the
  step size.

Hamiltonians are time-independent dense Hermitian matrices.  For such an
H every RK4 stage lies in the Krylov space span{u, Bu, ..., B^4 u} with
B = -i dt H (cf. Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997), so
one step is exactly u + sum_j d_j B^j u.  `rk4_weights` runs the stage
recurrence on the coefficients in that space and returns the weights d_j.
It serves both integrators: the linear Schrodinger equation here (constant
weights, so the step is psi + D psi with D = sum_j d_j B^j built once) and
its projective form in `cpdyn.flow`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
    "rk4_weights",
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
        stride = self.output_stride
        if not isinstance(stride, numbers.Integral) or stride < 1:
            raise ValueError(f"output_stride must be an integer >= 1, got {stride!r}")
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
    """Sampled Schrodinger evolution: `states[k]` at `times[k]`."""

    times: np.ndarray
    states: np.ndarray

    @property
    def dimension(self) -> int:
        return self.states.shape[1]

    @property
    def norm_drift(self) -> np.ndarray:
        """(S,) | ||psi|| - 1 | at each sample."""
        return np.abs(np.linalg.norm(self.states, axis=1) - 1.0)


def make_state(amplitudes) -> np.ndarray:
    """Validate and return a unit-norm complex state vector (read-only)."""
    psi = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if psi.size < 2:
        raise ValueError("state needs at least two amplitudes")
    if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
        raise ValueError("state amplitudes must be finite")
    nrm = np.linalg.norm(psi)
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm is {nrm!r}, not 1 within {STATE_NORM_TOL}")
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


def _propagate(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """Rows exp(-iHt) psi0 for t in `times` (or a scalar t), one eigh of H."""
    evals, vecs = np.linalg.eigh(require_hermitian(H))
    coeffs = vecs.conj().T @ np.asarray(psi0, dtype=complex)
    phases = np.exp(-1j * np.outer(times, evals))  # (S, N)
    return (vecs @ (phases * coeffs).T).T


def evolve_exact(H: np.ndarray, psi0: np.ndarray, t: float) -> np.ndarray:
    """Propagate psi0 by exp(-iHt) through the eigendecomposition of H."""
    return _propagate(H, psi0, t)[0]


def evolve_exact_grid(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Spectral propagation sampled on a TimeGrid (one eigh, all times)."""
    times = grid.sample_times()
    return QuantumTrajectory(times=times, states=_propagate(H, psi0, times))


def rk4_weights(s1: complex, s2: complex, s3: complex, s4: complex) -> tuple:
    """Weights (d0, ..., d4) of one classical RK4 step in Krylov form.

    For an ODE whose step-scaled right-hand side at a point v of the
    Krylov space span{u, Bu, ..., B^4 u} is

        dt f(v) = Bv - beta(v) v,   beta(v) = (Bv)[pivot],

    and u[pivot] = 1, write v = sum_j v_j B^j u.  Then Bv shifts the
    coefficients up by one and beta(v) = sum_j v_j s_(j+1) with
    s_j = (B^j u)[pivot], so the four stages are a scalar recurrence and
    the step is u_new = u + sum_j d_j B^j u.  With all s_j = 0 the ODE is
    linear, du/dt = -iHu, and the weights are (0, 1, 1/2, 1/6, 1/24).

    Below, y holds the coefficients of a stage point and a, b, c, e those
    of dt k1, ..., dt k4.  A stage point of degree m gives a dt k of degree
    m + 1; coefficients known to be 0 are left out.
    """
    # stage 1 at y = u
    a0, a1 = -s1, 1.0
    # stage 2 at y = u + dt k1 / 2
    y0, y1 = 1.0 + 0.5 * a0, 0.5 * a1
    beta = y0 * s1 + y1 * s2
    b0, b1, b2 = -beta * y0, y0 - beta * y1, y1
    # stage 3 at y = u + dt k2 / 2
    y0, y1, y2 = 1.0 + 0.5 * b0, 0.5 * b1, 0.5 * b2
    beta = y0 * s1 + y1 * s2 + y2 * s3
    c0, c1, c2, c3 = -beta * y0, y0 - beta * y1, y1 - beta * y2, y2
    # stage 4 at y = u + dt k3
    y0, y1, y2, y3 = 1.0 + c0, c1, c2, c3
    beta = y0 * s1 + y1 * s2 + y2 * s3 + y3 * s4
    e0, e1, e2, e3, e4 = (
        -beta * y0, y0 - beta * y1, y1 - beta * y2, y2 - beta * y3, y3
    )
    return (
        (a0 + 2.0 * (b0 + c0) + e0) / 6.0,
        (a1 + 2.0 * (b1 + c1) + e1) / 6.0,
        (2.0 * (b2 + c2) + e2) / 6.0,
        (2.0 * c3 + e3) / 6.0,
        e4 / 6.0,
    )


def evolve_rk4(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Fixed-step RK4 on the Schrodinger equation.

    The step is psi += D psi, with D = sum_j d_j B^j (`rk4_weights` at
    s = 0, B = -i dt H) built once in Horner form.  Adding the increment
    rather than applying I + D keeps the rounding error of the propagator
    from repeating every step.  The state is never renormalized, so the
    trajectory's `norm_drift` shows the integration quality.
    Raises NumericFailure on the first non-finite step.
    """
    H = require_hermitian(H)
    psi = np.array(psi0, dtype=complex)
    if H.shape[1] != psi.shape[0]:
        raise ValueError(f"dimension mismatch: H is {H.shape}, psi has {psi.shape[0]}")

    d0, d1, d2, d3, d4 = rk4_weights(0.0, 0.0, 0.0, 0.0)
    B = (-1j * grid.dt) * H
    eye = np.eye(psi.size)
    D = d0 * eye + B @ (d1 * eye + B @ (d2 * eye + B @ (d3 * eye + d4 * B)))

    samples = grid.sample_indices().tolist()
    states = np.empty((len(samples), psi.size), dtype=complex)
    states[0] = psi
    k = 1
    for step in range(1, grid.n_steps + 1):
        psi += D @ psi
        nsq = np.vdot(psi, psi).real
        if not nsq < np.inf:  # catches NaN (comparison false) and Inf
            raise NumericFailure("non-finite state in RK4", step)
        if step == samples[k]:
            states[k] = psi
            k += 1

    return QuantumTrajectory(times=grid.sample_times(), states=states)
