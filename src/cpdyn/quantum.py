"""Reference quantum evolution for an N-level system (hbar = 1).

Two integration routes are provided on purpose:

* `evolve_exact_grid`: spectral propagator exp(-iHt) via one
  eigendecomposition, sampled on a time grid and exact up to floating
  point.  This is the trusted oracle.
* `evolve_rk4`: classical fixed-step 4th-order Runge-Kutta on the
  Schrodinger right-hand side.  Norm drift is left in, not corrected:
  `QuantumTrajectory.norm_drift` reports it as a quality signal for the
  step size.

Hamiltonians are time-independent dense Hermitian matrices.  For such an
H every RK4 stage lies in the Krylov space span{u, Bu, ..., B^4 u} with
B = -i dt H (cf. Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997), so
one step is exactly sum_j w_j B^j u, with the weights w_j from
`rk4_weights`.  They serve the linear Schrodinger equation here (constant
weights) and its projective form in `cpdyn.flow`.
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
    "evolve_exact_grid",
    "evolve_rk4",
    "rk4_weights",
    "require_real",
]

STATE_NORM_TOL = 1e-10


class NumericFailure(RuntimeError):
    """NaN/Inf encountered during integration; `step` is the failing index."""

    def __init__(self, message: str, step: int):
        super().__init__(f"{message} at step {step}")
        self.step = step


def require_real(name: str, value) -> None:
    """Refuse a setting that is not a real number (a string or a boolean,
    say) with a ValueError naming it; NumPy scalars pass."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform integration grid: step `dt` up to `t_end`, sampling every
    `output_stride` steps (the final step is always sampled)."""

    t_end: float
    dt: float
    output_stride: int = 1

    def __post_init__(self):
        for name in ("t_end", "dt"):
            require_real(name, getattr(self, name))
        if not (self.t_end > 0 and math.isfinite(self.t_end)):
            raise ValueError(f"t_end must be positive and finite, got {self.t_end}")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end={self.t_end} / dt={self.dt} overflows the step count")
        stride = self.output_stride
        if (
            isinstance(stride, bool)
            or not isinstance(stride, numbers.Integral)
            or stride < 1
        ):
            raise ValueError(f"output_stride must be an integer >= 1, got {stride!r}")
        # tolerate t_end = k*dt held with float error, nothing more
        if abs(self.t_end / self.dt - self.n_steps) > 1e-9 * self.n_steps:
            raise ValueError(
                f"t_end={self.t_end} is not a whole number of dt={self.dt} steps"
            )

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    @property
    def n_samples(self) -> int:
        """Length of `sample_indices`, without building it."""
        return -(-self.n_steps // self.output_stride) + 1

    def sample_indices(self) -> np.ndarray:
        idx = np.arange(0, self.n_steps + 1, self.output_stride)
        if idx[-1] != self.n_steps:
            idx = np.append(idx, self.n_steps)
        return idx

    def sample_times(self) -> np.ndarray:
        return self.sample_indices() * self.dt


@dataclass
class QuantumTrajectory:
    """Sampled Schrodinger evolution: `states[k]` at `times[k]`."""

    times: np.ndarray
    states: np.ndarray

    @property
    def norm_drift(self) -> np.ndarray:
        """(S,) | ||psi|| - 1 | at each sample."""
        return np.abs(np.linalg.norm(self.states, axis=1) - 1.0)


def make_state(amplitudes) -> np.ndarray:
    """Validate and return a unit-norm complex state vector (read-only)."""
    psi = np.asarray(amplitudes, dtype=complex)
    if psi.ndim != 1 or psi.size < 2:
        raise ValueError(f"state must be 1-D with >= 2 amplitudes, got shape {psi.shape}")
    if not (np.all(np.isfinite(psi.real)) and np.all(np.isfinite(psi.imag))):
        raise ValueError("state amplitudes must be finite")
    # finite amplitudes can still have a norm that overflows to inf, which
    # the check below reports
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm is {nrm!r}, not 1 within {STATE_NORM_TOL}")
    psi = psi.copy()
    psi.setflags(write=False)
    return psi


def evolve_exact_grid(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Spectral propagation sampled on a TimeGrid: rows exp(-iHt) psi0 at
    the sample times, from one eigh of H.  psi0 must pass `make_state`."""
    psi0 = make_state(psi0)
    H = require_hermitian(H, psi0.size)
    evals, vecs = np.linalg.eigh(H)
    coeffs = vecs.conj().T @ psi0
    times = grid.sample_times()
    phases = np.exp(-1j * np.outer(times, evals))  # (S, N)
    return QuantumTrajectory(times=times, states=(vecs @ (phases * coeffs).T).T)


def rk4_weights(s1: complex, s2: complex, s3: complex, s4: complex) -> tuple:
    """Weights (w0, ..., w4) of one classical RK4 step in Krylov form.

    For an ODE whose step-scaled right-hand side at a point v of the
    Krylov space span{u, Bu, ..., B^4 u} is

        dt f(v) = Bv - beta(v) v,   beta(v) = (Bv)[pivot],

    and u[pivot] = 1, write v = sum_j v_j B^j u.  Then Bv shifts the
    coefficients up by one and beta(v) = sum_j v_j s_(j+1) with
    s_j = (B^j u)[pivot], so the four stages are a scalar recurrence and
    the step is u_new = sum_j w_j B^j u.  With all s_j = 0 the ODE is
    linear, du/dt = -iHu, and the weights (1, 1, 1/2, 1/6, 1/24) are the
    Taylor coefficients of exp(z) through z^4.

    Below, y holds the coefficients of a stage point and a, b, c, e those
    of dt k1, ..., dt k4.  A stage point of degree m gives a dt k of degree
    m + 1; coefficients known to be 0 are left out, and the leading ones,
    known exactly (a1 = 1, y1 = b2 = 1/2, then 1/4 up to e4), are written
    as constants.
    """
    # stage 1 at y = u: a1 = 1
    a0 = -s1
    # stage 2 at y = u + dt k1 / 2: y1 = b2 = 1/2
    y0 = 1.0 + 0.5 * a0
    beta = y0 * s1 + 0.5 * s2
    b0, b1 = -beta * y0, y0 - beta * 0.5
    # stage 3 at y = u + dt k2 / 2: y2 = c3 = 1/4
    y0, y1 = 1.0 + 0.5 * b0, 0.5 * b1
    beta = y0 * s1 + y1 * s2 + 0.25 * s3
    c0, c1, c2 = -beta * y0, y0 - beta * y1, y1 - beta * 0.25
    # stage 4 at y = u + dt k3 = (1 + c0, c1, c2, 1/4): e4 = 1/4
    y0 = 1.0 + c0
    beta = y0 * s1 + c1 * s2 + c2 * s3 + 0.25 * s4
    e0, e1, e2, e3 = -beta * y0, y0 - beta * c1, c1 - beta * c2, c2 - beta * 0.25
    return (
        1.0 + (a0 + 2.0 * (b0 + c0) + e0) / 6.0,
        (1.0 + 2.0 * (b1 + c1) + e1) / 6.0,
        (2.0 * (0.5 + c2) + e2) / 6.0,
        (0.5 + e3) / 6.0,
        1.0 / 24.0,
    )


def evolve_rk4(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """Fixed-step RK4 on the Schrodinger equation.

    The step is psi += D psi, with D = sum_{j>=1} w_j B^j (`rk4_weights`
    at s = 0, B = -i dt H) built once in Horner form, and D psi written into
    one increment buffer, so a step allocates no array.  Adding the increment
    rather than applying I + D keeps the rounding error of the propagator
    from repeating every step.  The state is never renormalized, so the
    trajectory's `norm_drift` shows the integration quality.

    psi0 must pass `make_state`, so a NumericFailure can only come from
    growth past the RK4 stability bound: each step multiplies the
    eigencomponent of lambda by R(iy) = 1 + iy - y^2/2 - iy^3/6 + y^4/24,
    y = -dt lambda, and |R(iy)|^2 = 1 - y^6/72 + y^8/576 exceeds 1 once
    dt max|lambda| > 2 sqrt(2).  It is raised at the first step whose state
    is not finite (an entry or |psi|^2 is NaN or Inf).  Finiteness is
    checked once per sample, not per step: a stretch between two samples
    runs unchecked, and if it ends non-finite it is replayed from the
    sample before it with the check on every step.  The replay names the
    same step as a per-step check, because a failure persists to the end
    of its stretch.  A non-finite entry never turns finite under
    psi += D psi (NaN stays NaN, Inf stays Inf or becomes NaN).  An
    overflow of |psi|^2 with finite entries persists too: I + D is a
    polynomial in the Hermitian H, hence normal, so |psi_n|^2 =
    sum_k |c_k|^2 |g_k|^(2n) is convex in n and keeps growing once it has
    passed its starting value.  The unchecked stretches run with overflow
    and invalid-value warnings off, since steps past a failure produce
    them; the replay runs under the caller's settings, so a failing run
    warns as a per-step check would.
    """
    psi = np.array(make_state(psi0))
    H = require_hermitian(H, psi.size)

    _, w1, w2, w3, w4 = rk4_weights(0.0, 0.0, 0.0, 0.0)
    B = (-1j * grid.dt) * H
    eye = np.eye(psi.size)
    D = B @ (w1 * eye + B @ (w2 * eye + B @ (w3 * eye + w4 * B)))

    inc = np.empty_like(psi)
    samples = grid.sample_indices().tolist()
    states = np.empty((len(samples), psi.size), dtype=complex)
    states[0] = psi
    dot, vdot, inf = np.dot, np.vdot, np.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, len(samples)):
            for _ in range(samples[k - 1], samples[k]):
                dot(D, psi, out=inc)
                psi += inc
            if not vdot(psi, psi).real < inf:  # NaN compares false
                break
            states[k] = psi
        else:
            return QuantumTrajectory(times=grid.sample_times(), states=states)

    # replay the stretch that ended non-finite, checking every step
    psi[...] = states[k - 1]
    for step in range(samples[k - 1] + 1, samples[k] + 1):
        dot(D, psi, out=inc)
        psi += inc
        if not vdot(psi, psi).real < inf:
            raise NumericFailure("non-finite state in RK4", step)
    # not reached: the replay repeats the failed stretch bit for bit
    raise NumericFailure("non-finite state in RK4", samples[k])
