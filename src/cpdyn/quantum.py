"""Reference quantum evolution for an N-level system (hbar = 1).

Two integration routes are provided on purpose:

* `evolve_exact_grid`: spectral propagator exp(-iHt) via one
  eigendecomposition, sampled on a time grid and exact up to floating
  point.  This is the trusted oracle.
* `evolve_rk4`: classical fixed-step 4th-order Runge-Kutta on the
  Schrodinger right-hand side.  Norm drift is left in, not corrected:
  `QuantumTrajectory.norm_drift` reports it as a quality signal for the
  step size.  A step multiplies the eigencomponent of lambda by R(iy),
  y = -dt lambda, with |R(iy)| <= 1 for |y| <= 2 sqrt(2), RK4's stability
  interval on the imaginary axis (Hairer & Wanner, *Solving ODEs II*,
  sec. IV.2).  Once per run the largest row sum of |dt H|, which bounds
  every |y|, decides whether a step can grow the state: below
  `_RK4_STABLE` none can and no step is checked, else every step is
  checked for a non-finite state.

Hamiltonians are time-independent dense Hermitian matrices.  For such an
H every RK4 stage lies in the Krylov space span{u, Bu, ..., B^4 u} with
B = -i dt H (cf. Hochbruck & Lubich, SIAM J. Numer. Anal. 34, 1997), so
one step is exactly sum_j w_j B^j u, with the weights w_j from
`rk4_weights`.  They serve the linear Schrodinger equation here (constant
weights) and its projective form in `cpdyn.flow`.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .pauli import require_hermitian, require_integer, require_numbers, require_real

__all__ = [
    "NumericFailure",
    "Spectrum",
    "TimeGrid",
    "QuantumTrajectory",
    "make_state",
    "evolve_exact_grid",
    "evolve_rk4",
    "rk4_weights",
    "spectrum",
]

# How far from 1 `make_state` lets a state's norm lie.  It needs no
# scaling with ||H||, which no state check reads, nor with N: the norm
# of N amplitudes given to 16 digits rounds by about N eps, below 1e-10
# up to N of about 4e5, far past the 4,096 levels of `pauli.MAX_QUBITS`.
STATE_NORM_TOL = 1e-10

# Largest row sum of |dt H| below which `evolve_rk4` checks no step: it
# bounds dt max|lambda|, and 2.8 lies below RK4's 2 sqrt(2) = 2.828...
_RK4_STABLE = 2.8

# `Spectrum`'s check of its eigh, in units of N eps ||H|| |x|: a valid
# one stays below about 2 (see `Spectrum`), so 64 leaves a margin of 30
_EIGH_RESIDUAL = 64


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
        for name in ("t_end", "dt"):
            value = require_real(name, getattr(self, name))
            if not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)
        if self.dt > self.t_end:
            raise ValueError(f"dt={self.dt} exceeds t_end={self.t_end}")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end={self.t_end} / dt={self.dt} overflows the step count")
        if require_integer("output_stride", self.output_stride) < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        # tolerate t_end = k*dt held with float error, nothing more.  The
        # rule is relative to the step count and needs no scaling with
        # ||H||, as t_end/dt is invariant under H -> cH, t -> t/c, nor with
        # N, which the grid does not see
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
        """Every `output_stride`-th step index, then `n_steps`, as int64 for
        every stride (one at or past `n_steps` samples 0 and `n_steps`)."""
        idx = np.arange(0, self.n_steps, min(self.output_stride, self.n_steps))
        return np.append(idx, self.n_steps)

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
    """Validate and return a unit-norm complex state vector (read-only);
    the amplitudes pass `require_numbers` first."""
    psi = np.array(require_numbers("state amplitudes", amplitudes, ndim=1))
    if psi.size < 2:
        raise ValueError(f"state must have >= 2 amplitudes, got shape {psi.shape}")
    # finite amplitudes can still have a norm that overflows to inf, which
    # the check below reports
    with np.errstate(over="ignore"):
        nrm = float(np.linalg.norm(psi))
    if abs(nrm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state norm is {nrm!r}, not 1 within {STATE_NORM_TOL}")
    psi.setflags(write=False)
    return psi


@dataclass(frozen=True, eq=False)
class Spectrum:
    """H = V diag(lam) V^H for one H, and the one rule for H on every route.

    `Spectrum(H)` passes H through `require_hermitian`, which takes any
    N >= 2, and keeps the complex matrix that comes back; `spectrum(H, N)`
    makes one from a matrix, or takes a `Spectrum` as it is, and checks
    that N is the length of the states.  Every route that takes H takes a
    `Spectrum` in its place and enters through `spectrum`, so routes that
    are handed the same one share its check and its decomposition.

    `lam` and `V` come from one `eigh`, made when either is first read and
    then kept, so a route that reads only H (the RK4 steps, the stacked
    classical step) makes none.  They are read-only, so the routes that
    share them cannot change them for each other.  Above N = 20 both
    routes of a `compare` read them, where a wrong decomposition would be
    wrong in both alike, so the `eigh` is checked where it is made
    (Freivalds' check; R. Freivalds, IFIP Congress 1977).  For two
    fixed-seed real vectors x, a residual |H x - V diag(lam) V^H x| past
    `_EIGH_RESIDUAL` N eps ||H|| |x| raises NumericFailure at step 1, in
    max norms, ||H|| being the largest row sum of |H| plus the smallest
    normal float (so that a subnormal H cannot fail by underflow).  A
    valid `eigh` leaves at most about 2 N eps ||H|| |x| (N = 2..1024, H
    scaled from 1e-320 to 1e300); the `eigh` of H + 1e-3 ||H||_2 G, with
    G Hermitian and ||G||_2 = 1, leaves over 1e8 N eps ||H|| |x|.  A
    non-finite `lam` or an overflowing product leaves the residual NaN or
    the bound infinite, which passes; the routes then fail at step 1.

    A `Spectrum` lives for one run, made by `scenario.run` or by the route
    itself, never kept on a `ScenarioConfig`: the decomposition holds
    about two N x N arrays, which a parsed document would keep alive from
    its parse to its last run."""

    H: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "H", require_hermitian(self.H))

    @cached_property
    def _eigh(self) -> tuple:
        H = self.H
        lam, V = np.linalg.eigh(H)
        x = np.random.default_rng(0).standard_normal((len(H), 2))
        with np.errstate(over="ignore", invalid="ignore"):
            # V^H x = conj(V^T x) for a real x, with no conjugated copy of V
            residual = np.abs(H @ x - V @ (lam[:, None] * (V.T @ x).conj())).max(axis=0)
            scale = np.linalg.norm(H, np.inf) + np.finfo(float).tiny
            bound = _EIGH_RESIDUAL * len(H) * np.finfo(float).eps * np.abs(x).max(axis=0) * scale
        if np.any(residual > bound):
            raise NumericFailure(
                f"eigh residual {residual.max():.3e} past {bound.min():.3e}", 1
            )
        lam.setflags(write=False)
        V.setflags(write=False)
        return lam, V

    @property
    def lam(self) -> np.ndarray:
        return self._eigh[0]

    @property
    def V(self) -> np.ndarray:
        return self._eigh[1]


def spectrum(H: np.ndarray | Spectrum, dimension: int) -> Spectrum:
    """H as a `Spectrum` on states of length `dimension`, the one entry
    rule for H (see `Spectrum`): a matrix is checked, a `Spectrum` is taken
    as it is, and either has its dimension checked.  No eigh is made here."""
    H = H if isinstance(H, Spectrum) else Spectrum(H)
    if len(H.H) != dimension:
        raise ValueError(f"dimension mismatch: H is {H.H.shape}, state has {dimension}")
    return H


def evolve_exact_grid(
    H: np.ndarray | Spectrum, psi0: np.ndarray, grid: TimeGrid
) -> QuantumTrajectory:
    """Spectral propagation sampled on a TimeGrid: rows exp(-iHt) psi0 at
    the sample times, from `spectrum(H, N)`, whose eigh this route reads.
    psi0 must pass `make_state`."""
    psi0 = make_state(psi0)
    spec = spectrum(H, psi0.size)
    coeffs = spec.V.conj().T @ psi0
    times = grid.sample_times()
    # past the float range (k dt) max|lambda| would make the phases NaN
    # from step k on.  It does not fall as k grows, so the first such step,
    # sampled or not, is found by bisection over the steps: step 1 where an
    # eigenvalue itself is not finite (eigh of a finite H whose spectral
    # radius overflows), as on the RK4 routes.  Python floats overflow to
    # inf without a numpy warning.
    top, dt = float(np.max(np.abs(spec.lam))), grid.dt
    steps = range(1, grid.n_steps + 1)
    bad = bisect_left(steps, True, key=lambda k: not math.isfinite(k * dt * top))
    if bad < len(steps):
        raise NumericFailure("non-finite t max|lambda|", steps[bad])
    phases = np.exp(-1j * np.outer(times, spec.lam))  # (S, N)
    return QuantumTrajectory(times=times, states=(spec.V @ (phases * coeffs).T).T)


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
    as constants.  e0..e3 go straight into the weights.

    The loops call this once per step, so where that changes no bit a
    float constant c is the right operand: `x + 1.0` and `s2 * 0.5`, not
    `1.0 + x` and `0.5 * s2`, for which `float` first answers
    `NotImplemented`.  Every sum is written so.  Before Python 3.14 c
    becomes complex(c, 0.0), and each part of x + c has at most one NaN
    operand, so IEEE-754 addition gives the same bits in either order;
    from 3.14 mixed-mode rules give (x.real + c, x.imag) for both.  A
    product keeps `c * x` unless it is the last term of a stage's beta.
    Before 3.14 x * c forms its imaginary part as x.real 0.0 + x.imag c,
    the addends of c x.imag + 0.0 x.real in the other order; where both
    are NaN, CPython on x86-64 keeps the first one's sign and payload, so
    a weight's NaN bits can change (an s1 whose two NaN parts differ in
    sign does it for `a0 * 0.5`).  Where the two orders differ, x.real is
    not finite, so the term's real part is NaN too; as beta's last term it
    makes beta's real part NaN, and beta enters every later product as its
    left factor, whose two parts both take that NaN first.  From 3.14 each
    part of c * x is one product, in either order.  Negations are not
    folded: with x = -0.0 - 0.0j and beta = 0, `x + (-beta * y0)` is
    +0.0 - 0.0j and `x - beta * y0` is -0.0 - 0.0j.
    `tests/oracles.py::rk4_weights_reference`, the recurrence written out
    in full, is what this must match bit for bit and type for type.
    """
    # stage 1 at y = u: a1 = 1
    a0 = -s1
    # stage 2 at y = u + dt k1 / 2: y1 = b2 = 1/2
    y0 = 0.5 * a0 + 1.0
    beta = y0 * s1 + s2 * 0.5
    b0, b1 = -beta * y0, y0 - beta * 0.5
    # stage 3 at y = u + dt k2 / 2: y2 = c3 = 1/4
    y0, y1 = 0.5 * b0 + 1.0, 0.5 * b1
    beta = y0 * s1 + y1 * s2 + s3 * 0.25
    c0, c1, c2 = -beta * y0, y0 - beta * y1, y1 - beta * 0.25
    # stage 4 at y = u + dt k3 = (1 + c0, c1, c2, 1/4): e4 = 1/4, and
    # e0..e3 = -beta y0, y0 - beta c1, c1 - beta c2, c2 - beta / 4
    y0 = c0 + 1.0
    beta = y0 * s1 + c1 * s2 + c2 * s3 + s4 * 0.25
    return (
        (a0 + 2.0 * (b0 + c0) + (-beta * y0)) / 6.0 + 1.0,
        (2.0 * (b1 + c1) + 1.0 + (y0 - beta * c1)) / 6.0,
        (2.0 * (c2 + 0.5) + (c1 - beta * c2)) / 6.0,
        (c2 - beta * 0.25 + 0.5) / 6.0,
        1.0 / 24.0,
    )


def evolve_rk4(
    H: np.ndarray | Spectrum, psi0: np.ndarray, grid: TimeGrid
) -> QuantumTrajectory:
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
    y = -dt lambda, and |R(iy)|^2 = 1 - y^6/72 + y^8/576 exceeds 1 only
    for |y| > 2 sqrt(2).  Once per run beta, the largest row sum of |B|,
    bounds every |y|.  Below `_RK4_STABLE` no eigencomponent grows, and
    since I + D is a polynomial in the Hermitian H, hence normal, |psi|
    grows by at most its rounding, a factor 1 + O(N eps) per step: overflow
    would take of the order of 700 / (N eps) steps, far beyond the 10^8 a
    scenario may ask for.  Such a run checks no step.  Otherwise every step
    checks that |psi|^2 is finite, and NumericFailure names the first step
    where it is not: step 1, before any step is taken, where D itself is
    not finite.
    """
    psi = np.array(make_state(psi0))
    H = spectrum(H, psi.size).H

    _, w1, w2, w3, w4 = rk4_weights(0.0, 0.0, 0.0, 0.0)
    # built without a numpy warning: a dt H past the float range leaves D
    # non-finite, and D psi non-finite in each such row, so step 1 fails
    with np.errstate(over="ignore", invalid="ignore"):
        B = (-1j * grid.dt) * H
        eye = np.eye(psi.size)
        D = B @ (w1 * eye + B @ (w2 * eye + B @ (w3 * eye + w4 * B)))
    if not np.isfinite(D).all():
        raise NumericFailure("non-finite state in RK4", 1)
    checked = not np.max(np.sum(np.abs(B), axis=1)) < _RK4_STABLE

    inc = np.empty_like(psi)
    samples = grid.sample_indices().tolist()
    states = np.empty((len(samples), psi.size), dtype=complex)
    states[0] = psi
    # D . psi as a bound method: no numpy dispatch per step (see
    # `cpdyn.flow`)
    increment, vdot, inf = D.dot, np.vdot, np.inf
    for k in range(1, len(samples)):
        for step in range(samples[k - 1] + 1, samples[k] + 1):
            increment(psi, inc)
            psi += inc
            if checked and not vdot(psi, psi).real < inf:  # NaN compares false
                raise NumericFailure("non-finite state in RK4", step)
        states[k] = psi
    return QuantumTrajectory(times=grid.sample_times(), states=states)
