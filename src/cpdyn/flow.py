r"""Classical Hamiltonian flow on CP^{N-1} equivalent to Schrodinger evolution.

The scalar Hamiltonian is the expectation value of the quantum operator in
chart coordinates,

    h0(x) = <psi|H|psi> = D / nfac,   D = u^dag H u,

with u the homogeneous representative (1 inserted at the pivot).  Hamilton's
equations contract the conjugate-coordinate gradient with the inverse
symplectic form:

    dx^j/dt = -i nfac sum_k (delta_{jk} + x^j xbar^k) dh0/dxbar^k.

The N quantum amplitude equations reduce to these N-1 complex ODEs.  For a
Hermitian H they are exactly the projective (matrix-Riccati) form of the
Schrodinger equation on the homogeneous vector u, u[pivot] = 1:

    du/dt = -i (Hu - (Hu)[pivot] u),

whose pivot component vanishes identically.  The integrator is fixed-step
RK4 on u (the Kahler geometry admits no standard symplectic splitting here;
energy drift is recorded as the quality signal).  With B = -i dt H the
step-scaled right-hand side is Bv - (Bv)[pivot] v, so every RK4 stage lies
in span{u, Bu, ..., B^4 u} and a step is exactly sum_j w_j B^j u:
`quantum.rk4_weights` turns the pivot entries s_j = (B^j u)[pivot] into
the weights w_j.  How a step gets the s_j and applies the weights depends
on N.

* Up to `_STACK_MAX_N` one product with the stacked matrix
  [I; B; B^2; B^3; B^4], built once per run, fills K = [u; Bu; ...; B^4 u],
  and the new state is w . K: 5N^2 multiply-adds.
* Above it the run starts with one eigendecomposition H = V diag(lam) V^H
  of its own and steps the coordinates q = V^H u, in which B^j is the
  diagonal z^j, z = -i dt lam.  One (5, N) product (z^j V[pivot]) . q gives
  u[pivot] and the s_j, and the step is q *= sum_j w_j z^j, with w the
  weights of u / u[pivot] divided by u[pivot], so the pivot entry returns
  to 1 on every step, as it does in exact arithmetic.  |u|^2 = |q|^2, V
  being unitary, so a step is O(N).  u = V q (N^2 multiply-adds) is formed
  at samples and at switch probes, and a step past the switch level
  probes only when `_probe_slack` cannot rule a switch out; a probe that
  does not switch changes nothing, so skipping it changes no bit.  Each
  stage still evaluates the projective vector field Bv - (Bv)[pivot] v;
  only the coordinates of v change.

Both paths stay, on measurements on a 2-CPU x86-64 host.  They step
equally fast at N = 18-20; the stacked one is 3-14% faster at N = 14-16,
the spectral one 6% faster at N = 22-24 and 28% at N = 32.  Forcing the
eigen-coordinate step at every N (0.16.0, `perfbench/run.py --seed 1
--seconds 12 --trace 0`, two runs) raised `wall_s` from 1.26-1.30 s to
1.46-1.50 s on the bundled figures (N = 4) and from 0.33-0.34 s to
0.37-0.38 s on the N = 2..8 sweep, and a variant with the 1/u_p scaling
and the 1/6 folded into the recurrence still stepped 8-14% slower than the
stacked step at N = 2, 4 and 8.  `eigh` is O(N^3), paid once per run.  A
step allocates no array: the stack, the eigenvectors and every work buffer
are built once per run.

Before the first step and after every step the integrator hops to the
chart anchored at the largest |u_i| whenever the pivot amplitude
1/|u| = 1/sqrt(nfac) is below a threshold (see `integrate_classical`); at
t = 0 this keeps a caller's chart anchored at a small amplitude from
stepping next to the pole of the Riccati equation.  Chart, pivot and
switch rule act on u in the computational basis on both paths.  The
trajectory keeps the sampled u, with u[pivot] = 1 exactly; everything else
it reports (coordinates, nfac = |u|^2, states) is read from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import ChartPoint, normalization, select_pivot
from .observables import energy
from .pauli import require_hermitian
from .quantum import NumericFailure, TimeGrid, require_real, rk4_weights

__all__ = [
    "FlowSettings",
    "ClassicalTrajectory",
    "classical_hamiltonian",
    "grad_conj",
    "hamilton_rhs",
    "integrate_classical",
]

# |u|^2 at or above this (or NaN) after a step means the step diverged;
# chart switching keeps |u|^2 <= max(N, 1/threshold^2) between steps, far
# below it.
_NSQ_GUARD = 1e300

# Largest N whose step fills K with one product with the 5N x N stack
# [I; B; ...; B^4]; above it the O(N) step in eigen-coordinates is faster
# (measured, see the module docstring).
_STACK_MAX_N = 20

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class FlowSettings:
    """Classical-integrator knobs: `switch_threshold` is the pivot-amplitude
    modulus below which the integrator changes chart.  The step is the grid
    step; a finer one is a smaller `TimeGrid.dt` with a larger stride.
    """

    switch_threshold: float = 0.2

    def __post_init__(self):
        require_real("switch_threshold", self.switch_threshold)
        if not 0.0 < self.switch_threshold < 1.0:
            raise ValueError(
                f"switch_threshold must lie in (0, 1), got {self.switch_threshold}"
            )


@dataclass
class ClassicalTrajectory:
    """Sampled flow on the homogeneous vector.

    `u[k]` (read-only) lives in the chart anchored at `pivots[k]`, so
    `u[k, pivots[k]] == 1`.  Every other per-sample quantity is derived
    from these fields; h0 at the samples is `energy(H, u) / nfac`.
    """

    times: np.ndarray
    u: np.ndarray
    pivots: np.ndarray
    switch_times: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.u.shape[1]

    @property
    def n_switches(self) -> int:
        return len(self.switch_times)

    @property
    def n_switches_cum(self) -> np.ndarray:
        """(S,) chart switches up to and including each sample time.  Exact:
        both time arrays are whole step counts times the same grid step."""
        return np.searchsorted(self.switch_times, self.times, side="right")

    @property
    def coords(self) -> np.ndarray:
        """(S, N-1) chart coordinates: `u` without the pivot slot."""
        off_pivot = np.arange(self.dimension) != self.pivots[:, None]
        return self.u[off_pivot].reshape(len(self.u), -1)

    @property
    def nfac(self) -> np.ndarray:
        """(S,) normalization factors |u|^2 = 1 + |x|^2."""
        return np.sum(self.u.real**2 + self.u.imag**2, axis=1)

    def states(self) -> np.ndarray:
        """(S, N) unit states: `from_chart` applied to every sample at once."""
        return self.u / np.sqrt(self.nfac)[:, None]


def classical_hamiltonian(H: np.ndarray, point: ChartPoint) -> float:
    """h0 = <psi|H|psi> evaluated in chart coordinates as D/nfac.

    H must pass `pauli.require_hermitian`; otherwise D would carry an
    imaginary part that is silently discarded, so it raises instead.
    """
    return energy(require_hermitian(H, point.dimension), point)


def grad_conj(H: np.ndarray, point: ChartPoint) -> np.ndarray:
    """Wirtinger gradient dh0/dxbar^k over the non-pivot indices.

    Closed form ((Hu)_k nfac - D x^k)/nfac^2, valid for any dimension and
    pivot choice.  H must pass `pauli.require_hermitian`.
    """
    H = require_hermitian(H, point.dimension)
    x = point.coords
    u = point.homogeneous()
    hu = H @ u
    nfac = normalization(point)
    d = np.vdot(u, hu).real
    hk = np.delete(hu, point.pivot)
    return (hk * nfac - d * x) / nfac**2


def hamilton_rhs(H: np.ndarray, point: ChartPoint) -> np.ndarray:
    """dx/dt: the inverse symplectic form contracted with grad_conj,

        dx^j/dt = -i nfac [ g_j + x^j sum_k xbar^k g_k ],  g = grad_conj.

    For a Hermitian H this equals, component by component, the non-pivot
    part of the projective Schrodinger right-hand side -i (Hu - (Hu)[pivot] u)
    that `integrate_classical` steps in Krylov form (`quantum.rk4_weights`);
    the reduction needs a real D, so `grad_conj` refuses a non-Hermitian H.
    """
    x = point.coords
    g = grad_conj(H, point)
    nfac = normalization(point)
    return (-1j * nfac) * (g + x * np.vdot(x, g))


def integrate_classical(
    H: np.ndarray,
    point0: ChartPoint,
    grid: TimeGrid,
    settings: FlowSettings | None = None,
) -> ClassicalTrajectory:
    """Fixed-step RK4 on the homogeneous vector u with automatic chart
    switching.

    At t = 0 and after every step, if the implied pivot amplitude 1/|u| is
    below settings.switch_threshold, the state hops to the chart anchored
    at the maximum-modulus amplitude and integration continues.  A hop at
    t = 0 is recorded as a switch at time 0, and sample 0 is taken after
    it.  Chart switches happen between steps, never inside RK4 stages.
    Raises NumericFailure on the first non-finite step.

    Up to N = `_STACK_MAX_N` a step costs one 5N x N product; above it a
    step is O(N) in eigen-coordinates, after one `eigh` of H per run, plus
    one N x N product u = V q at each sample and at each switch probe that
    `_probe_slack` does not rule out.
    """
    settings = settings or FlowSettings()
    n = point0.dimension
    H = require_hermitian(H, n)
    # switch when nfac = |u|^2 exceeds 1/threshold^2
    usq_switch = 1.0 / settings.switch_threshold**2
    u = np.array(point0.homogeneous(), dtype=complex)
    pivot = point0.pivot
    switch_times = []
    # the rule holds at t = 0 too: a chart anchored at a small amplitude
    # would take the first step next to the pole of its Riccati equation
    if np.vdot(u, u).real > usq_switch:
        new_pivot = select_pivot(u)
        if new_pivot != pivot:
            u /= u[new_pivot]
            u[new_pivot] = 1.0
            pivot = new_pivot
            switch_times.append(0.0)
    samples = grid.sample_indices().tolist()
    us = np.empty((len(samples), n), dtype=complex)
    pivots = np.empty(len(samples), dtype=int)
    us[0], pivots[0] = u, pivot

    steps = _stacked_steps if n <= _STACK_MAX_N else _spectral_steps
    switch_times += steps(H, u, pivot, grid, usq_switch, samples, us, pivots)

    us.setflags(write=False)
    return ClassicalTrajectory(
        times=grid.sample_times(),
        u=us,
        pivots=pivots,
        switch_times=np.asarray(switch_times),
    )


def _stacked_steps(H, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """Step u from sample 0 over the grid with K = [u; Bu; ...; B^4 u] from
    one product with [I; B; ...; B^4], writing samples 1.. into `us` and
    `pivots`; returns the switch times."""
    n = u.size
    B = (-1j * grid.dt) * H
    B2 = B @ B
    powers = np.concatenate([np.eye(n), B, B2, B @ B2, B2 @ B2])
    # K holds u, Bu, ..., B^4 u; s views the pivot entries of rows 1-4.
    # u is its own buffer: the update reads K.
    K = np.empty((5, n), dtype=complex)
    k_all = K.reshape(5 * n)
    s = K[1:, pivot]
    w = np.empty(5, dtype=complex)
    # np.dot into `out` runs the same BLAS product as np.matmul, with less
    # dispatch per call
    dot, vdot = np.dot, np.vdot
    switch_times = []

    k = 1
    for step in range(1, grid.n_steps + 1):
        dot(powers, u, out=k_all)
        w[:] = rk4_weights(*s.tolist())
        dot(w, K, out=u)  # u_new = sum_j w_j B^j u
        u[pivot] = 1.0  # the exact step keeps it at 1; rounding may not
        usq = vdot(u, u).real
        if not usq < _NSQ_GUARD:
            raise NumericFailure("non-finite chart coordinates", step)
        if usq > usq_switch:
            new_pivot = select_pivot(u)
            if new_pivot != pivot:
                u /= u[new_pivot]
                u[new_pivot] = 1.0
                pivot = new_pivot
                s = K[1:, pivot]
                switch_times.append(step * grid.dt)
        if step == samples[k]:
            us[k], pivots[k] = u, pivot
            k += 1
    return switch_times


def _spectral_steps(H, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """`_stacked_steps` in the coordinates q = V^H u of H = V diag(lam) V^H,
    where B^j is the diagonal z^j, z = -i dt lam.  u = V q is formed only to
    sample it or to probe for a switch, and a probe is skipped while
    `_probe_slack` shows that it cannot switch."""
    n = u.size
    lam, V = np.linalg.eigh(H)
    # row j: z^j
    Z = np.vander((-1j * grid.dt) * lam, 5, increasing=True).T.copy()
    # row j of P . q is (B^j u)[pivot]: u_p itself, then s_1..s_4
    P = np.multiply(Z, V[pivot])
    q = V.conj().T @ u
    p = np.empty(5, dtype=complex)
    w = np.empty(5, dtype=complex)
    g = np.empty(n, dtype=complex)
    # q0 is q when u was last formed, and slack how far q may move from
    # it before a probe could switch (see `_probe_slack`)
    q0 = q.copy()
    dq = np.empty(n, dtype=complex)
    mag = np.empty(n)
    slack = _probe_slack(u, pivot, mag)
    dot, vdot = np.dot, np.vdot
    switch_times = []

    k = 1
    for step in range(1, grid.n_steps + 1):
        dot(P, q, out=p)
        c, s1, s2, s3, s4 = p.tolist()
        # the weights of u / u_p, whose pivot entry is 1, scaled by 1 / u_p:
        # the new u has pivot entry 1 up to rounding, and the next step
        # divides that rounding out again
        r = 1.0 / c
        w0, w1, w2, w3, w4 = rk4_weights(s1 * r, s2 * r, s3 * r, s4 * r)
        w[:] = (w0 * r, w1 * r, w2 * r, w3 * r, w4 * r)
        dot(w, Z, out=g)
        q *= g  # u_new = sum_j w_j B^j u / u_p
        usq = vdot(q, q).real  # |u|^2, V being unitary
        if not usq < _NSQ_GUARD:
            raise NumericFailure("non-finite chart coordinates", step)
        probe = usq > usq_switch
        if probe and slack > 0.0:
            # a probe that cannot switch leaves q as it is, so skip it
            np.subtract(q, q0, out=dq)
            probe = vdot(dq, dq).real >= slack * slack
        if probe or step == samples[k]:
            dot(V, q, out=u)
            u[pivot] = 1.0
            if probe:
                new_pivot = select_pivot(u)
                if new_pivot != pivot:
                    scale = u[new_pivot]
                    u /= scale
                    q /= scale
                    u[new_pivot] = 1.0
                    pivot = new_pivot
                    np.multiply(Z, V[pivot], out=P)
                    switch_times.append(step * grid.dt)
            q0[:] = q
            slack = _probe_slack(u, pivot, mag)
            if step == samples[k]:
                us[k], pivots[k] = u, pivot
                k += 1
    return switch_times


def _probe_slack(u, pivot, mag) -> float:
    """How far, in 2-norm, q may move from V^H u before a switch probe
    could pick another pivot than `pivot`; at most 0 if it may already.

    u is the last formed u0 = V q0 (or the initial u, with q0 = V^H u0),
    and u0[pivot] = 1.  V being unitary, |(V q)_i - (V q0)_i| <= |q - q0|
    for every i, so while |q - q0| < 1 - max_{i != pivot} |u0_i| no other
    entry of V q reaches the pivot's 1 and `select_pivot` keeps the pivot.
    The allowance 8 N eps |u0| covers the rounding of the product that
    formed u0 and of the one a probe would form (each at most about
    N eps |q| per entry, the rows of V having unit norm), of V's
    orthonormality and of the moduli.  `mag` is an (N,) work buffer.
    """
    np.abs(u, out=mag)
    norm = float(np.sqrt(np.dot(mag, mag)))
    mag[pivot] = 0.0
    return 1.0 - float(mag.max()) - 8 * u.size * _EPS * norm
