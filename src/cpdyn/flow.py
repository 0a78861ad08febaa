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
* Above it the run steps the coordinates q = V^H u of the eigendecomposition
  H = V diag(lam) V^H, a `quantum.Spectrum` that the caller passes or the
  run makes with one `eigh`; in these coordinates B^j is the diagonal z^j,
  z = -i dt lam.  One (5, N) product (z^j V[pivot]) . q gives
  u[pivot] and the s_j, and the step is q *= sum_j w_j z^j, with w the
  weights of u / u[pivot] divided by u[pivot], so the pivot entry returns
  to 1 on every step, as it does in exact arithmetic.  |u|^2 = |q|^2, V
  being unitary, so a step is O(N).  u = V q (N^2 multiply-adds) is formed
  at samples and at switch probes.  Each stage still evaluates the
  projective vector field Bv - (Bv)[pivot] v; only the coordinates of v
  change.

On either path a step makes three calls: one fill product (K, or P . q
for u_p and the s_j), `rk4_weights`, and one combine product (w . K, or
w . Z, which the spectral step applies as q *= g).  |u|^2, the divergence
guard that reads it and the switch rule run only where each loop's one
skip rule leaves them open:

* the stacked loop counts down with a growth bound: with beta >= |B|_2,
  computed once per run, no step from |u| <= nu = 1/threshold grows |u|
  by more than a factor rho (`_growth_bound`), so after each |u|^2 at or
  below the switch level the next m steps, rho^m |u| < nu, cannot reach
  it (`_steps_clear`); past the level every step checks;
* the spectral loop tests the probe distance |q - q0| after every step,
  q0 being q where u was last formed, and a step that `_probe_slack`
  shows cannot switch needs neither |u|^2 nor the guard nor a probe.

The steps that check decide as every step would, so no decision and no bit
depends on the skipping.  CHANGES.md (0.21.0 and 0.23.0) gives the share
of steps that form |u|^2 on the benchmark's workloads.

At N = 2..8 a step takes a few microseconds, most of it call overhead, so
each product is the `dot` method of its fixed left operand, bound once
per run and called with a positional `out` buffer (the quantum RK4 step
does the same with D . psi).  `ndarray.dot` reaches the same C routine as
`np.dot`, so no bit changes, without the `__array_function__` dispatcher
that `np.dot` runs in Python on every call on numpy 2.  `np.vdot` stays:
it has no method form, and a real dot of float views, though cheaper,
rounds the last bit of |u|^2 differently from the conjugated complex
product, which could move a switch decision.

Both paths stay because each is the faster one on its side of
`_STACK_MAX_N`: below it the stacked step, which needs no `eigh` and
less scalar work per step, wins while its 5N^2 multiply-adds are cheap,
and above it the O(N) eigen-coordinate step wins.  The measurements
behind the threshold are in CHANGES.md (0.17.0 for the step forced at
every N, 0.20.0 for the crossover).  `eigh` is O(N^3), paid at most once
per run, and `scenario.run` shares one with the quantum route.  A step
allocates no array: the stack and every work buffer are built once per
run.

Before the first step and after every step the integrator hops to the
chart anchored at the largest |u_i| whenever the pivot amplitude
1/|u| = 1/sqrt(nfac) is below a threshold (see `integrate_classical`); at
t = 0 this keeps a caller's chart anchored at a small amplitude from
stepping next to the pole of the Riccati equation.  The hop is written
once, in `_hop`: `select_pivot`, the division of u by its entry at the new
pivot and that entry set to exactly 1.  The stacked loop then re-points
its view of the pivot entries and forms |u|^2 again for its countdown,
the spectral loop divides q by the same entry and refills P, and each
records the switch time.  Chart, pivot and switch rule act on u in the
computational basis on both paths.  The trajectory keeps the sampled u,
with u[pivot] = 1 exactly; everything else it reports (coordinates,
nfac = |u|^2, states) is read from them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import ChartPoint, normalization, select_pivot
from .observables import energy
from .pauli import require_hermitian
from .quantum import (
    NumericFailure,
    Spectrum,
    TimeGrid,
    require_real,
    require_spectrum,
    rk4_weights,
)

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

# Relative allowance of `_growth_bound` for the rounding of one step and of
# the bound itself.
_STEP_ROUNDING = 1e-10


@dataclass(frozen=True)
class FlowSettings:
    """Classical-integrator knobs: `switch_threshold` is the pivot-amplitude
    modulus below which the integrator changes chart.  The step is the grid
    step; a finer one is a smaller `TimeGrid.dt` with a larger stride.

    The switch level |u|^2 = 1/threshold^2 must lie below `_NSQ_GUARD`, the
    level that reports a diverged step, or no switch could happen (below
    about 1e-162 threshold^2 is 0 and the level cannot be formed at all);
    1e-150 is about the smallest threshold that passes.
    """

    switch_threshold: float = 0.2

    def __post_init__(self):
        require_real("switch_threshold", self.switch_threshold)
        threshold = self.switch_threshold
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"switch_threshold must lie in (0, 1), got {threshold}")
        if float(threshold) ** 2 == 0.0 or self.switch_level >= _NSQ_GUARD:
            raise ValueError(
                f"switch_threshold {threshold} is too small: the switch level "
                f"1/threshold^2 must stay below {_NSQ_GUARD:g}"
            )

    @property
    def switch_level(self) -> float:
        """|u|^2 = 1/threshold^2, in double precision, above which the
        integrator changes chart."""
        return 1.0 / float(self.switch_threshold) ** 2


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
    *,
    spectrum: Spectrum | None = None,
) -> ClassicalTrajectory:
    """Fixed-step RK4 on the homogeneous vector u with automatic chart
    switching.

    At t = 0 and after every step, if the implied pivot amplitude 1/|u| is
    below settings.switch_threshold, the state hops to the chart anchored
    at the maximum-modulus amplitude (`_hop`, the one hop at t = 0 and in
    both step loops) and integration continues.  A hop at t = 0 is
    recorded as a switch at time 0, and sample 0 is taken after it.  Chart
    switches happen between steps, never inside RK4 stages.  Raises
    NumericFailure on the first non-finite step.

    Up to N = `_STACK_MAX_N` a step costs one 5N x N product; above it a
    step is O(N) in eigen-coordinates, plus one N x N product u = V q at
    each sample and at each switch probe.  |u|^2, the divergence guard and
    the switch rule run only where the loop's one skip rule leaves them
    open: the growth-bound countdown of `_steps_clear` up to
    `_STACK_MAX_N` (every step checks past the switch level, with a step
    past the RK4 stability bound or with a switch radius too large for
    the bound), the probe distance of `_probe_slack` above it.  The
    skipped work never decides anything, so the trajectory is the same
    bits as with every step checked.  The eigen-coordinates come from
    `spectrum` when it is given (see `quantum.require_spectrum`), else
    from one `eigh` of H per run; up to `_STACK_MAX_N` a given spectrum
    only spares the Hermiticity check.
    """
    settings = settings or FlowSettings()
    n = point0.dimension
    if spectrum is None and n <= _STACK_MAX_N:
        H = require_hermitian(H, n)
    else:
        spectrum = require_spectrum(H, n, spectrum)
    usq_switch = settings.switch_level
    u = np.array(point0.homogeneous(), dtype=complex)
    pivot = point0.pivot
    switch_times = []
    # the rule holds at t = 0 too: a chart anchored at a small amplitude
    # would take the first step next to the pole of its Riccati equation
    if np.vdot(u, u).real > usq_switch and (hop := _hop(u, pivot)):
        pivot = hop[0]
        switch_times.append(0.0)
    samples = grid.sample_indices().tolist()
    us = np.empty((len(samples), n), dtype=complex)
    pivots = np.empty(len(samples), dtype=int)
    us[0], pivots[0] = u, pivot

    if n <= _STACK_MAX_N:
        switch_times += _stacked_steps(
            H, u, pivot, grid, usq_switch, samples, us, pivots
        )
    else:
        switch_times += _spectral_steps(
            spectrum.lam, spectrum.V, u, pivot, grid, usq_switch, samples, us, pivots
        )

    us.setflags(write=False)
    return ClassicalTrajectory(
        times=grid.sample_times(),
        u=us,
        pivots=pivots,
        switch_times=np.asarray(switch_times),
    )


def _hop(u, pivot):
    """The chart hop, in place: None while `select_pivot(u)` keeps `pivot`;
    else u is divided by its entry at the new pivot, that entry is set to
    exactly 1, and (new pivot, divisor) is returned."""
    new_pivot = select_pivot(u)
    if new_pivot == pivot:
        return None
    scale = u[new_pivot]
    u /= scale
    u[new_pivot] = 1.0
    return new_pivot, scale


def _stacked_steps(H, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """Step u from sample 0 over the grid with K = [u; Bu; ...; B^4 u] from
    one product with [I; B; ...; B^4], writing samples 1.. into `us` and
    `pivots`; returns the switch times.  The one skip rule of this loop is
    the countdown of `_steps_clear`: |u|^2, the divergence guard and the
    switch rule run only on the steps that it leaves open."""
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
    # |B|_2 <= sqrt(|B|_1 |B|_inf), the largest row sum of |B| (H Hermitian)
    steps_clear = _steps_clear(float(np.abs(B).sum(axis=1).max()), usq_switch, n)
    # bound `ndarray.dot` methods of the fixed left operands (see the
    # module docstring)
    fill, combine, vdot = powers.dot, w.dot, np.vdot
    switch_times = []

    k = check_at = 1
    for step in range(1, grid.n_steps + 1):
        fill(u, k_all)
        w[...] = rk4_weights(*s.tolist())
        combine(K, u)  # u_new = sum_j w_j B^j u
        u[pivot] = 1.0  # the exact step keeps it at 1; rounding may not
        if step >= check_at:
            usq = vdot(u, u).real
            if not usq < _NSQ_GUARD:
                raise NumericFailure("non-finite chart coordinates", step)
            if usq > usq_switch and (hop := _hop(u, pivot)):
                pivot = hop[0]
                s = K[1:, pivot]
                switch_times.append(step * grid.dt)
                usq = vdot(u, u).real
            # past the level the countdown is 0
            check_at = step + 1 if usq > usq_switch else step + 1 + steps_clear(usq)
        if step == samples[k]:
            us[k], pivots[k] = u, pivot
            k += 1
    return switch_times


def _spectral_steps(lam, V, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """`_stacked_steps` in the coordinates q = V^H u of H = V diag(lam) V^H,
    where B^j is the diagonal z^j, z = -i dt lam.  u = V q is formed only to
    sample it or to probe for a switch.

    The one skip rule of this loop is the probe distance: after every step
    it tests whether q may have moved far enough from q0, the q at which u
    was last formed, for a probe to switch (`_probe_slack`).  Only a step
    that fails the test forms |u|^2 = |q|^2, runs the divergence guard and
    probes when |u|^2 is past the level.  A step that passes needs none of
    them: slack > 0 needs 8 N eps |u0| < 1, so |q| <= |q0| + slack stays
    finite and far below `_NSQ_GUARD`, a NaN in q fails the test, which is
    written `not dsq < slack^2` for that reason, and a probe would keep the
    pivot and leave q as it is."""
    n = u.size
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
    # bound `ndarray.dot` methods; a switch refills P in place, so its
    # method stays bound to the current pivot row
    pivot_entries, combine, form_u, vdot = P.dot, w.dot, V.dot, np.vdot
    switch_times = []

    k = 1
    for step in range(1, grid.n_steps + 1):
        pivot_entries(q, p)
        c, s1, s2, s3, s4 = p.tolist()
        # the weights of u / u_p, whose pivot entry is 1, scaled by 1 / u_p:
        # the new u has pivot entry 1 up to rounding, and the next step
        # divides that rounding out again
        r = 1.0 / c
        w0, w1, w2, w3, w4 = rk4_weights(s1 * r, s2 * r, s3 * r, s4 * r)
        w[...] = (w0 * r, w1 * r, w2 * r, w3 * r, w4 * r)
        combine(Z, g)
        q *= g  # u_new = sum_j w_j B^j u / u_p
        probe = False
        np.subtract(q, q0, out=dq)
        if not slack > 0.0 or not vdot(dq, dq).real < slack * slack:
            usq = vdot(q, q).real  # |u|^2, V being unitary
            if not usq < _NSQ_GUARD:
                raise NumericFailure("non-finite chart coordinates", step)
            probe = usq > usq_switch
        if probe or step == samples[k]:
            form_u(q, u)
            u[pivot] = 1.0
            if probe and (hop := _hop(u, pivot)):
                pivot, scale = hop
                q /= scale
                np.multiply(Z, V[pivot], out=P)
                switch_times.append(step * grid.dt)
            q0[:] = q
            slack = _probe_slack(u, pivot, mag)
            if step == samples[k]:
                us[k], pivots[k] = u, pivot
                k += 1
    return switch_times


def _steps_clear(beta: float, level: float, n: int):
    """The countdown of the stacked loop: a function that maps an exact
    |u|^2 = usq after a step to the number m of following steps whose |u|
    provably stays below the switch radius nu = sqrt(`level`), so that
    those steps need neither |u|^2 nor the divergence guard nor the switch
    rule.  With rho from `_growth_bound`, m is the largest with
    rho^m |u| <= nu (1 - 1e-12 - N eps), 0 for usq > `level`.  The N eps
    covers the rounding of `np.vdot` in usq, and the 1e-12 that of the
    logarithms and the quotient below (at most about 2,000 eps, as
    |log nu| <= 346); the rounding of the steps themselves compounds, so
    it is in rho.  Every step checks (m = 0) where rho is no finite bound.
    The arithmetic is in Python floats, so an overflow gives inf rather
    than a numpy warning.
    """
    rho = _growth_bound(beta, level)
    if not 1.0 < rho < math.inf:
        return lambda usq: 0
    log_reach = math.log(math.sqrt(level) * (1.0 - 1e-12 - n * _EPS))
    per_step = 1.0 / math.log(rho)
    return lambda usq: max(0, int((log_reach - 0.5 * math.log(usq)) * per_step))


def _growth_bound(beta: float, level: float) -> float:
    """A factor rho with |u_new| <= rho |u| for one stacked step from any u
    with u[pivot] = 1 and |u| <= nu = sqrt(`level`), for beta >= |B|_2; inf
    where no finite bound applies.

    |s_j| = |(B^j u)[pivot]| <= beta^j |u|.  Fed the negated bounds
    -beta^j nu, every intermediate of the `rk4_weights` recurrence is >= 0
    and bounds the modulus of its counterpart (each is a sum of products of
    earlier ones), so the returned W_j >= |w_j| while |u| <= nu, and

        |u_new| = |sum_j w_j B^j u| <= rho |u|,   rho = sum_j W_j beta^j.

    rho is raised by `_STEP_ROUNDING` = 1e-10 for the rounding of a step:
    that of the fill, the combine and the pivot reset (a few N eps |u|
    each, about N^1.5 eps for the fill at N <= `_STACK_MAX_N`), of the
    rounded powers of B and of beta (N eps each) and of the evaluation of
    W and rho (a few dozen eps).

    inf where beta is not in [0, 1) (a step past the RK4 stability bound);
    rho overflows to inf, in Python floats, for a huge switch radius.  No
    `**`, which raises on overflow.
    """
    if not 0.0 <= beta < 1.0:
        return math.inf
    nu = math.sqrt(level)
    b2 = beta * beta
    b3, b4 = b2 * beta, b2 * b2
    w0, w1, w2, w3, w4 = rk4_weights(-beta * nu, -b2 * nu, -b3 * nu, -b4 * nu)
    bound = w0 + w1 * beta + w2 * b2 + w3 * b3 + w4 * b4
    return (1.0 + _STEP_ROUNDING) * bound


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
    norm = float(np.sqrt(mag.dot(mag)))
    mag[pivot] = 0.0
    return 1.0 - float(mag.max()) - 8 * u.size * _EPS * norm
