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

* Up to `_STACK_MAX_N` (`_stacked_steps`) one product with the stacked
  matrix [I; B; B^2; B^3; B^4], built once per run, fills
  K = [u; Bu; ...; B^4 u], and the new state is w . K: 5N^2 multiply-adds.
* Above it (`_spectral_steps`) the run steps the coordinates q = V^H u of
  H = V diag(lam) V^H, in which B^j is the diagonal z^j, z = -i dt lam.
  One (5, N) product gives u[pivot] and the s_j, and the step is
  q *= sum_j w_j z^j, with the weights scaled so that the pivot entry
  returns to 1: O(N) per step, plus u = V q (N^2) at samples and probes.
  Each stage still evaluates the projective vector field; only the
  coordinates change.

On either path a step makes three calls: one fill product, `rk4_weights`
and one combine product.  |u|^2, the divergence guard and the switch rule
run only where the loop's one skip rule leaves them open: a running bound
(on |u|, or on how far q has moved), set wherever |u|^2 or u was last
formed and advanced by each step in a few scalar operations, against a
reach fixed there.  `_stacked_steps` with `_growth_bound`, and
`_spectral_steps` with `_watch`, state each rule and its proof.  The
steps that check decide as every step would, so no decision and no bit
depends on the skipping.  CHANGES.md (0.21.0, 0.23.0, 0.31.0, 0.32.0 and
0.33.0) gives the share of steps that form |u|^2, and the formations of
u, on the benchmark's workloads; `tests/probe_cost.py` prints both.

At N = 2..8 a step takes a few microseconds, most of it call overhead.
`tests/probe_cost.py` times the parts of an N = 4 step of `fig4`, each on
its own: the fill product about 0.38 us, the read of the s_j 0.12 us,
`rk4_weights` 1.7 us, the store of the weights 0.26 us and the combine
0.34 us, of 3.2 us per step (2-CPU x86-64 host, Python 3.11, numpy 2.4).
The weights, over half the step, are Python complex arithmetic that only
a loop over many systems at once could batch.  Each product is the `dot`
method of its fixed left operand, bound once per run and called with a
positional `out` buffer (the quantum RK4 step does the same with
D . psi).  `ndarray.dot` reaches the same C routine as `np.dot`, so no
bit changes, without the `__array_function__` dispatcher that `np.dot`
runs in Python on every call on numpy 2.  `np.vdot` stays: it has no
method form, and a real dot of float views, though cheaper, rounds the
last bit of |u|^2 differently from the conjugated complex product, which
could move a switch decision.

Both paths stay because each is the faster one on its side of
`_STACK_MAX_N`: below it the stacked step, which needs no `eigh` and
less scalar work per step, wins while its 5N^2 multiply-adds are cheap,
and above it the O(N) eigen-coordinate step wins.  The measurements
behind the threshold are in CHANGES.md (0.17.0 for the step forced at
every N, 0.20.0 for the crossover).  `eigh` is O(N^3), paid at most once
per run.  A step allocates no array: the stack and every work buffer are
built once per run.

H enters every function here through `quantum.spectrum(H, N)`, whose rule
`quantum.Spectrum` states.

At t = 0 and after every step the integrator hops to the chart anchored
at the largest |u_i| when the pivot amplitude 1/|u| is below the switch
threshold.  The hop is written once, in `_hop`, and acts on u in the
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
from .pauli import require_real
from .quantum import NumericFailure, Spectrum, TimeGrid, rk4_weights, spectrum

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

# a Python float, so the per-step bound arithmetic of both loops stays in
# Python floats: with the numpy scalar `np.finfo(float).eps` the spectral
# loop took 226-264 ms against 212-220 ms (the `_WATCH` measurement below)
_EPS = float(np.finfo(float).eps)

# Rows of V that the eigen-coordinate loop watches between formations of
# u = V q: those at the largest moduli of u other than the pivot's
# (`_watch`).  `integrate_classical` over the 12 seed 1-3 high-dim
# documents (N = 256, 2,000 steps each, best of 5 per document, 2-CPU
# x86-64 host, numpy 2.4) took in all 235 ms with 2 rows, 216 with 4, 213
# with 8 and 240 with 16, against 249-277 ms with the probe distance of
# 0.23.0 formed on every step.
_WATCH = 8

# Relative allowance of both loops' running bounds for the rounding of one
# step, of the bound itself and of the |u|^2 or |q0| it was set from:
# `_growth_bound` raises rho by it, and `_spectral_steps` adds it to each
# increment of dist.  What it covers is at most a few hundred eps (see
# `_stacked_steps`, `_growth_bound` and `_watch`); 1e-10 is about 4.5e5 eps.
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
        threshold = require_real("switch_threshold", self.switch_threshold)
        object.__setattr__(self, "switch_threshold", threshold)
        if not 0.0 < threshold < 1.0:
            raise ValueError(f"switch_threshold must lie in (0, 1), got {threshold}")
        if threshold**2 == 0.0 or self.switch_level >= _NSQ_GUARD:
            raise ValueError(
                f"switch_threshold {threshold} is too small: the switch level "
                f"1/threshold^2 must stay below {_NSQ_GUARD:g}"
            )

    @property
    def switch_level(self) -> float:
        """|u|^2 = 1/threshold^2, in double precision, above which the
        integrator changes chart."""
        return 1.0 / self.switch_threshold**2


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


def classical_hamiltonian(H: np.ndarray | Spectrum, point: ChartPoint) -> float:
    """h0 = <psi|H|psi> evaluated in chart coordinates as D/nfac.

    H enters through `quantum.spectrum`, so a non-Hermitian H, whose D
    would carry an imaginary part that is silently discarded, raises.
    """
    return energy(spectrum(H, point.dimension).H, point)


def grad_conj(H: np.ndarray | Spectrum, point: ChartPoint) -> np.ndarray:
    """Wirtinger gradient dh0/dxbar^k over the non-pivot indices.

    Closed form ((Hu)_k nfac - D x^k)/nfac^2, valid for any dimension and
    pivot choice.  H enters through `quantum.spectrum`.
    """
    H = spectrum(H, point.dimension).H
    x = point.coords
    u = point.homogeneous()
    hu = H @ u
    nfac = normalization(point)
    d = np.vdot(u, hu).real
    hk = np.delete(hu, point.pivot)
    return (hk * nfac - d * x) / nfac**2


def hamilton_rhs(H: np.ndarray | Spectrum, point: ChartPoint) -> np.ndarray:
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
    H: np.ndarray | Spectrum,
    point0: ChartPoint,
    grid: TimeGrid,
    settings: FlowSettings | None = None,
) -> ClassicalTrajectory:
    """Fixed-step RK4 on the homogeneous vector u over `grid` from
    `point0`, with automatic chart switching.

    At t = 0 and after every step, if the implied pivot amplitude 1/|u| is
    below settings.switch_threshold, the state hops to the chart anchored
    at the maximum-modulus amplitude and integration continues.  A hop at
    t = 0 is recorded as a switch at time 0, and sample 0 is taken after
    it.  Chart switches happen between steps, never inside RK4 stages.
    Raises NumericFailure on the first non-finite step.  The trajectory
    is the same bits as with every step checked.  H enters through
    `quantum.spectrum(H, N)` (see `quantum.Spectrum`).
    """
    settings = settings or FlowSettings()
    n = point0.dimension
    spec = spectrum(H, n)
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

    steps = _stacked_steps if n <= _STACK_MAX_N else _spectral_steps
    switch_times += steps(spec, u, pivot, grid, usq_switch, samples, us, pivots)

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


def _stacked_steps(spec, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """Step u from sample 0 over the grid with K = [u; Bu; ...; B^4 u] from
    one product with [I; B; ...; B^4], B = -i dt `spec.H`, writing samples
    1.. into `us` and `pivots`; returns the switch times.

    The one skip rule of this loop is a running bound ub >= |u|: a step
    multiplies ub by rho (`_growth_bound`), and forms |u|^2, runs the
    divergence guard and applies the switch rule only once ub reaches
    nu = sqrt(`usq_switch`); it then resets ub to sqrt(|u|^2), |u|^2
    taken after any hop.  `np.vdot` may round the reset below |u|, and a
    later |u|^2 above its value, by about N eps each; but a tested ub has
    been multiplied by rho at least once since its reset, and
    rho >= 1 + `_STEP_ROUNDING` = 1 + 1e-10 (even for a zero H), which
    exceeds those 2 N eps at N <= `_STACK_MAX_N` with room for the few eps
    of the reset and of ub *= rho.  So a skipped step, ub < nu, would have
    formed |u|^2 below the level and far below `_NSQ_GUARD`: the guard
    would pass and no probe run.  rho bounds a step only from |u| <= nu,
    but a step from ub >= nu leaves ub at or above nu (rho >= 1), so it
    checks and resets ub; this is how a step past the level, where the
    reset leaves ub >= nu, makes the next step check.  Where rho = inf (a
    step past the RK4 stability bound, a huge switch radius) every step
    checks.  ub starts at inf, so step 1 checks."""
    n = u.size
    # built without a numpy warning: a dt H past the float range leaves a
    # power non-finite, and K with it, so step 1 fails
    with np.errstate(over="ignore", invalid="ignore"):
        B = (-1j * grid.dt) * spec.H
        B2 = B @ B
        powers = np.concatenate([np.eye(n), B, B2, B @ B2, B2 @ B2])
    if not np.isfinite(powers).all():
        raise NumericFailure("non-finite chart coordinates", 1)
    # K holds u, Bu, ..., B^4 u; s views the pivot entries of rows 1-4.
    # u is its own buffer: the update reads K.
    K = np.empty((5, n), dtype=complex)
    k_all = K.reshape(5 * n)
    s = K[1:, pivot]
    w = np.empty(5, dtype=complex)
    # |B|_2 <= sqrt(|B|_1 |B|_inf), the largest row sum of |B| (H Hermitian)
    nu = math.sqrt(usq_switch)
    rho = _growth_bound(float(np.abs(B).sum(axis=1).max()), nu)
    # bound `ndarray.dot` methods of the fixed left operands (see the
    # module docstring)
    fill, combine, vdot = powers.dot, w.dot, np.vdot
    switch_times = []

    k, ub = 1, math.inf  # ub >= |u|; step 1 checks
    for step in range(1, grid.n_steps + 1):
        fill(u, k_all)
        s1, s2, s3, s4 = s.tolist()
        w[...] = rk4_weights(s1, s2, s3, s4)
        combine(K, u)  # u_new = sum_j w_j B^j u
        u[pivot] = 1.0  # the exact step keeps it at 1; rounding may not
        ub *= rho
        if not ub < nu:
            usq = vdot(u, u).real
            if not usq < _NSQ_GUARD:
                raise NumericFailure("non-finite chart coordinates", step)
            if usq > usq_switch and (hop := _hop(u, pivot)):
                pivot = hop[0]
                s = K[1:, pivot]
                switch_times.append(step * grid.dt)
                usq = vdot(u, u).real
            ub = math.sqrt(usq)
        if step == samples[k]:
            us[k], pivots[k] = u, pivot
            k += 1
    return switch_times


def _spectral_steps(spec, u, pivot, grid, usq_switch, samples, us, pivots) -> list:
    """`_stacked_steps` in the coordinates q = V^H u of H = V diag(lam) V^H,
    read from `spec`, where B^j is the diagonal z^j, z = -i dt lam.  u = V q
    is formed only to sample it or to probe for a switch.

    The one skip rule of this loop watches for a switch with one running
    bound and a watch list, both set by `_watch` wherever u is formed (at
    t = 0, at samples and at probes), q0 being q there: dist >= |q - q0|,
    which each step advances from its own weights (the increment is
    derived in `_watch`), and the rows W of V at the largest other moduli
    of u0 = V q0, copied to `rows`.  After a step with

    * dist < near, no entry of V q can reach the pivot's 1: nothing more;
    * near <= dist < far, no unwatched entry can: u_W = V[W] q, a (`_WATCH`,
      N) product, decides for the watched ones, and if none is within the
      margin of 1, near is re-based to dist plus that room;
    * else the step forms |u|^2 = |q|^2, runs the divergence guard and
      probes when |u|^2 is past the level.

    A skipped step is one where a probe would keep the pivot and q and the
    guard would pass (`_watch` proves it), so the trajectory is the same
    bits as with every step checked."""
    n, lam, V = u.size, spec.lam, spec.V
    # row j: z^j; non-finite, it fails step 1 as a power does in
    # `_stacked_steps`
    with np.errstate(over="ignore", invalid="ignore"):
        Z = np.vander((-1j * grid.dt) * lam, 5, increasing=True).T.copy()
    if not np.isfinite(Z).all():
        raise NumericFailure("non-finite chart coordinates", 1)
    # zeta^j = max_i |z_i^j| as rounded in Z, in Python floats
    z1, z2, z3, z4 = np.abs(Z[1:]).max(axis=1).tolist()
    # row j of P . q is (B^j u)[pivot]: u_p itself, then s_1..s_4
    P = np.multiply(Z, V[pivot])
    q = V.conj().T @ u
    p = np.empty(5, dtype=complex)
    w = np.empty(5, dtype=complex)
    g = np.empty(n, dtype=complex)
    mag = np.empty(n)
    rows = np.empty((min(_WATCH, n - 1), n), dtype=complex)
    uw = np.empty(len(rows), dtype=complex)
    near, far, reach, q0 = _watch(u, pivot, q, V, mag, rows)
    dist = 0.0
    # bound `ndarray.dot` methods; a switch refills P in place, so its
    # method stays bound to the current pivot row.  The watched rows go
    # through `np.matmul`, a ufunc, which has no Python dispatcher either
    pivot_entries, combine, form_u, vdot = P.dot, w.dot, V.dot, np.vdot
    watched = np.matmul
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
        w0, w1, w2, w3, w4 = w[...] = (w0 * r, w1 * r, w2 * r, w3 * r, w4 * r)
        combine(Z, g)
        q *= g  # u_new = sum_j w_j B^j u / u_p
        # dist += a bound on |q_new - q| (`_watch`)
        spread = abs(w1) * z1 + abs(w2) * z2 + abs(w3) * z3 + abs(w4) * z4
        dist += (abs(w0 - 1.0) + spread + _STEP_ROUNDING * (abs(w0) + spread + 1.0)) * (q0 + dist)
        probe = False
        if not dist < near:
            if dist < far and (top := max(map(abs, watched(rows, q, out=uw).tolist()))) < reach:
                near = min(far, dist + (reach - top))
            else:
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
            near, far, reach, q0 = _watch(u, pivot, q, V, mag, rows)
            dist = 0.0
            if step == samples[k]:
                us[k], pivots[k] = u, pivot
                k += 1
    return switch_times


def _growth_bound(beta: float, nu: float) -> float:
    """A factor rho with |u_new| <= rho |u| for one stacked step from any u
    with u[pivot] = 1 and |u| <= nu, the switch radius, for beta >= |B|_2;
    inf where no finite bound applies.

    |s_j| = |(B^j u)[pivot]| <= beta^j |u|.  Fed the negated bounds
    -beta^j nu, every intermediate of the `rk4_weights` recurrence is >= 0
    and bounds the modulus of its counterpart (each is a sum of products of
    earlier ones), so the returned W_j >= |w_j| while |u| <= nu, and

        |u_new| = |sum_j w_j B^j u| <= rho |u|,   rho = sum_j W_j beta^j.

    rho is raised by `_STEP_ROUNDING` = 1e-10 for the rounding of a step:
    that of the fill, the combine and the pivot reset (a few N eps |u|
    each, about N^1.5 eps for the fill at N <= `_STACK_MAX_N`), of the
    rounded powers of B and of beta (N eps each), of the evaluation of
    W and rho (a few dozen eps) and of the loop's running bound (see
    `_stacked_steps`).  W0 >= 1, so rho >= 1 + 1e-10 whatever beta.

    inf where beta is not in [0, 1) (a step past the RK4 stability bound);
    rho overflows to inf, in Python floats, for a huge switch radius.  No
    `**`, which raises on overflow.
    """
    if not 0.0 <= beta < 1.0:
        return math.inf
    b2 = beta * beta
    b3, b4 = b2 * beta, b2 * b2
    w0, w1, w2, w3, w4 = rk4_weights(-beta * nu, -b2 * nu, -b3 * nu, -b4 * nu)
    bound = w0 + w1 * beta + w2 * b2 + w3 * b3 + w4 * b4
    return (1.0 + _STEP_ROUNDING) * bound


def _watch(u, pivot, q, V, mag, rows) -> tuple:
    """The switch bounds of the eigen-coordinate loop at u0 = u, just formed
    as V q0 from q0 = q (or the initial u, with q0 = V^H u0), u0[pivot] = 1:
    returns (near, far, reach, |q0|) and copies to `rows` the rows of V at
    the len(`rows`) largest moduli of u0 other than the pivot's, the watch
    list W.  |q0| is rounded up, as sqrt(|q0|^2) (1 + N eps), to cover the
    rounding of |q0|^2.  `mag` is an (N,) work buffer.

    A probe forms V q, sets its pivot entry to 1 and keeps the pivot and
    q unless another entry reaches modulus 1.  V being unitary,
    |(V q)_i - (V q0)_i| <= |q - q0| <= dist.  The allowance
    a = 8 N eps |q0| covers the rounding of the product that formed u0 and
    of the one a probe would form (each at most about N eps |q| per entry,
    the rows of V having unit norm, with |q| <= |q0| + 1 while dist < 1),
    of V's orthonormality and of the moduli; reach = 1 - a.  So

    * while dist < near = reach - max_{i != pivot} |u0_i|, no entry
      reaches 1;
    * while dist < far = reach - max |u0_i| over the rows neither watched
      nor the pivot's, no unwatched entry does.  u_W = V[W] q rounds each
      watched entry differently from V q, by about 2 N eps |q| <= a / 2
      between the two, so max |u_W| < reach leaves every watched entry
      below 1 on this step, and on each later one while dist has grown by
      less than reach - max |u_W|: the loop re-bases near to that, at most
      far.

    A step that these rules clear skips |u|^2 and the guard too.  A skip
    needs reach > 0, so |q0| < 1/(8 N eps) where u was formed, about
    2.7e13 at N = 21; and dist < far <= 1 gives |q| <= |q0| + 1.  So
    |u|^2 = |q|^2 stays below about 1e27, far below `_NSQ_GUARD`, and
    finite.  An infinite |q0| gives reach = -inf, and a NaN one a NaN
    reach, which fail both tests, as a non-finite weight, leaving dist
    NaN or inf, does: such a step is checked as every step would be.

    The loop advances dist from the scaled weights w of each step, in
    Python floats.  With zeta_j the largest |z_i^j| as rounded in Z and
    spread = sum_{j >= 1} |w_j| zeta_j, the step multiplies q entrywise by
    g = sum_j w_j z^j, with |g_i - w0| <= spread, and |q| <= |q0| + dist,
    so

        |q_new - q| <= (|w0 - 1| + spread) (|q0| + dist).

    `_STEP_ROUNDING` covers the rest, added to each increment as
    1e-10 (|w0| + spread + 1) (|q0| + dist): the rounding of the combine
    w . Z and of q *= g (about 12 eps (|w0| + spread) |q_i| per entry:
    five complex products and their sum, then one more product), and the
    float arithmetic of dist (a dozen roundings of non-negative terms, at
    most about 12 eps of an increment that, on a step that can skip, is
    below 1, plus eps dist for the sum), which 1e-10 |q0| >= 1e-10 exceeds
    by far (|q0| = |u0| >= 1).  The `+ dist` term is kept for the proof:
    no tested run fails without it, as |w0 - 1| alone makes dist pass
    `far` <= 1 before |q| grows e-fold.
    """
    n = u.size
    q0 = math.sqrt(float(np.vdot(q, q).real)) * (1.0 + n * _EPS)
    reach = 1.0 - 8 * n * _EPS * q0
    np.abs(u, out=mag)
    mag[pivot] = -1.0  # below every modulus, so never watched
    unwatched = n - len(rows) - 1  # mag[order[unwatched]]: the largest unwatched
    order = np.argpartition(mag, unwatched)
    np.take(V, order[unwatched + 1:], axis=0, out=rows)
    near = reach - float(mag.max())
    far = reach - max(0.0, float(mag[order[unwatched]]))
    return near, far, reach, q0
