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
step-scaled right-hand side is Bu - (Bu)[pivot] u, so every RK4 stage lies
in span{u, Bu, ..., B^4 u} and a step is computed exactly from those
vectors: [Bu; B^2 u] is one product with the stacked matrix [B; B^2],
[B^3 u; B^4 u] a second one, and `quantum.rk4_weights` turns their pivot
entries into the weights of the increment.  After a step the integrator
hops to the chart anchored at the largest |u_i|, rescaling u so that
u[new] = 1, whenever the implied pivot amplitude 1/|u| = 1/sqrt(nfac)
falls below a threshold.  The trajectory keeps the sampled u; everything
else it reports (coordinates, nfac = |u|^2, states) is read from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chart import ChartPoint, normalization, select_pivot, to_chart
from .observables import energy
from .pauli import require_hermitian
from .quantum import NumericFailure, TimeGrid, rk4_weights

__all__ = [
    "FlowSettings",
    "ClassicalTrajectory",
    "classical_hamiltonian",
    "grad_conj",
    "hamilton_rhs",
    "integrate_classical",
]

# |u|^2 at or above this (or NaN) after a step means the step diverged;
# chart switching keeps |u|^2 <= N between steps, far below it.
_NSQ_GUARD = 1e300


@dataclass(frozen=True)
class FlowSettings:
    """Classical-integrator knobs: `switch_threshold` is the pivot-amplitude
    modulus below which the integrator changes chart.  The step is the grid
    step; a finer one is a smaller `TimeGrid.dt` with a larger stride.
    """

    switch_threshold: float = 0.2

    def __post_init__(self):
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

    def point(self, k: int) -> ChartPoint:
        return to_chart(self.u[k], int(self.pivots[k]))

    def states(self) -> np.ndarray:
        """(S, N) unit states: `from_chart` applied to every sample at once."""
        return self.u / np.sqrt(self.nfac)[:, None]


def _rk4_increment(M: np.ndarray, K: np.ndarray, pivot: int) -> np.ndarray:
    """u_new - u for one RK4 step of the projective Schrodinger equation

        du/dt = -i (Hu - (Hu)[pivot] u),   u = K[0], u[pivot] == 1.

    M is the stacked (2N, N) matrix [B; B^2], B = -i dt H.  Fills the rows
    K[1:5] of the (5, N) work array with Bu, ..., B^4 u and returns
    sum_j d_j K[j] with the `rk4_weights` of their pivot entries.  The
    pivot component of the increment is 0 up to rounding.
    """
    n = K.shape[1]
    # rows 1-2 and 3-4 of K are contiguous, so both reshapes are views
    np.matmul(M, K[0], out=K[1:3].reshape(2 * n))
    np.matmul(M, K[2], out=K[3:5].reshape(2 * n))
    return np.dot(rk4_weights(*K[1:, pivot].tolist()), K)


def classical_hamiltonian(H: np.ndarray, point: ChartPoint) -> float:
    """h0 = <psi|H|psi> evaluated in chart coordinates as D/nfac.

    H must pass `pauli.require_hermitian`; otherwise D would carry an
    imaginary part that is silently discarded, so it raises instead.
    """
    return energy(require_hermitian(H), point)


def grad_conj(H: np.ndarray, point: ChartPoint) -> np.ndarray:
    """Wirtinger gradient dh0/dxbar^k over the non-pivot indices.

    Closed form ((Hu)_k nfac - D x^k)/nfac^2, valid for any dimension and
    pivot choice.
    """
    H = np.asarray(H)
    if H.shape[0] != point.dimension:
        raise ValueError(
            f"dimension mismatch: H is {H.shape}, chart point has "
            f"dimension {point.dimension}"
        )
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
    that the integrator steps (`_rk4_increment`); the reduction needs
    D = u^dag H u to be real.
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

    After every step, if the implied pivot amplitude 1/|u| has dropped below
    settings.switch_threshold, the state hops to the chart anchored at the
    maximum-modulus amplitude and integration continues.  Chart switches
    happen between steps, never inside RK4 stages.  Raises NumericFailure on
    the first non-finite step.
    """
    settings = settings or FlowSettings()
    H = require_hermitian(H)
    if H.shape[0] != point0.dimension:
        raise ValueError(
            f"dimension mismatch: H is {H.shape}, initial point has "
            f"dimension {point0.dimension}"
        )

    # switch when nfac = |u|^2 exceeds 1/threshold^2
    usq_switch = 1.0 / settings.switch_threshold**2

    pivot = point0.pivot
    n = point0.dimension
    M = np.empty((2 * n, n), dtype=complex)
    np.multiply(-1j * grid.dt, H, out=M[:n])
    np.matmul(M[:n], M[:n], out=M[n:])
    K = np.zeros((5, n), dtype=complex)
    u = K[0]
    u[:] = point0.homogeneous()

    samples = grid.sample_indices().tolist()
    us = np.empty((len(samples), n), dtype=complex)
    pivots = np.empty(len(samples), dtype=int)
    switch_times: list[float] = []

    k = 0
    for step in range(grid.n_steps + 1):
        if step > 0:
            u += _rk4_increment(M, K, pivot)
            u[pivot] = 1.0  # the exact step keeps it at 1; rounding may not
            usq = np.vdot(u, u).real
            if not usq < _NSQ_GUARD:
                raise NumericFailure("non-finite chart coordinates", step)
            if usq > usq_switch:
                new_pivot = select_pivot(u)
                if new_pivot != pivot:
                    u /= u[new_pivot]
                    u[new_pivot] = 1.0
                    pivot = new_pivot
                    switch_times.append(step * grid.dt)
        if step == samples[k]:
            us[k], pivots[k] = u, pivot
            k += 1

    us.setflags(write=False)
    return ClassicalTrajectory(
        times=grid.sample_times(),
        u=us,
        pivots=pivots,
        switch_times=np.asarray(switch_times),
    )
