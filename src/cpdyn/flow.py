r"""Classical Hamiltonian flow on CP^{N-1} equivalent to Schrodinger evolution.

The scalar Hamiltonian is the expectation value of the quantum operator in
chart coordinates,

    h0(x) = <psi|H|psi> = D / nfac,   D = u^dag H u,

with u the homogeneous representative (1 inserted at the pivot).  Hamilton's
equations contract the conjugate-coordinate gradient with the inverse
symplectic form:

    dx^j/dt = -i nfac sum_k (delta_{jk} + x^j xbar^k) dh0/dxbar^k.

The N quantum amplitude equations reduce to these N-1 complex ODEs.  The
integrator is fixed-step RK4 (the Kahler geometry admits no standard
symplectic splitting here; energy drift is recorded as the quality signal)
and hops to a better-anchored chart whenever the implied pivot amplitude
1/sqrt(nfac) falls below a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chart import ChartPoint, from_chart, normalization, select_pivot, transition
from .observables import energy
from .pauli import require_hermitian
from .quantum import NumericFailure, TimeGrid

__all__ = [
    "FlowSettings",
    "ClassicalTrajectory",
    "classical_hamiltonian",
    "grad_conj",
    "hamilton_rhs",
    "integrate_classical",
]

# Guard against runaway coordinates when no chart switching is configured.
_NSQ_GUARD = 1e300


@dataclass(frozen=True)
class FlowSettings:
    """Classical-integrator knobs.

    `dt` overrides the grid step when set (it must divide the grid step, so
    samples stay aligned); `switch_threshold` is the pivot-amplitude modulus
    below which the integrator changes chart.
    """

    dt: float | None = None
    switch_threshold: float = 0.2

    def __post_init__(self):
        if self.dt is not None and not (self.dt > 0 and math.isfinite(self.dt)):
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if not 0.0 < self.switch_threshold < 1.0:
            raise ValueError(
                f"switch_threshold must lie in (0, 1), got {self.switch_threshold}"
            )


@dataclass
class ClassicalTrajectory:
    """Sampled chart-coordinate flow.

    `coords[k]` (length N-1) lives in the chart anchored at `pivots[k]`;
    `energies[k]` is h0 there and `n_switches_cum[k]` counts chart switches
    up to and including that sample time.
    """

    times: np.ndarray
    coords: np.ndarray
    pivots: np.ndarray
    energies: np.ndarray
    n_switches_cum: np.ndarray = field(repr=False)
    switch_times: np.ndarray = field(repr=False)

    @property
    def dimension(self) -> int:
        return self.coords.shape[1] + 1

    @property
    def n_switches(self) -> int:
        return len(self.switch_times)

    def point(self, k: int) -> ChartPoint:
        return ChartPoint(pivot=int(self.pivots[k]), coords=self.coords[k])

    def states(self) -> np.ndarray:
        """(S, N) unit states: `from_chart` applied to every sample at once."""
        x = self.coords
        at_pivot = np.arange(self.dimension) == self.pivots[:, None]
        u = np.ones(at_pivot.shape, dtype=complex)
        u[~at_pivot] = x.ravel()
        nfac = 1.0 + np.sum(x.real**2 + x.imag**2, axis=1)
        return u / np.sqrt(nfac)[:, None]


def _pivot_last(H: np.ndarray, pivot: int):
    """Static per-chart data: H in the basis order (non-pivot..., pivot).

    Returns (A, b) with A the N x (N-1) block acting on the chart
    coordinates and b the column belonging to the pivot slot; rows follow
    the same (non-pivot..., pivot) order.
    """
    n = H.shape[0]
    order = [i for i in range(n) if i != pivot] + [pivot]
    Hp = H[np.ix_(order, order)]
    return np.ascontiguousarray(Hp[:, :-1]), np.ascontiguousarray(Hp[:, -1])


def _rhs(A: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Hamilton right-hand side in one chart, pivot ordered last.

    Evaluates the contraction -i nfac (g + x <x, g>) of the inverse
    symplectic form with g_k = ((Hu)_k nfac - D x_k)/nfac^2, with g and
    <x, g> eliminated symbolically (the nfac factors cancel exactly):

        <x, g> = (<x, hk> - D (nfac - 1)/nfac) / nfac
        dx     = -i (hk + (<x, hk> - D) x)

    which is the same expression with fewer rounding steps.
    """
    hu = A @ x
    hu += b
    hk = hu[:-1]
    w = np.vdot(x, hk)
    d = (w + hu[-1]).real
    return -1j * (hk + (w - d) * x)


def classical_hamiltonian(H: np.ndarray, point: ChartPoint) -> float:
    """h0 = <psi|H|psi> evaluated in chart coordinates as D/nfac.

    The value is computed as a complex number first; a residual imaginary
    part above 1e-10 means H was not Hermitian, so it raises rather than
    being silently discarded.
    """
    H = np.asarray(H)
    if H.shape[0] != point.dimension:
        raise ValueError(
            f"dimension mismatch: H is {H.shape}, chart point has "
            f"dimension {point.dimension}"
        )
    u = point.homogeneous()
    d = np.vdot(u, H @ u)
    if abs(d.imag) > 1e-10:
        raise ValueError(
            f"expectation value has imaginary part {d.imag:.3e}; "
            "Hamiltonian is not Hermitian"
        )
    return d.real / normalization(point)


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
    nfac = 1.0 + np.vdot(x, x).real
    d = np.vdot(u, hu).real
    hk = np.delete(hu, point.pivot)
    return (hk * nfac - d * x) / nfac**2


def hamilton_rhs(H: np.ndarray, point: ChartPoint) -> np.ndarray:
    """dx/dt: the inverse symplectic form contracted with grad_conj,

        dx^j/dt = -i nfac [ g_j + x^j sum_k xbar^k g_k ],  g = grad_conj.

    The integrator uses an algebraically identical reduction (`_rhs`).
    """
    x = point.coords
    g = grad_conj(H, point)
    nfac = 1.0 + np.vdot(x, x).real
    return (-1j * nfac) * (g + x * np.vdot(x, g))


def integrate_classical(
    H: np.ndarray,
    point0: ChartPoint,
    grid: TimeGrid,
    settings: FlowSettings | None = None,
) -> ClassicalTrajectory:
    """Fixed-step RK4 on hamilton_rhs with automatic chart switching.

    After every step, if the implied pivot amplitude 1/sqrt(nfac) has
    dropped below settings.switch_threshold, the state hops to the chart
    anchored at the maximum-modulus amplitude and integration continues.
    Chart switches happen between steps, never inside RK4 stages.  Raises
    NumericFailure on the first non-finite step.
    """
    settings = settings or FlowSettings()
    H = require_hermitian(H, tol=1e-10)
    if H.shape[0] != point0.dimension:
        raise ValueError(
            f"dimension mismatch: H is {H.shape}, initial point has "
            f"dimension {point0.dimension}"
        )

    dt = grid.dt if settings.dt is None else settings.dt
    n_sub = 1
    if settings.dt is not None:
        n_sub = max(1, round(grid.dt / settings.dt))
        if abs(grid.dt - n_sub * settings.dt) > 1e-12 * grid.dt:
            raise ValueError(
                f"flow dt {settings.dt} does not divide grid dt {grid.dt}"
            )

    # switch when nfac - 1 = sum|x|^2 exceeds 1/threshold^2 - 1
    nsq_switch = 1.0 / settings.switch_threshold**2 - 1.0

    pivot = point0.pivot
    x = np.array(point0.coords, dtype=complex)
    A, b = _pivot_last(H, pivot)

    half, sixth = dt / 2.0, dt / 6.0
    sample_at = set(grid.sample_indices().tolist())
    times, coords, pivots, cum = [], [], [], []
    switch_times: list[float] = []

    def record(step: int):
        times.append(step * grid.dt)
        coords.append(x.copy())
        pivots.append(pivot)
        cum.append(len(switch_times))

    if 0 in sample_at:
        record(0)
    for step in range(1, grid.n_steps + 1):
        for sub in range(n_sub):
            k1 = _rhs(A, b, x)
            k2 = _rhs(A, b, x + half * k1)
            k3 = _rhs(A, b, x + half * k2)
            k4 = _rhs(A, b, x + dt * k3)
            x = x + sixth * (k1 + 2.0 * (k2 + k3) + k4)
            nsq = np.vdot(x, x).real
            if not nsq < _NSQ_GUARD:
                raise NumericFailure("non-finite chart coordinates", step)
            if nsq > nsq_switch:
                pt = ChartPoint(pivot=pivot, coords=x)
                new_pivot = select_pivot(from_chart(pt))
                if new_pivot != pivot:
                    pt = transition(pt, new_pivot)
                    pivot = new_pivot
                    x = np.array(pt.coords)
                    A, b = _pivot_last(H, pivot)
                    switch_times.append((step - 1) * grid.dt + (sub + 1) * dt)
        if step in sample_at:
            record(step)

    traj = ClassicalTrajectory(
        times=np.asarray(times),
        coords=np.asarray(coords),
        pivots=np.asarray(pivots, dtype=int),
        energies=np.empty(0),
        n_switches_cum=np.asarray(cum, dtype=int),
        switch_times=np.asarray(switch_times),
    )
    traj.energies = energy(H, traj.states())
    return traj
