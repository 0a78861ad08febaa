"""Independent numerical oracles used by the test suite.

These deliberately avoid the analytic formulas they are checking: the
Hessian oracle differentiates the Kahler potential by central differences,
the gradient oracle differentiates the scalar Hamiltonian, and the
chart-velocity oracle applies the quotient rule to the Schrodinger
right-hand side.  The RK4 oracle evaluates the four stages one by one,
against the Krylov form the package integrates with.
"""

import numpy as np

from cpdyn.chart import ChartPoint, normalization
from cpdyn.flow import classical_hamiltonian

FD_STEP = 1e-5


def fd_kahler_hessian(point: ChartPoint, h: float = FD_STEP) -> np.ndarray:
    """Wirtinger Hessian d^2 K / dx^j dxbar^k of K = log(nfac) by central
    finite differences.

    Uses increments of K computed as log1p(delta_nfac/nfac), which keeps the
    second-difference cancellation noise at the 1e-11 level for h = 1e-5
    (raw K evaluations would leave ~1e-6 noise after dividing by h^2).
    """
    x = np.asarray(point.coords)
    m = x.size
    nfac = normalization(point)

    def k_increment(delta: np.ndarray) -> float:
        # nfac(x + delta) - nfac(x), expanded exactly
        dn = 2.0 * np.vdot(x, delta).real + np.vdot(delta, delta).real
        return float(np.log1p(dn / nfac))

    def second(da: np.ndarray, db: np.ndarray) -> float:
        if np.array_equal(da, db):
            return (k_increment(da) + k_increment(-da)) / np.vdot(da, da).real
        plus = k_increment(da + db) + k_increment(-da - db)
        minus = k_increment(da - db) + k_increment(-da + db)
        h2 = np.sqrt(np.vdot(da, da).real * np.vdot(db, db).real)
        return (plus - minus) / (4.0 * h2)

    def unit(j: int, imag: bool) -> np.ndarray:
        e = np.zeros(m, dtype=complex)
        e[j] = 1j * h if imag else h
        return e

    hess = np.empty((m, m), dtype=complex)
    for j in range(m):
        for k in range(m):
            k_uu = second(unit(j, False), unit(k, False))
            k_vv = second(unit(j, True), unit(k, True))
            k_uv = second(unit(j, False), unit(k, True))
            k_vu = second(unit(j, True), unit(k, False))
            hess[j, k] = 0.25 * (k_uu + k_vv + 1j * (k_uv - k_vu))
    return hess


def fd_grad_conj(H: np.ndarray, point: ChartPoint, h: float = FD_STEP) -> np.ndarray:
    """d h0 / dxbar^k by central Wirtinger differences of the scalar
    Hamiltonian: (d/du_k + i d/dv_k) h0 / 2."""
    x = np.asarray(point.coords)
    m = x.size

    def h0_at(coords: np.ndarray) -> float:
        return classical_hamiltonian(H, ChartPoint(pivot=point.pivot, coords=coords))

    grad = np.empty(m, dtype=complex)
    for k in range(m):
        e = np.zeros(m, dtype=complex)
        e[k] = h
        d_real = (h0_at(x + e) - h0_at(x - e)) / (2.0 * h)
        e[k] = 1j * h
        d_imag = (h0_at(x + e) - h0_at(x - e)) / (2.0 * h)
        grad[k] = 0.5 * (d_real + 1j * d_imag)
    return grad


def quotient_rule_velocity(H: np.ndarray, psi: np.ndarray, pivot: int) -> np.ndarray:
    """d/dt of the chart coordinates a^j/a^pivot along dpsi/dt = -iH psi."""
    psi = np.asarray(psi, dtype=complex)
    dpsi = -1j * (np.asarray(H) @ psi)
    sel = [i for i in range(psi.size) if i != pivot]
    p = psi[pivot]
    return (dpsi[sel] * p - psi[sel] * dpsi[pivot]) / (p * p)


def rk4_step(f, y: np.ndarray, dt: float) -> np.ndarray:
    """One classical 4th-order Runge-Kutta step of dy/dt = f(y), stage by
    stage."""
    half = dt / 2.0
    k1 = f(y)
    k2 = f(y + half * k1)
    k3 = f(y + half * k2)
    k4 = f(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)


def _rhs(H: np.ndarray, u: np.ndarray, pivot: int) -> np.ndarray:
    """Projective Schrodinger right-hand side on the homogeneous vector u
    (u[pivot] == 1): du/dt = -i (Hu - (Hu)[pivot] u).  Its pivot component
    is exactly 0."""
    hu = H @ u
    return -1j * (hu - hu[pivot] * u)


def count_zero_crossings(values: np.ndarray) -> int:
    """Sign changes between consecutive samples (exact zeros break ties to
    the following sample)."""
    v = np.asarray(values)
    sign = np.sign(v)
    # propagate the previous sign through exact zeros
    for i in range(1, sign.size):
        if sign[i] == 0:
            sign[i] = sign[i - 1]
    return int(np.sum(sign[1:] * sign[:-1] < 0))
