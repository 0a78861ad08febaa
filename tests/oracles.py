"""Independent numerical oracles used by the test suite.

These deliberately avoid the analytic formulas they are checking: the
Hessian oracle differentiates the Kahler potential by central differences,
the gradient oracle differentiates the scalar Hamiltonian, and the
chart-velocity oracle applies the quotient rule to the Schrodinger
right-hand side.  The RK4 oracle evaluates the four stages one by one,
against the Krylov form the package integrates with.  The propagator
oracle sums the Taylor series of exp(-iHt), so it shares no
eigendecomposition with the spectral routes it checks.

`rk4_weights_reference`, `integrate_classical_reference` and
`evolve_rk4_reference` are the Krylov-form weight recurrence and the two
RK4 loops in plain form, every coefficient and array computed afresh, on
both step paths of the classical flow.  `build_hamiltonian_reference`
sums the dense Kronecker products of each Pauli term's 2x2 matrices.  The
package's buffered loops, folded recurrence and signed-permutation build
must reproduce them bit for bit.  `require_hermitian_reference` judges H
against the whole of H^dag at once; the package's test by blocks, over
one triangle, must make the same decision with the same message.
"""

import math
from functools import reduce

import numpy as np

from cpdyn.chart import ChartPoint, normalization, select_pivot
from cpdyn.flow import (
    _NSQ_GUARD,
    _STACK_MAX_N,
    ClassicalTrajectory,
    FlowSettings,
)
from cpdyn.observables import energy
from cpdyn.pauli import (
    HERMITIAN_RTOL,
    MAX_QUBITS,
    MixedLabelLengthError,
    PauliTerm,
    require_hermitian,
    require_numbers,
)
from cpdyn.quantum import (
    NumericFailure,
    QuantumTrajectory,
    TimeGrid,
    make_state,
    rk4_weights,
)

FD_STEP = 1e-5
EPS = np.finfo(float).eps

PAULI_MATRICES = {
    "I": np.array([[1, 0], [0, 1]], dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def fd_kahler_hessian(point: ChartPoint, h: float = FD_STEP) -> np.ndarray:
    """Wirtinger Hessian d^2 K / dx^j dxbar^k of K = log(nfac) by central
    finite differences.

    Uses increments of K computed as log1p(delta_nfac/nfac), which keeps the
    second-difference cancellation noise at the 1e-11 level for h = 1e-5
    (raw K evaluations would leave ~1e-6 noise after dividing by h^2).

    Every stencil is one array operation.  With steps e[a, j] = h e_j
    (a = 0) and i h e_j (a = 1), the second difference along d = e[a, j]
    and d' = e[b, k] is [K(d + d') + K(-d - d') - K(d - d') - K(d' - d)]
    / 4h^2, and along d twice it is [K(d) + K(-d)] / h^2.
    """
    x = np.asarray(point.coords)
    m = x.size
    nfac = normalization(point)

    def k_increment(delta: np.ndarray) -> np.ndarray:
        # nfac(x + delta) - nfac(x) over the last axis, expanded exactly
        dn = 2.0 * (delta @ x.conj()).real + np.sum(delta.real**2 + delta.imag**2, axis=-1)
        return np.log1p(dn / nfac)

    steps = h * np.stack([np.eye(m), 1j * np.eye(m)])  # steps[a, j]
    da, db = steps[:, None, :, None], steps[None, :, None, :]
    plus = k_increment(da + db) + k_increment(-da - db)
    minus = k_increment(da - db) + k_increment(db - da)
    second = (plus - minus) / (4.0 * h * h)  # second[a, b, j, k]
    diag = np.arange(m)
    for a in (0, 1):
        second[a, a, diag, diag] = (
            k_increment(steps[a]) + k_increment(-steps[a])
        ) / (h * h)
    return 0.25 * (second[0, 0] + second[1, 1] + 1j * (second[0, 1] - second[1, 0]))


def fd_grad_conj(H: np.ndarray, point: ChartPoint, h: float = FD_STEP) -> np.ndarray:
    """d h0 / dxbar^k by central Wirtinger differences of the scalar
    Hamiltonian: (d/du_k + i d/dv_k) h0 / 2, with h0 = energy(H, U) / |U|^2
    over one stack U of the displaced homogeneous vectors."""
    u = point.homogeneous()
    off = np.delete(np.arange(u.size), point.pivot)
    steps = np.zeros((2, off.size, u.size), dtype=complex)  # h e_k, i h e_k
    steps[0, np.arange(off.size), off] = h
    steps[1, np.arange(off.size), off] = 1j * h
    U = u + np.stack([steps, -steps])
    h0 = energy(H, U) / np.sum(U.real**2 + U.imag**2, axis=-1)
    d = (h0[0] - h0[1]) / (2.0 * h)
    return 0.5 * (d[0] + 1j * d[1])


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


def taylor_expm_reference(H: np.ndarray, psi0: np.ndarray, times) -> np.ndarray:
    """Rows exp(-iHt) psi0 at the increasing `times`, from no
    eigendecomposition: each gap between two times is cut into substeps h
    with h ||H||_1 <= 1, and each substep sums the Taylor series of
    exp(-iHh) psi until a term is below eps times the sum in the 1-norm;
    the terms after it shrink by at least 1/j each, so they add less than
    that again (Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 2011)."""
    norm = np.abs(H).sum(axis=0).max()
    psi, t0, rows = np.array(psi0, dtype=complex), 0.0, []
    for t in times:
        substeps = max(1, math.ceil((t - t0) * norm))
        h = (t - t0) / substeps
        for _ in range(substeps):
            term, j = psi, 0
            while np.abs(term).sum() > EPS * np.abs(psi).sum():
                j += 1
                term = (-1j * h / j) * (H @ term)
                psi = psi + term
        rows.append(psi)
        t0 = t
    return np.array(rows)


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


def rk4_weights_reference(s1, s2, s3, s4) -> tuple:
    """`quantum.rk4_weights` with every coefficient of the stage recurrence
    computed, the known constants included."""
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
        1.0 + (a0 + 2.0 * (b0 + c0) + e0) / 6.0,
        (a1 + 2.0 * (b1 + c1) + e1) / 6.0,
        (2.0 * (b2 + c2) + e2) / 6.0,
        (2.0 * c3 + e3) / 6.0,
        e4 / 6.0,
    )


def _stacked_powers_reference(H: np.ndarray, dt: float) -> np.ndarray:
    """The stack [I; B; B^2; B^3; B^4] of B = -i dt H."""
    B = np.multiply(-1j * dt, H)
    B2 = np.matmul(B, B)
    return np.concatenate([np.eye(len(H)), B, B2, np.matmul(B, B2), np.matmul(B2, B2)])


def _stacked_step_reference(powers: np.ndarray, u: np.ndarray, pivot: int) -> np.ndarray:
    """u_new for one Krylov-form RK4 step, with a fresh K = [u; Bu; ...;
    B^4 u] from one stack product, then w . K."""
    K = np.matmul(powers, u).reshape(5, u.size)
    return np.dot(np.array(rk4_weights_reference(*K[1:, pivot].tolist())), K)


def _spectral_basis_reference(H: np.ndarray, dt: float) -> tuple:
    """(Z, V) for H = V diag(lam) V^H: row j of Z is z^j, z = -i dt lam,
    each power one product more than the last."""
    lam, V = np.linalg.eigh(H)
    z = (-1j * dt) * lam
    rows = [np.ones(lam.size, dtype=complex), z]
    for _ in range(3):
        rows.append(rows[-1] * z)
    return np.array(rows), V


def _spectral_step_reference(Z: np.ndarray, V: np.ndarray, q: np.ndarray,
                             pivot: int) -> np.ndarray:
    """q_new for one Krylov-form RK4 step in the coordinates q = V^H u: the
    weights of u / u_p from s_j / u_p, each divided by u_p, applied as the
    diagonal sum_j w_j z^j."""
    c, s1, s2, s3, s4 = ((Z * V[pivot]) @ q).tolist()
    r = 1.0 / c
    w = np.array([wj * r for wj in rk4_weights_reference(s1 * r, s2 * r, s3 * r, s4 * r)])
    return q * (w @ Z)


def integrate_classical_reference(H: np.ndarray, point0: ChartPoint, grid: TimeGrid,
                                  settings: FlowSettings | None = None) -> ClassicalTrajectory:
    """`flow.integrate_classical` written as a plain per-step loop, with
    the switch rule applied before the first step and after every step.
    Above `_STACK_MAX_N` the state is q, and u = V q is formed only to
    probe for a switch or to sample, as the integrator does."""
    settings = settings or FlowSettings()
    n = point0.dimension
    H = require_hermitian(H)
    usq_switch = 1.0 / settings.switch_threshold**2
    spectral = n > _STACK_MAX_N
    u = np.array(point0.homogeneous(), dtype=complex)
    pivot, switch_times = point0.pivot, []
    # the switch rule before the first step, in the computational basis
    if np.vdot(u, u).real > usq_switch:
        new_pivot = select_pivot(u)
        if new_pivot != pivot:
            u = u / u[new_pivot]
            u[new_pivot] = 1.0
            pivot = new_pivot
            switch_times.append(0.0)
    if spectral:
        Z, V = _spectral_basis_reference(H, grid.dt)
        q = V.conj().T @ u
    else:
        powers = _stacked_powers_reference(H, grid.dt)

    samples = set(grid.sample_indices().tolist())
    us, pivots = [u], [pivot]
    for step in range(1, grid.n_steps + 1):
        if spectral:
            q = _spectral_step_reference(Z, V, q, pivot)
            usq = np.vdot(q, q).real
        else:
            u = _stacked_step_reference(powers, u, pivot)
            u[pivot] = 1.0
            usq = np.vdot(u, u).real
        if not usq < _NSQ_GUARD:
            raise NumericFailure("non-finite chart coordinates", step)
        if spectral and (usq > usq_switch or step in samples):
            u = V @ q
            u[pivot] = 1.0
        if usq > usq_switch:
            new_pivot = select_pivot(u)
            if new_pivot != pivot:
                scale = u[new_pivot]
                u = u / scale
                u[new_pivot] = 1.0
                if spectral:
                    q = q / scale
                pivot = new_pivot
                switch_times.append(step * grid.dt)
        if step in samples:
            us.append(u)
            pivots.append(pivot)

    return ClassicalTrajectory(
        times=grid.sample_times(),
        u=np.array(us),
        pivots=np.array(pivots),
        switch_times=np.asarray(switch_times),
    )


def tensor_term_reference(term: PauliTerm) -> np.ndarray:
    """Coefficient times the Kronecker product of the term's 2x2 matrices."""
    if term.n_qubits > MAX_QUBITS:
        raise ValueError(
            f"term acts on {term.n_qubits} qubits, above the dense-matrix cap "
            f"of {MAX_QUBITS}"
        )
    mat = reduce(np.kron, (PAULI_MATRICES[s] for s in term.labels))
    return term.coefficient * mat


def build_hamiltonian_reference(terms: list[PauliTerm]) -> np.ndarray:
    """`pauli.build_hamiltonian` as the sum of dense Kronecker products."""
    if not terms:
        raise ValueError("cannot build a Hamiltonian from zero terms")
    lengths = {t.n_qubits for t in terms}
    if len(lengths) > 1:
        raise MixedLabelLengthError(
            f"terms act on different qubit counts {sorted(lengths)}"
        )
    dim = 2 ** terms[0].n_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for t in terms:
        out += tensor_term_reference(t)
    return out


def require_hermitian_reference(H: np.ndarray) -> np.ndarray:
    """`pauli.require_hermitian` with H^dag, H - H^dag and |H| formed whole."""
    H = require_numbers("operator entries", H)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ValueError(f"operator must be a square matrix, got shape {H.shape}")
    if H.shape[0] < 2:
        raise ValueError("operator dimension must be at least 2")
    H_dag = H.conj().T
    if np.array_equal(H, H_dag):
        return H
    dev = np.max(np.abs(H - H_dag))
    bound = HERMITIAN_RTOL * EPS * H.shape[0] * np.max(np.abs(H))
    if dev > bound:
        raise ValueError(
            f"operator is not Hermitian: max|H - H^dag| = {dev:.3e} exceeds "
            f"{bound:.3e}"
        )
    return H


def evolve_rk4_reference(H: np.ndarray, psi0: np.ndarray, grid: TimeGrid) -> QuantumTrajectory:
    """`quantum.evolve_rk4` with a fresh increment array in each step."""
    psi = np.array(make_state(psi0))
    H = require_hermitian(H)

    _, w1, w2, w3, w4 = rk4_weights(0.0, 0.0, 0.0, 0.0)
    B = (-1j * grid.dt) * H
    eye = np.eye(psi.size)
    D = B @ (w1 * eye + B @ (w2 * eye + B @ (w3 * eye + w4 * B)))

    samples = set(grid.sample_indices().tolist())
    states = [psi.copy()]
    for step in range(1, grid.n_steps + 1):
        psi += D @ psi
        if not np.vdot(psi, psi).real < np.inf:  # catches NaN (comparison false) and Inf
            raise NumericFailure("non-finite state in RK4", step)
        if step in samples:
            states.append(psi.copy())
    return QuantumTrajectory(times=grid.sample_times(), states=np.array(states))
