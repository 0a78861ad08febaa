r"""Affine-chart geometry of the projective state space CP^{N-1}.

A ray through a unit state vector is represented in the chart anchored at a
`pivot` basis index: the N-1 inhomogeneous coordinates are the remaining
amplitudes divided by the pivot amplitude, kept in ascending basis order with
the pivot slot skipped.  The normalization factor

    nfac(x) = 1 + sum_i |x^i|^2

generates everything else: the Kahler potential K = log(nfac), the
Fubini-Study metric g = 2 d^2K/dx dxbar, the symplectic form (i/2) g and its
closed-form inverse -i nfac (delta + x xbar).  Charts anchored at different
pivots describe the same ray; `transition` converts between them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .pauli import require_integer, require_numbers

__all__ = [
    "ZeroPivotError",
    "ChartPoint",
    "PIVOT_FLOOR",
    "select_pivot",
    "to_chart",
    "from_chart",
    "normalization",
    "kahler_potential",
    "fubini_study_metric",
    "symplectic_form",
    "symplectic_inverse",
    "transition",
]

# Below this modulus a divisor is numerically unreliable in double precision.
# It needs no scaling with ||H||, which a chart does not read, nor with N:
# the divisor that `select_pivot` picks from a unit state is at least
# 1/sqrt(N), above the floor for any N below 1e24, so only a pivot that a
# caller names can reach it.
PIVOT_FLOOR = 1e-12


class ZeroPivotError(ValueError):
    """The amplitude selected as chart divisor is (numerically) zero."""


@dataclass(frozen=True)
class ChartPoint:
    """A point of CP^{N-1} in the affine chart anchored at basis index
    `pivot`; `coords` are the N-1 inhomogeneous coordinates in ascending
    basis order with the pivot slot skipped."""

    pivot: int
    coords: np.ndarray

    def __post_init__(self):
        coords = require_numbers("chart coordinates", self.coords, ndim=1).copy()
        if coords.size < 1:
            raise ValueError("a chart point needs at least one coordinate")
        object.__setattr__(self, "pivot", _pivot(self.pivot, coords.size + 1))
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def dimension(self) -> int:
        """Hilbert-space dimension N of the underlying system."""
        return self.coords.size + 1

    def homogeneous(self) -> np.ndarray:
        """Homogeneous representative: coords with 1 inserted at the pivot."""
        return np.insert(self.coords, self.pivot, 1.0)


def _pivot(pivot, n: int) -> int:
    """`pivot` as an int, refused unless it passes `require_integer` and
    lies in 0..n-1."""
    pivot = require_integer("pivot", pivot)
    if not 0 <= pivot < n:
        raise ValueError(f"pivot {pivot} out of range for dimension {n}")
    return pivot


def select_pivot(psi: np.ndarray) -> int:
    """Index of the maximum-modulus amplitude; ties go to the lowest index.

    Maximizing the divisor modulus keeps the chart point as far as possible
    from the coordinate singularity of the chart.
    """
    return int(np.argmax(np.abs(np.asarray(psi))))


def to_chart(psi: np.ndarray, pivot: int) -> ChartPoint:
    """Inhomogeneous coordinates of the ray through psi, dividing by
    psi[pivot].  Invariant under global rephasing of psi."""
    psi = require_numbers("state", psi, ndim=1)
    pivot = _pivot(pivot, psi.size)
    div = psi[pivot]
    if abs(div) < PIVOT_FLOOR:
        raise ZeroPivotError(
            f"pivot amplitude |psi[{pivot}]| = {abs(div):.3e} below floor {PIVOT_FLOOR}"
        )
    coords = np.delete(psi, pivot) / div
    return ChartPoint(pivot=pivot, coords=coords)


def from_chart(point: ChartPoint) -> np.ndarray:
    """Unit-norm representative of the ray, gauge-fixed so the pivot
    amplitude is real positive (= 1/sqrt(nfac))."""
    u = point.homogeneous()
    return u / np.sqrt(normalization(point))


def normalization(point: ChartPoint) -> float:
    """nfac = 1 + sum_i |x^i|^2."""
    x = point.coords
    return float(1.0 + np.vdot(x, x).real)


def kahler_potential(point: ChartPoint) -> float:
    """K = log(nfac)."""
    return float(np.log(normalization(point)))


def fubini_study_metric(point: ChartPoint) -> np.ndarray:
    r"""Fubini-Study metric 2 \partial^2 K / \partial x^j \partial xbar^k.

    Entry (j, k) is 2(delta_{jk}/nfac - xbar^j x^k / nfac^2), i.e. the
    Wirtinger Hessian of K with the row index holomorphic.  Hermitian and
    positive definite at every finite point.
    """
    x = point.coords
    nfac = normalization(point)
    outer = np.outer(np.conj(x), x)
    return 2.0 * (np.eye(x.size) / nfac - outer / nfac**2)


def symplectic_form(point: ChartPoint) -> np.ndarray:
    """Symplectic form matrix, (i/2) times the Fubini-Study metric."""
    return 0.5j * fubini_study_metric(point)


def symplectic_inverse(point: ChartPoint) -> np.ndarray:
    """Closed-form inverse of the symplectic form: -i nfac (delta + x xbar).

    Stored in the same index convention as `symplectic_form`, so the plain
    matrix product symplectic_inverse @ symplectic_form is the identity.
    """
    x = point.coords
    nfac = normalization(point)
    return -1j * nfac * (np.eye(x.size) + np.outer(np.conj(x), x))


def transition(point: ChartPoint, new_pivot: int) -> ChartPoint:
    """Re-express the same ray in the chart anchored at `new_pivot`.

    `to_chart` of the homogeneous representative; raises ZeroPivotError
    when the would-be divisor is below PIVOT_FLOOR.
    """
    if _pivot(new_pivot, point.dimension) == point.pivot:
        return point
    return to_chart(point.homogeneous(), new_pivot)
